"""Differential test: the library decoders against the reference loops in helpers.

Random Tanner graphs with up to 12 variables (isolated variables and checks
allowed), random error patterns, random serial scan orders and small
``max_iters`` values; every field of the result must agree.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    reference_decode_parallel,
    reference_decode_serial,
    reference_parallel_round,
)
from ldpcbounds import (  # noqa: E402
    ErrorPattern,
    build_tanner_graph,
    decode_parallel,
    decode_serial,
    is_fixed_point,
    parallel_round,
)


@st.composite
def decode_cases(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 10))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    t = build_tanner_graph(sorted(edges), n=n, m=m)
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    order = draw(st.permutations(range(n)))
    max_iters = draw(st.sampled_from([None, 1, 2, 3]))
    return t, support, order, max_iters


def _fields(r):
    return r.status.value, r.final.support, r.rounds, r.flips_per_round


@hypothesis.settings(max_examples=400, database=None, deadline=None)
@hypothesis.given(decode_cases())
def test_decoders_match_reference(case):
    t, support, order, max_iters = case
    e = ErrorPattern(t.n, support)
    assert _fields(decode_parallel(t, e, max_iters)) == reference_decode_parallel(
        t, support, max_iters
    )
    assert _fields(decode_serial(t, e, max_iters)) == reference_decode_serial(
        t, support, max_iters
    )
    assert _fields(decode_serial(t, e, max_iters, order=order)) == reference_decode_serial(
        t, support, max_iters, order
    )
    nxt, flipped = parallel_round(t, e)
    assert (nxt.support, flipped) == reference_parallel_round(t, support)
    assert is_fixed_point(t, e) == (not flipped)
