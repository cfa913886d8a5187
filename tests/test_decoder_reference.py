"""Differential test: the library decoders against the reference loops in helpers.

Random Tanner graphs with up to 12 variables (isolated variables and checks
allowed), and sparse ones of variable degree at most 4 with up to 80
variables and checks, so that error, reach and check masks are wider than 64
bits; random error patterns, random serial scan orders and small
``max_iters`` values. Every field of the result must agree, and so must
the sweeps, counters included: every weight of codes with up to 14
variables, whose prefix trees reach the full support, and weights up to 2
of the sparse codes with 65 to 80 variables.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    _reference_parity,
    reference_decode_parallel,
    reference_decode_serial,
    reference_parallel_round,
    reference_sweep,
)
from ldpcbounds import (  # noqa: E402
    ErrorPattern,
    build_tanner_graph,
    decode_parallel,
    decode_serial,
    is_fixed_point,
    parallel_round,
    sweep_error_patterns,
    unsatisfied_checks,
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


def _sparse_graph(draw, n, m):
    var_adj = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4), min_size=n, max_size=n))
    return build_tanner_graph([(v, c) for v, cs in enumerate(var_adj) for c in cs], n=n, m=m)


@st.composite
def sparse_decode_cases(draw):
    n = draw(st.one_of(st.integers(1, 16), st.integers(65, 80)))
    t = _sparse_graph(draw, n, draw(st.integers(1, 80)))
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    order = draw(st.permutations(range(n)))
    max_iters = draw(st.sampled_from([None, 1, 2]))
    return t, support, order, max_iters


@hypothesis.settings(max_examples=150, database=None, deadline=None)
@hypothesis.given(sparse_decode_cases())
def test_wide_sparse_decoders_match_reference(case):
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
    parity = _reference_parity(t, support)
    assert unsatisfied_checks(t, e) == {c for c in range(t.m) if parity[c]}
    nxt, flipped = parallel_round(t, e)
    assert (nxt.support, flipped) == reference_parallel_round(t, support)
    assert is_fixed_point(t, e) == (not flipped)


@st.composite
def sweep_cases(draw):
    # every weight of a short code, down to the full support, and the wide
    # masks of a long one at small weights
    n = draw(st.one_of(st.integers(1, 14), st.integers(65, 80)))
    if n <= 14:
        t = _sparse_graph(draw, n, draw(st.integers(1, 12)))
        weight = draw(st.integers(0, n))
    else:
        t = _sparse_graph(draw, n, draw(st.integers(1, 80)))
        weight = draw(st.integers(0, 2))
    algorithm = draw(st.sampled_from(["parallel", "serial"]))
    max_iters = draw(st.sampled_from([None, 1, 2, 3]))
    return t, weight, algorithm, max_iters


@hypothesis.settings(max_examples=150, database=None, deadline=None)
@hypothesis.given(sweep_cases())
def test_sweeps_match_reference(case):
    t, weight, algorithm, max_iters = case
    s = sweep_error_patterns(t, weight, algorithm, max_iters)
    checked, failures, statuses, rounds = reference_sweep(t, weight, algorithm, max_iters)
    assert (s.patterns_checked, s.failures) == (checked, failures)
    assert list(s.status_counts.items()) == list(statuses.items())
    assert list(s.rounds_histogram.items()) == list(rounds.items())


def test_sweep_tree_depth_is_not_bounded_by_recursion():
    # the full support of a 1,100-variable code is a prefix tree 1,100 levels
    # deep; each variable sits in three consecutive checks, so each variable
    # sees two unsatisfied checks: parallel round 1 corrects the pattern and
    # serial runs out of rounds
    n = 1100
    t = build_tanner_graph([(v, v + i) for v in range(n) for i in range(3)], n=n, m=n + 2)
    e = ErrorPattern(n, range(n))
    statuses = []
    for algorithm, decode in (("parallel", decode_parallel), ("serial", decode_serial)):
        s = sweep_error_patterns(t, n, algorithm, max_iters=1)
        r = decode(t, e, 1)
        assert s.patterns_checked == 1
        assert s.status_counts[r.status.value] == 1
        assert s.rounds_histogram == {r.rounds: 1}
        statuses.append(r.status.value)
    assert statuses == ["corrected", "max_iters"]
