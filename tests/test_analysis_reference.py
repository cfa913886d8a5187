"""Differential tests: the connected-subset searches and the capped extremal count
against the reference oracles in helpers.

The certificate runs on small conftest codes, cage incidences and gadgets,
with the default threshold and with thresholds that make it fail. The
trapping-set search runs on random Tanner graphs (isolated variables and
checks allowed), with both notions and ``max_size`` 1 to 4; its counter
must equal the number of connected subsets the walk hands out.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
pytest.importorskip("networkx")

from helpers import (  # noqa: E402
    connected_subsets,
    random_tanner,
    reference_brute_force_f,
    reference_certificate,
    reference_trapping_search,
)
from ldpcbounds import (  # noqa: E402
    brute_force_f,
    edge_vertex_incidence,
    search_min_trapping_set,
    verify_main_theorem,
)
from ldpcbounds.cages import build_gadget, cage  # noqa: E402


@pytest.fixture(scope="module")
def certificate_codes(code_g3_girth6_n12, code_g3_girth6_n24, code_g3_girth8_n30,
                      code_g4_girth6_n32, code_g3_girth8_n60):
    codes = [code_g3_girth6_n12, code_g3_girth6_n24, code_g3_girth8_n30,
             code_g4_girth6_n32, code_g3_girth8_n60]
    codes += [edge_vertex_incidence(cage(d, g).graph)
              for d, g in [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5)]]
    # gadgets: nearly every subset is connected, sizes up to 9 (and past n on K4)
    codes += [build_gadget(gamma, gprime).graph
              for gamma, gprime in [(4, 5), (5, 4), (5, 3), (6, 4), (6, 5)]]
    # each code with the number of connected subsets its certificate covers
    out = []
    for t in codes:
        k_max = verify_main_theorem(t).k_max_checked
        out.append((t, sum(len(connected_subsets(t, k)) for k in range(1, k_max + 1))))
    return out


@hypothesis.settings(max_examples=60, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_certificate_matches_reference(certificate_codes, data):
    t, connected = data.draw(st.sampled_from(certificate_codes))
    threshold = data.draw(st.one_of(
        st.none(), st.fractions(min_value=1, max_value=t.gamma + 1, max_denominator=12)))
    cert = verify_main_theorem(t, threshold=threshold)
    assert cert.complete and cert.k_max_checked == min(cert.k_max_required, t.n)
    assert cert.subsets_checked == connected
    want = reference_certificate(t, cert.k_max_required, cert.threshold)
    assert (cert.worst_subset, cert.worst_expansion, cert.passed) == want
    # a threshold equal to the worst ratio fails: the inequality is strict
    edge = verify_main_theorem(t, threshold=cert.worst_expansion)
    assert (edge.worst_subset, edge.passed) == (cert.worst_subset, False)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 8))
    edges = draw(st.integers(0, n * m))
    t = random_tanner(random.Random(draw(st.integers(0, 2**32 - 1))), n, m, edges)
    return t, draw(st.integers(1, 4)), draw(st.booleans())


@hypothesis.settings(max_examples=300, database=None, deadline=None)
@hypothesis.given(search_cases())
def test_search_matches_reference(case):
    t, max_size, potential_only = case
    res = search_min_trapping_set(t, max_size, potential_only=potential_only)
    subset, signature, sizes_completed = reference_trapping_search(t, max_size, potential_only)
    got = (res.found.subset, res.found.signature) if res.found else (None, None)
    assert got == (subset, signature)
    assert (res.sizes_completed, res.complete) == (sizes_completed, True)
    # every smaller size in full, then the hit's size up to the end of its block:
    # the subsets whose smallest member is at most the hit's
    visited = sum(len(connected_subsets(t, k)) for k in range(1, sizes_completed + 1))
    if subset is not None:
        visited += sum(1 for s in connected_subsets(t, len(subset)) if s[0] <= subset[0])
    assert res.subsets_visited == visited


def test_brute_force_f_matches_reference():
    for g in range(3, 9):
        for k in range(1, 8):
            assert brute_force_f(k, g) == reference_brute_force_f(k, g), (k, g)
