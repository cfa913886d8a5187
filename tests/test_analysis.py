"""Expansion certificates, lemma checks, and trapping-set classification."""

from fractions import Fraction
from itertools import combinations

import pytest

from helpers import connected_counts
from ldpcbounds import (
    ErrorPattern,
    build_tanner_graph,
    check_lemmas,
    classify_subset,
    expansion,
    is_fixed_point,
    is_potential_trapping_set,
    is_trapping_set,
    search_min_trapping_set,
    trapping_matches_decoder,
    verify_main_theorem,
)
from ldpcbounds.cages import build_gadget, embed_gadget


def _sharing_pair(t):
    """Two variables adjacent to a common check."""
    for c in range(t.m):
        if t.check_degree(c) >= 2:
            return t.check_adj[c][0], t.check_adj[c][1]
    raise AssertionError("fixture has no check of degree 2")


def test_expansion_values(code_g3_girth6_n12):
    t = code_g3_girth6_n12
    assert expansion(t, [0]) == 3
    u, v = _sharing_pair(t)
    assert expansion(t, [u, v]) == Fraction(5, 2)
    assert isinstance(expansion(t, [0]), Fraction)
    with pytest.raises(ValueError):
        expansion(t, [])


def test_pair_neighbourhoods_at_girth_six_or_more(code_g3_girth8_n30, code_g3_girth6_n12):
    # girth above 4 means two variables share at most one check
    for t in (code_g3_girth8_n30, code_g3_girth6_n12):
        for u, v in combinations(range(t.n), 2):
            n = len(set(t.var_adj[u]) | set(t.var_adj[v]))
            assert n in (5, 6)


def test_expansion_certificate_girth6(code_g3_girth6_n12):
    cert = verify_main_theorem(code_g3_girth6_n12)
    assert cert.passed and cert.complete
    assert cert.gamma == 3 and cert.girth == 6
    assert cert.threshold == Fraction(9, 4)
    # n0(3/2, 3) = 5/2, so sizes 1 and 2 are required
    assert cert.k_max_required == 2
    assert cert.k_max_checked == 2
    # connected subsets only: 54 pairs share a check
    assert cert.subsets_checked == 12 + 54
    assert cert.worst_expansion == Fraction(5, 2)
    assert cert.worst_expansion > cert.threshold


def test_expansion_certificate_gamma4(code_g4_girth6_n32):
    cert = verify_main_theorem(code_g4_girth6_n32)
    assert cert.passed and cert.complete
    assert cert.threshold == 3
    assert cert.k_max_required == 2  # n0(2, 3) = 3
    # 32 checks of degree 4 link 6 pairs each, and girth 6 keeps them distinct
    assert cert.subsets_checked == 32 + 32 * 6
    assert cert.worst_expansion >= Fraction(7, 2)


def test_expansion_certificate_budget_truncation(code_g3_girth8_n30):
    cert = verify_main_theorem(code_g3_girth8_n30, budget=40)
    assert not cert.complete
    assert cert.subsets_checked == 40
    assert cert.k_max_checked == 1
    assert cert.k_max_required == 2
    assert cert.passed  # everything visited so far expands
    # exact-budget edges: sizes 1 and 2 hold 30 + 90 = 120 connected subsets
    rows = [(0, 0, 0, False), (30, 30, 1, False), (119, 119, 1, False),
            (120, 120, 2, True), (121, 120, 2, True)]
    for budget, checked, k_done, complete in rows:
        cert = verify_main_theorem(code_g3_girth8_n30, budget=budget)
        assert (cert.subsets_checked, cert.k_max_checked, cert.complete) == (
            checked, k_done, complete)


def test_dense_gadget_certificate_is_pinned():
    """The gamma = 8 gadget, n = 19, sizes 1..16: the largest certificate in the suite.

    The worst subset and ratio are ``helpers.reference_certificate`` over
    every subset; the count is ``helpers.connected_counts``, which gives 969
    connected subsets of size 16 (both take seconds, so they are not rerun).
    """
    t = build_gadget(8, 5).graph
    cert = verify_main_theorem(t)
    assert (cert.worst_subset, cert.worst_expansion, cert.passed) == (
        tuple(range(16)), Fraction(25, 4), True)
    assert (cert.subsets_checked, cert.k_max_required, cert.k_max_checked, cert.complete) == (
        285_013, 16, 16, True)
    # exact-budget edges: one subset short stops inside size 16, where the
    # subset left out is not the worst; the budget itself or more is the full walk
    short = verify_main_theorem(t, budget=285_012)
    assert (short.subsets_checked, short.k_max_checked, short.complete) == (285_012, 15, False)
    assert (short.worst_subset, short.worst_expansion, short.passed) == (
        cert.worst_subset, cert.worst_expansion, True)
    assert verify_main_theorem(t, budget=285_013) == cert
    assert verify_main_theorem(t, budget=285_014) == cert


def test_certificate_tie_goes_to_the_smaller_size(pendant_square_code):
    # the whole code, size 5, ties the square, size 4, at ratio 5; the
    # smaller one comes first in (size, lexicographic) order, whichever
    # order the walk meets them in
    cert = verify_main_theorem(pendant_square_code)
    assert (cert.worst_subset, cert.worst_expansion) == ((1, 2, 3, 4), 5)
    assert (cert.k_max_required, cert.subsets_checked, cert.passed) == (5, 21, True)


def test_expansion_certificate_threshold_override(code_g3_girth6_n12):
    cert = verify_main_theorem(code_g3_girth6_n12, threshold=Fraction(3))
    assert not cert.passed
    assert cert.complete
    assert len(cert.worst_subset) in (1, 2)


def test_expansion_certificate_on_degree_two_cycle(eight_cycle_code):
    cert = verify_main_theorem(eight_cycle_code)
    assert cert.passed
    assert cert.k_max_required == 1
    assert cert.worst_expansion == 2


def test_expansion_certificate_input_validation():
    irregular = build_tanner_graph([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError, match="left-regular"):
        verify_main_theorem(irregular)
    square = build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(ValueError, match="girth >= 6"):
        verify_main_theorem(square)
    forest = build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 2)], n=2, m=3)
    with pytest.raises(ValueError, match="girth >= 6"):
        verify_main_theorem(forest)


def test_check_lemmas_single_and_pair(code_g3_girth6_n12):
    t = code_g3_girth6_n12
    single = check_lemmas(t, [0])
    assert single.f_value == 0
    assert single.edge_r == 0
    assert single.check_count == 3
    assert single.lemma1_ok and single.lemma2_ok
    # a sharing pair meets both lemma bounds with equality at girth 6
    u, v = _sharing_pair(t)
    pair = check_lemmas(t, [u, v])
    assert pair.f_value == 1
    assert (pair.edge_r, pair.bound_2f) == (2, 2)
    assert (pair.check_count, pair.bound_gamma_k_minus_f) == (5, 5)
    assert pair.lemma1_ok and pair.lemma2_ok


def test_check_lemmas_hold_exhaustively(code_g3_girth6_n12):
    t = code_g3_girth6_n12
    for k in range(1, 5):
        for s in combinations(range(t.n), k):
            lc = check_lemmas(t, s)
            assert lc.lemma1_ok and lc.lemma2_ok


def test_check_lemmas_validation(code_g3_girth6_n12):
    with pytest.raises(ValueError, match="cap of 8"):
        check_lemmas(code_g3_girth6_n12, range(9))
    irregular = build_tanner_graph([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError, match="left-regular"):
        check_lemmas(irregular, [0])


def test_single_variables_are_never_potential(code_g3_girth8_n30):
    t = code_g3_girth8_n30
    assert not any(is_potential_trapping_set(t, [v]) for v in range(t.n))


def test_potential_trapping_set_validation(code_g3_girth8_n30):
    with pytest.raises(ValueError, match="nonempty"):
        is_potential_trapping_set(code_g3_girth8_n30, [])
    with pytest.raises(ValueError, match="out of range"):
        is_potential_trapping_set(code_g3_girth8_n30, [99])


def test_gadget_subset_classification():
    gadget = build_gadget(3, 4)
    report = classify_subset(gadget.graph, gadget.subset)
    assert report.signature == (4, 4)
    assert report.condition_a and report.condition_b
    assert report.condition_b_witness is None
    assert report.is_trapping
    assert report.expansion == 2
    assert is_trapping_set(gadget.graph, gadget.subset)


def test_trapping_is_not_monotone():
    # every proper nonempty subset of the minimal trapping set fails (a)
    gadget = build_gadget(3, 4)
    for k in range(1, 4):
        for s in combinations(gadget.subset, k):
            assert not is_potential_trapping_set(gadget.graph, s)
            assert not is_trapping_set(gadget.graph, s)


def test_broken_embedding_fails_condition_b(code_g3_girth6_n12):
    host = code_g3_girth6_n12
    gadget = build_gadget(3, 4)
    # aim three of the four merged checks at variable 0's neighbourhood, so
    # it sees three odd checks against a budget of floor(3/2) = 1
    targets = list(host.var_adj[0])
    spare = next(c for c in range(host.m) if c not in targets)
    bad = embed_gadget(host, gadget, merge_targets=targets + [spare])
    report = classify_subset(bad.graph, bad.subset)
    assert report.condition_a
    assert not report.condition_b
    w = report.condition_b_witness
    assert w is not None and w < host.n
    odd = set(report.partition.odd)
    w_hits = sum(1 for c in bad.graph.var_adj[w] if c in odd)
    assert w_hits > bad.graph.var_degree(w) // 2
    assert not report.is_trapping
    assert not is_fixed_point(bad.graph, ErrorPattern(bad.graph.n, bad.subset))
    assert trapping_matches_decoder(bad.graph, bad.subset)


def test_structural_matches_behavioral_exhaustively(code_g3_girth6_n12):
    t = code_g3_girth6_n12
    for k in range(1, 4):
        for s in combinations(range(t.n), k):
            assert trapping_matches_decoder(t, s)
    gadget = build_gadget(3, 4)
    for k in range(1, 5):
        for s in combinations(range(gadget.graph.n), k):
            assert trapping_matches_decoder(gadget.graph, s)


def test_search_finds_the_gadget_subset():
    gadget = build_gadget(3, 4)
    res = search_min_trapping_set(gadget.graph, 4)
    assert res.found is not None
    assert res.found.subset == (0, 1, 2, 3)
    assert res.found.signature == (4, 4)
    assert res.sizes_completed == 3
    assert res.complete
    # the 4-cycle's connected subsets: 4 + 4 + 4 + 1
    assert res.subsets_visited == 4 + 4 + 4 + 1
    potential = search_min_trapping_set(gadget.graph, 4, potential_only=True)
    assert potential.found is not None
    assert potential.found.subset == (0, 1, 2, 3)
    assert potential.potential_only


def test_search_reports_absence(code_g3_girth8_n30):
    t = code_g3_girth8_n30
    res = search_min_trapping_set(t, 3)
    assert res.found is None
    assert res.complete
    assert res.sizes_completed == 3
    assert res.subsets_visited == 30 + 90 + 390


def test_search_budget_truncation(code_g3_girth8_n30):
    res = search_min_trapping_set(code_g3_girth8_n30, 3, budget=100)
    assert res.found is None
    assert not res.complete
    assert res.sizes_completed == 1
    assert res.subsets_visited == 100
    # exact-budget edges: sizes 1..3 hold 30 + 90 + 390 = 510 connected subsets
    rows = [(120, 120, 2, False), (509, 509, 2, False), (510, 510, 3, True)]
    for budget, visited, sizes, complete in rows:
        res = search_min_trapping_set(code_g3_girth8_n30, 3, budget=budget)
        assert res.found is None
        assert (res.subsets_visited, res.sizes_completed, res.complete) == (
            visited, sizes, complete)


def test_counter_pins_are_connected_counts(
    code_g3_girth6_n12, code_g4_girth6_n32, code_g3_girth8_n30
):
    """The subset counts pinned above, from the networkx connectivity oracle."""
    pytest.importorskip("networkx")
    assert connected_counts(code_g3_girth6_n12, 2) == [12, 54]
    assert connected_counts(code_g4_girth6_n32, 2) == [32, 192]
    assert connected_counts(code_g3_girth8_n30, 3) == [30, 90, 390]
    assert connected_counts(build_gadget(3, 4).graph, 4) == [4, 4, 4, 1]


def test_search_degenerate_sizes(code_g3_girth8_n30):
    res = search_min_trapping_set(code_g3_girth8_n30, 0)
    assert res.found is None and res.complete and res.subsets_visited == 0
    with pytest.raises(ValueError, match="nonnegative"):
        search_min_trapping_set(code_g3_girth8_n30, -1)


def test_negative_budget_is_rejected(code_g3_girth8_n30):
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        verify_main_theorem(code_g3_girth8_n30, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        search_min_trapping_set(code_g3_girth8_n30, 3, budget=-5)
    # a zero budget is still a valid, empty walk
    res = search_min_trapping_set(code_g3_girth8_n30, 3, budget=0)
    assert (res.subsets_visited, res.sizes_completed, res.complete) == (0, 0, False)


def test_embedded_gadget_traps_in_host(code_g3_girth8_n30):
    host = code_g3_girth8_n30
    embedded = embed_gadget(host, build_gadget(3, 4), seed=0)
    assert embedded.subset == tuple(range(30, 34))
    assert (embedded.a, embedded.b) == (4, 4)
    assert is_trapping_set(embedded.graph, embedded.subset)
    assert embedded.graph.n == 34
