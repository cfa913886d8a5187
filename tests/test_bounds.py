"""Moore/cage bound formulas and the exhaustive extremal edge count."""

import math
from fractions import Fraction

import pytest

from helpers import graph_corpus, reference_moore_bound
from ldpcbounds import (
    BoundReport,
    TrappingSetSizeBound,
    bound_report,
    brute_force_f,
    cage_upper_bound,
    girth,
    guaranteed_correction_count,
    max_edges_girth_bound,
    moore_bound,
    theorem_hypothesis_ok,
    trapping_set_size_bound,
)
from ldpcbounds.cages import cage


def test_moore_bound_frozen_values():
    # odd girth: 1 + d * sum_{i<r} (d-1)^i; even girth: 2 * sum
    assert moore_bound(3, 5) == 10  # 1 + 3*(1+2)
    assert moore_bound(2, 6) == 6  # 2*(1+1+1)
    assert moore_bound(2, 4) == 4  # 2*(1+1)
    assert moore_bound(Fraction(3, 2), 4) == 3  # 2*(1+1/2)
    assert moore_bound(Fraction(5, 2), 5) == Fraction(29, 4)  # 1+(5/2)(1+3/2)
    assert moore_bound(3, 6) == 14
    assert moore_bound(3, 8) == 30
    assert moore_bound(4, 5) == 17
    assert moore_bound(5, 5) == 26
    assert moore_bound(1, 9) == 2  # degree-1 terms vanish, a single edge


def test_moore_bound_returns_exact_fractions():
    v = moore_bound(Fraction(5, 2), 5)
    assert isinstance(v, Fraction)
    assert (v.numerator, v.denominator) == (29, 4)


def test_moore_bound_closed_form_matches_summation():
    degrees = [1, Fraction(4, 3), Fraction(3, 2), 2, Fraction(5, 2), Fraction(7, 3), 3, 4, 7]
    for d in degrees:
        for g in range(3, 61):
            value = moore_bound(d, g)
            assert isinstance(value, Fraction)
            assert value == reference_moore_bound(d, g), (d, g)


def test_moore_bound_monotone():
    degrees = [Fraction(1), Fraction(3, 2), 2, Fraction(5, 2), 3, 4, 5]
    for g in range(3, 10):
        vals = [moore_bound(d, g) for d in degrees]
        assert vals == sorted(vals)
    for d in degrees:
        vals = [moore_bound(d, g) for g in range(3, 12)]
        assert vals == sorted(vals)


def test_moore_bound_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        moore_bound(Fraction(1, 2), 5)
    with pytest.raises(ValueError, match="integer >= 3"):
        moore_bound(3, 2)
    with pytest.raises(ValueError, match="not float"):
        moore_bound(2.5, 5)
    with pytest.raises(ValueError, match="finite"):
        moore_bound(3, math.inf)


def test_cage_upper_bound_frozen_values():
    assert cage_upper_bound(3, 5) == Fraction(62, 3)  # 4/3 + (29/12)*8
    assert cage_upper_bound(3, 6) == Fraction(118, 3)  # 2/3 + (29/12)*16
    assert cage_upper_bound(4, 5) == 54  # 2*3^3
    assert cage_upper_bound(4, 6) == 108  # 4*3^3
    assert cage_upper_bound(5, 5) == 128  # 2*4^3
    assert cage_upper_bound(2, 7) == 7  # the cycle C7


def test_cage_upper_bound_rejects_bad_degree():
    with pytest.raises(ValueError, match="integer >= 2"):
        cage_upper_bound(1, 5)
    with pytest.raises(ValueError, match="integer >= 2"):
        cage_upper_bound(Fraction(5, 2), 5)


def test_cage_upper_dominates_moore():
    for d in range(2, 7):
        for g in range(3, 11):
            assert cage_upper_bound(d, g) >= moore_bound(d, g)


def test_moore_bound_holds_on_corpus_and_cages():
    """No graph beats the Moore bound: n >= n0(average degree, girth)."""
    graphs = list(graph_corpus(seed=31, count=40))
    graphs += [cage(d, g).graph for d, g in [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5)]]
    checked = 0
    for g in graphs:
        gi = girth(g)
        if gi == math.inf or g.average_degree < 2:
            continue
        assert g.n >= moore_bound(g.average_degree, gi)
        checked += 1
    assert checked >= 20


def test_moore_bound_tight_on_moore_graphs():
    # Petersen, Heawood and Tutte-Coxeter meet the bound; McGee and the
    # degree-4 girth-5 cage exceed it
    assert cage(3, 5).order == moore_bound(3, 5) == 10
    assert cage(3, 6).order == moore_bound(3, 6) == 14
    assert cage(3, 8).order == moore_bound(3, 8) == 30
    assert cage(3, 7).order == 24 > moore_bound(3, 7) == 22
    assert cage(4, 5).order == 19 > moore_bound(4, 5) == 17


def test_hypothesis_flag():
    assert not theorem_hypothesis_ok(3)
    assert theorem_hypothesis_ok(4)
    assert theorem_hypothesis_ok(7)


def test_guaranteed_correction_frozen_values():
    assert guaranteed_correction_count(4, 12) == 2  # n0(2,6)=6, ceil(3)-1
    assert guaranteed_correction_count(5, 10) == 3  # n0(5/2,5)=29/4, ceil(29/8)-1
    assert guaranteed_correction_count(4, 8) == 1  # n0(2,4)=4, ceil(2)-1
    assert guaranteed_correction_count(3, 8) == 1  # n0(3/2,4)=3, ceil(3/2)-1
    assert guaranteed_correction_count(3, 6) == 1  # n0(3/2,3)=5/2, ceil(5/4)-1
    assert guaranteed_correction_count(4, 6) == 1
    assert guaranteed_correction_count(5, 6) == 1
    assert guaranteed_correction_count(4, 16) == 3  # n0(2,8)=8, ceil(4)-1


def test_guaranteed_correction_strictness():
    # when half the Moore count is already an integer that weight is excluded
    assert moore_bound(2, 6) / 2 == 3
    assert guaranteed_correction_count(4, 12) == 2


def test_guaranteed_correction_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 3"):
        guaranteed_correction_count(2, 8)
    with pytest.raises(ValueError, match="even"):
        guaranteed_correction_count(4, 7)
    with pytest.raises(ValueError, match=">= 6"):
        guaranteed_correction_count(4, 4)
    with pytest.raises(ValueError, match="finite"):
        guaranteed_correction_count(4, math.inf)


def test_trapping_set_size_bound_frozen_values():
    assert trapping_set_size_bound(3, 8) == TrappingSetSizeBound(4, 4, 4)
    assert trapping_set_size_bound(4, 8) == TrappingSetSizeBound(4, 4, 4)
    assert trapping_set_size_bound(5, 10) == TrappingSetSizeBound(10, 20, 10)
    assert trapping_set_size_bound(6, 12) == TrappingSetSizeBound(14, 39, 14)
    assert trapping_set_size_bound(4, 12) == TrappingSetSizeBound(6, 6, 6)
    assert trapping_set_size_bound(7, 10) == TrappingSetSizeBound(17, 54, 19)
    assert trapping_set_size_bound(2, 8) == TrappingSetSizeBound(2, None, None)
    # (5,5) cage order is open; only the bracket is reported
    assert trapping_set_size_bound(9, 10) == TrappingSetSizeBound(26, 128, None)


def test_trapping_set_size_bound_bracket_is_consistent():
    for gamma in range(3, 8):
        for g in (6, 8, 10, 12):
            b = trapping_set_size_bound(gamma, g)
            if b.upper is not None:
                assert b.lower <= b.upper
            if b.exact is not None:
                assert b.lower <= b.exact <= b.upper


def test_trapping_set_size_bound_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 2"):
        trapping_set_size_bound(1, 8)
    with pytest.raises(ValueError, match="even"):
        trapping_set_size_bound(4, 9)


def test_brute_force_f_frozen_values():
    assert brute_force_f(4, 4) == 4  # the 4-cycle
    assert brute_force_f(5, 4) == 6  # K_{2,3}
    assert brute_force_f(5, 5) == 5  # the 5-cycle
    assert brute_force_f(4, 3) == 6  # K_4
    assert brute_force_f(6, 5) == 6
    assert brute_force_f(7, 5) == 8
    assert brute_force_f(8, 5) == 10
    assert brute_force_f(8, 6) == 9


def test_brute_force_f_extremal_rows():
    # OEIS A006855 (no 3- or 4-cycles) and A006856 (girth at least 6), k = 1..8
    assert [brute_force_f(k, 5) for k in range(1, 9)] == [0, 1, 2, 3, 5, 6, 8, 10]
    assert [brute_force_f(k, 6) for k in range(1, 9)] == [0, 1, 2, 3, 4, 6, 7, 9]


def test_brute_force_f_trees_and_trivial_girths():
    assert brute_force_f(1, 5) == 0
    assert brute_force_f(4, 9) == 3  # k < g forces a forest
    assert brute_force_f(6, math.inf) == 5
    # no girth constraint at 3: the complete graph
    for k in range(2, 8):
        assert brute_force_f(k, 3) == k * (k - 1) // 2


def test_brute_force_f_matches_triangle_free_maximum():
    # girth >= 4 is exactly triangle-free, where floor(k^2/4) is extremal
    for k in range(2, 9):
        assert brute_force_f(k, 4) == k * k // 4


def test_brute_force_f_cycle_when_k_equals_girth():
    for k in range(3, 9):
        assert brute_force_f(k, k) == k


def test_brute_force_f_one_cycle_below_theta_size():
    # below ceil(3g/2) - 1 nodes no two independent cycles of length >= g fit
    assert brute_force_f(8, 7) == brute_force_f(8, 8) == 8
    assert [brute_force_f(k, 7) for k in range(6, 9)] == [5, 7, 8]


def test_brute_force_f_within_moore_inverse_bound():
    for k in range(2, 8):
        for g in range(3, 9):
            assert brute_force_f(k, g) <= max_edges_girth_bound(k, g)


def test_brute_force_f_monotone_in_girth():
    for k in range(2, 8):
        vals = [brute_force_f(k, g) for g in range(3, 10)]
        assert vals == sorted(vals, reverse=True)


def test_brute_force_f_rejects_bad_arguments():
    with pytest.raises(ValueError, match="positive"):
        brute_force_f(0, 5)
    with pytest.raises(ValueError, match="limited to"):
        brute_force_f(9, 5)


def test_edge_bound_below_expansion_threshold():
    """f(k, g') stays under gamma*k/4 for all k below the Moore count.

    This is the counting step behind the expansion theorem: few induced
    edges force many distinct check neighbours.
    """
    for gamma in (4, 5, 6, 7):
        for g_prime in (3, 4, 5, 6):
            n0 = moore_bound(Fraction(gamma, 2), g_prime)
            k_top = min(8, math.ceil(n0) - 1)
            for k in range(1, k_top + 1):
                assert brute_force_f(k, g_prime) < Fraction(gamma, 4) * k


def test_max_edges_girth_bound_values():
    assert max_edges_girth_bound(4, 9) == 3
    assert max_edges_girth_bound(3, math.inf) == 2
    b = max_edges_girth_bound(5, 5)
    assert 5 <= b < Fraction(5001, 1000)
    with pytest.raises(ValueError, match="positive"):
        max_edges_girth_bound(0, 5)


def test_bound_report_bundles():
    r = bound_report(4, 8)
    assert r == BoundReport(
        gamma=4,
        girth=8,
        moore_n0=Fraction(4),
        guaranteed_correction=1,
        trapping_set_size=TrappingSetSizeBound(4, 4, 4),
        hypothesis_ok=True,
    )
    r3 = bound_report(3, 8)
    assert r3.moore_n0 == 3
    assert r3.guaranteed_correction == 1
    assert not r3.hypothesis_ok
    with pytest.raises(ValueError):
        bound_report(2, 8)
