"""Graph construction, degree bookkeeping, girth, and check partitions."""

import math
import random

import pytest

from helpers import girth_by_edge_deletion, graph_corpus, random_tanner, to_networkx
from ldpcbounds import (
    Graph,
    GraphError,
    build_tanner_graph,
    complete_graph,
    cycle_graph,
    girth,
    graphs,
    induced_check_partition,
)
from ldpcbounds.cages import cage


def test_girth_matches_edge_deletion_oracle_on_corpus():
    """Library girth vs the independent per-edge-deletion oracle."""
    for g in graph_corpus(seed=11, count=40):
        assert girth(g) == girth_by_edge_deletion(g)


def test_girth_matches_networkx_on_corpus():
    nx = pytest.importorskip("networkx")
    for g in graph_corpus(seed=12, count=40):
        assert girth(g) == nx.girth(to_networkx(g))


def test_girth_frozen_values():
    assert girth(cycle_graph(4)) == 4
    assert girth(complete_graph(4)) == 3
    # Petersen girth via both oracles before freezing: 5
    petersen = cage(3, 5).graph
    assert girth_by_edge_deletion(petersen) == 5
    assert girth(petersen) == 5


def test_girth_acyclic_is_infinite():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert girth(path) == math.inf
    assert girth(Graph.from_edges(3, [])) == math.inf
    assert girth(build_tanner_graph([(0, 0), (1, 0)])) == math.inf


def test_girth_is_at_least_three_or_infinite():
    for g in graph_corpus(seed=13, count=20):
        assert girth(g) >= 3


def test_girth_searches_only_roots_on_a_remaining_cycle(monkeypatch):
    # a finished root is deleted and every node left with fewer than two live
    # neighbours is peeled, so a long cycle takes two searches from one root
    # (one finds it, one proves nothing shorter passes through it) and a
    # forest takes none
    searched = []
    kernel = graphs.short_cycle
    monkeypatch.setattr(graphs, "short_cycle", lambda near, far, roots, below: kernel(
        near, far, (searched.append(r) or r for r in roots), below))
    assert girth(cycle_graph(1000)) == 1000
    assert len(searched) <= 2
    searched.clear()
    # the same cycle with a 500-node path hanging off it
    tail = [(i, i + 1) for i in range(999, 1499)]
    lollipop = Graph.from_edges(1500, [(i, (i + 1) % 1000) for i in range(1000)] + tail)
    assert girth(lollipop) == 1000
    assert len(searched) <= 2
    searched.clear()
    assert girth(Graph.from_edges(1000, [(i, i + 1) for i in range(999)])) == math.inf
    assert girth(build_tanner_graph([(v, v // 2) for v in range(1000)])) == math.inf
    assert searched == []


def test_eight_cycle_tanner_girth(eight_cycle_code):
    assert girth(eight_cycle_code) == 8
    assert eight_cycle_code.gamma == 2
    assert eight_cycle_code.rho == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphError, match="parallel edge"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])


def test_tanner_rejects_duplicates_and_bad_indices():
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        build_tanner_graph([(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="negative"):
        build_tanner_graph([(-1, 0)])
    with pytest.raises(GraphError, match="at least"):
        build_tanner_graph([(5, 0)], n=3, m=1)


def test_tanner_degree_detection():
    regular = build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert regular.gamma == 2 and regular.rho == 2
    irregular = build_tanner_graph([(0, 0), (0, 1), (1, 0)])
    assert irregular.gamma is None
    assert irregular.rho is None
    # declared-but-isolated nodes void regularity rather than crashing
    padded = build_tanner_graph([(0, 0)], n=2, m=1)
    assert padded.gamma is None


def test_tanner_edge_count_and_edges_order(code_g3_girth6_n12):
    t = code_g3_girth6_n12
    assert t.edge_count == t.n * t.gamma == t.m * t.rho
    assert list(t.edges()) == sorted(t.edges())
    assert sum(t.var_degree(v) for v in range(t.n)) == sum(
        t.check_degree(c) for c in range(t.m)
    )


def test_as_graph_layout(eight_cycle_code):
    g = eight_cycle_code.as_graph()
    assert g.n == 8
    assert g.edge_count == 8
    # variable 0 connects to checks 0 and 3, shifted past the variables
    assert g.adj[0] == (4, 7)


def test_var_masks(eight_cycle_code):
    masks = eight_cycle_code.var_masks
    assert masks[0] == (1 << 0) | (1 << 3)
    assert all(m.bit_count() == 2 for m in masks)


def test_var_reach_matches_definition(eight_cycle_code):
    # variable 0 shares check 0 with 1 and check 3 with 3, but no check with 2
    assert eight_cycle_code.var_reach[0] == 0b1011
    rng = random.Random(21)
    for t in [eight_cycle_code] + [random_tanner(rng, rng.randint(1, 80), rng.randint(1, 70),
                                                 rng.randint(0, 200)) for _ in range(30)]:
        for v, reach in enumerate(t.var_reach):
            near = {u for u in range(t.n) if u == v or set(t.var_adj[u]) & set(t.var_adj[v])}
            assert reach >> t.n == 0
            assert {u for u in range(t.n) if reach >> u & 1} == near


def test_average_degree():
    from fractions import Fraction

    assert cycle_graph(5).average_degree == 2
    assert complete_graph(4).average_degree == 3
    assert Graph.from_edges(4, [(0, 1)]).average_degree == Fraction(1, 2)
    with pytest.raises(GraphError):
        Graph.from_edges(0, []).average_degree


def test_partition_single_variable_all_pendant():
    t = build_tanner_graph([(0, 0), (0, 1), (0, 2)])
    part = induced_check_partition(t, [0])
    assert part.even == ()
    assert part.odd == (0, 1, 2)
    assert part.pendant == (0, 1, 2)
    assert part.induced_edge_count == 3
    assert part.neighbor_count == 3


def test_partition_two_variables_sharing_one_check():
    # gamma=3 pair sharing check 0: shared check even, four pendants odd
    t = build_tanner_graph(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (1, 4)]
    )
    part = induced_check_partition(t, [0, 1])
    assert part.even == (0,)
    assert part.odd == (1, 2, 3, 4)
    assert part.pendant == (1, 2, 3, 4)
    assert part.induced_edge_count == 6


def test_partition_invariants_on_random_subsets(code_g4_girth6_n32):
    t = code_g4_girth6_n32
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 6)
        s = rng.sample(range(t.n), k)
        part = induced_check_partition(t, s)
        assert set(part.pendant) <= set(part.odd)
        assert not set(part.even) & set(part.odd)
        assert part.induced_edge_count == sum(t.var_degree(v) for v in s)
        assert len(part.odd) % 2 == part.induced_edge_count % 2


def test_partition_rejects_bad_subsets(eight_cycle_code):
    with pytest.raises(ValueError, match="nonempty"):
        induced_check_partition(eight_cycle_code, [])
    with pytest.raises(ValueError, match="out of range"):
        induced_check_partition(eight_cycle_code, [99])


def test_partition_on_random_irregular_graphs():
    rng = random.Random(9)
    for _ in range(20):
        t = random_tanner(rng, 8, 6, 20)
        s = rng.sample(range(8), 3)
        part = induced_check_partition(t, s)
        brute = {}
        for v in s:
            for c in t.var_adj[v]:
                brute[c] = brute.get(c, 0) + 1
        assert set(part.even) == {c for c, d in brute.items() if d % 2 == 0}
        assert set(part.odd) == {c for c, d in brute.items() if d % 2 == 1}


def test_small_constructors_reject_bad_sizes():
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        complete_graph(-1)
