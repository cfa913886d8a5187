"""Differential tests: girth, the girth repair's cycle scan and the
generator's edge predicate against the oracles in helpers.

Tanner girth searches from the smaller side of the bipartition only, so it
is checked on random Tanner graphs with fewer, more and as many variables as
checks, forests, isolated nodes and no checks at all, each built fresh so no
cached value can stand in. A simple graph's girth is half that of its
edge-vertex incidence; it is checked on random graphs, odd cycles, several
components, forests and graphs of zero and one node. The repair's scan is
``graphs.short_cycle`` from every variable in turn, starting anywhere; it
must return the very witness of the original scan, edge for edge and in
order, on set adjacencies that random 2-opt swaps have left with deleted
slots, so that their iteration order is not sorted. The edge predicate
meets in the middle; it is checked against one full-radius search on every
edge of random sparse bipartite graphs and on the two edges a random 2-opt
swap puts in, for targets 4 to 12 (half-radii 1 to 5, odd and even).
"""

from itertools import chain

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    girth_by_edge_deletion,
    reference_edge_cycle_ok,
    reference_find_short_cycle,
    to_networkx,
)
from ldpcbounds import Graph, build_tanner_graph, girth  # noqa: E402
from ldpcbounds.codegen import _edge_cycle_ok  # noqa: E402
from ldpcbounds.graphs import short_cycle  # noqa: E402

try:
    import networkx as nx
except ImportError:
    nx = None


@st.composite
def tanner_edges(draw, max_nodes=12):
    n = draw(st.integers(0, max_nodes))
    m = draw(st.sampled_from([0, max(n - 3, 0), n, n + 3, draw(st.integers(0, max_nodes))]))
    pool = [(v, c) for v in range(n) for c in range(m)]
    # from forests through a few long cycles up to dense graphs
    cap = draw(st.sampled_from([max(n + m - 1, 0), n + m + 2, len(pool)]))
    edges = draw(st.lists(st.sampled_from(pool), max_size=min(cap, len(pool)), unique=True)
                 if pool else st.just([]))
    return n, m, edges


def assert_tanner_girth_matches(n, m, edges):
    t = build_tanner_graph(edges, n=n, m=m)
    expected = girth_by_edge_deletion(t.as_graph())
    assert girth(t) == expected
    if nx is not None:
        assert nx.girth(to_networkx(t.as_graph())) == expected


@hypothesis.settings(max_examples=300, database=None, deadline=None)
@hypothesis.given(tanner_edges())
def test_tanner_girth_matches_oracles(case):
    assert_tanner_girth_matches(*case)


def test_tanner_girth_edge_cases():
    cases = [
        (0, 0, []),
        (3, 0, []),
        (0, 3, []),
        (4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)]),             # forest, n > m
        (2, 5, [(0, 0), (0, 1), (1, 1), (1, 2)]),             # forest, isolated checks
        (5, 5, [(0, 0), (0, 1), (1, 0), (1, 1)]),             # a 4-cycle, isolated nodes
        (3, 6, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]),  # a 6-cycle, n < m
        (6, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]),  # a 6-cycle, n > m
    ]
    for n, m, edges in cases:
        assert_tanner_girth_matches(n, m, edges)


@st.composite
def simple_graphs(draw, max_nodes=12):
    n = draw(st.integers(0, max_nodes))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = draw(st.sampled_from([max(n - 1, 0), n + 2, len(pool)]))
    edges = draw(st.lists(st.sampled_from(pool), max_size=min(cap, len(pool)), unique=True)
                 if pool else st.just([]))
    return n, edges


def assert_graph_girth_matches(n, edges):
    g = Graph.from_edges(n, edges)
    expected = girth_by_edge_deletion(g)
    assert girth(g) == expected
    if nx is not None:
        assert nx.girth(to_networkx(g)) == expected


@hypothesis.settings(max_examples=200, database=None, deadline=None)
@hypothesis.given(simple_graphs())
def test_graph_girth_matches_oracles(case):
    assert_graph_girth_matches(*case)


def test_graph_girth_edge_cases():
    def cycle(nodes):
        return [(a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]

    cases = [
        (0, []),
        (1, []),
        (2, [(0, 1)]),
        (3, cycle([0, 1, 2])),                                 # odd cycles
        (5, cycle([0, 1, 2, 3, 4])),
        (9, cycle(list(range(9)))),
        (9, cycle([0, 1, 2, 3]) + cycle([4, 5, 6, 7, 8])),      # two components
        (12, cycle([0, 1, 2, 3, 4, 5, 6]) + cycle([7, 8, 9]) + [(10, 11)]),
        (7, [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)]),          # a forest
        (8, cycle([0, 1, 2, 3, 4]) + [(0, 5), (5, 6), (2, 7)]),  # a cycle with trees
        (6, cycle([0, 1, 2, 3, 4, 5]) + [(0, 3)]),              # a chord
    ]
    for n, edges in cases:
        assert_graph_girth_matches(n, edges)


@st.composite
def swapped_sets(draw):
    """Random set adjacencies after random 2-opt swaps made as the repair makes them."""
    n = draw(st.integers(2, 20))
    m = draw(st.integers(2, 20))
    pool = [(v, c) for v in range(n) for c in range(m)]
    # from about one cycle up to many
    edges = draw(st.lists(st.sampled_from(pool), min_size=min(len(pool), n + m - 1),
                          max_size=min(len(pool), 2 * (n + m)), unique=True))
    var_adj = [set() for _ in range(n)]
    check_adj = [set() for _ in range(m)]
    for v, c in edges:
        var_adj[v].add(c)
        check_adj[c].add(v)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 80))):
        (v, c), (v2, c2) = rng.sample(edges, 2)
        if v == v2 or c == c2 or c2 in var_adj[v] or c in var_adj[v2]:
            continue
        for adj, x, old, new in ((var_adj, v, c, c2), (check_adj, c, v, v2),
                                 (var_adj, v2, c2, c), (check_adj, c2, v2, v)):
            adj[x].discard(old)
            adj[x].add(new)
        edges.remove((v, c))
        edges.remove((v2, c2))
        edges += [(v, c2), (v2, c)]
    return n, var_adj, check_adj


@hypothesis.settings(max_examples=60, database=None, deadline=None)
@hypothesis.given(swapped_sets())
def test_repair_scan_matches_oracle(graph):
    n, var_adj, check_adj = graph
    for target in range(4, 13):
        for start in range(n):
            roots = chain(range(start, n), range(start))
            assert (short_cycle(var_adj, check_adj, roots, target)
                    == reference_find_short_cycle(var_adj, check_adj, n, target, start))


@st.composite
def bipartite_sets(draw):
    n = draw(st.integers(2, 16))
    m = draw(st.integers(2, 16))
    pool = [(v, c) for v in range(n) for c in range(m)]
    edges = draw(st.lists(st.sampled_from(pool), min_size=2,
                          max_size=min(len(pool), n + m + 6), unique=True))
    var_adj = [set() for _ in range(n)]
    check_adj = [set() for _ in range(m)]
    for v, c in edges:
        var_adj[v].add(c)
        check_adj[c].add(v)
    return n, var_adj, check_adj, edges


@hypothesis.settings(max_examples=300, database=None, deadline=None)
@hypothesis.given(bipartite_sets(), st.data())
def test_edge_predicate_matches_full_radius_search(graph, data):
    n, var_adj, check_adj, edges = graph
    targets = (4, 6, 8, 10, 12)
    for v, c in edges:
        for target in targets:
            assert (_edge_cycle_ok(var_adj, check_adj, v, c, target)
                    == reference_edge_cycle_ok(var_adj, check_adj, n, v, c, target))
    # a 2-opt swap as the repair makes it: (v, c), (v2, c2) -> (v, c2), (v2, c)
    swaps = [((v, c), (v2, c2)) for v, c in edges for v2, c2 in edges
             if v != v2 and c != c2 and c2 not in var_adj[v] and c not in var_adj[v2]]
    if not swaps:
        return
    (v, c), (v2, c2) = data.draw(st.sampled_from(swaps))
    var_adj[v] ^= {c, c2}
    var_adj[v2] ^= {c, c2}
    check_adj[c] ^= {v, v2}
    check_adj[c2] ^= {v, v2}
    for a, b in ((v, c2), (v2, c)):
        for target in targets:
            assert (_edge_cycle_ok(var_adj, check_adj, a, b, target)
                    == reference_edge_cycle_ok(var_adj, check_adj, n, a, b, target))
