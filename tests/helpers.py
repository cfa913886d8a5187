"""Independent oracles and corpus builders shared by the tests.

The girth oracle here intentionally uses a different algorithm from the
library (per-edge deletion plus shortest path, versus per-node BFS cycle
detection), so the two can disagree only if one of them is wrong.

The reference decoders are the straightforward bit-flipping loops, one per
schedule: they recompute the parity of every check and scan every variable
each round, and share no code with ``ldpcbounds.decoder``. Their results are
plain tuples ``(status, final_support, rounds, flips_per_round)`` with the
status spelled as the library's ``DecodeStatus`` values.
"""

from __future__ import annotations

import math
import random

from ldpcbounds import Graph, TannerGraph, build_tanner_graph


def _distance_without_edge(g: Graph, src: int, dst: int):
    """Shortest src-dst path length avoiding the direct edge, None if disconnected."""
    seen = {src}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if x == src and y == dst:
                    continue
                if y == dst:
                    return d
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return None


def girth_by_edge_deletion(g: Graph):
    """Oracle: min over edges of (shortest path around the edge) + 1."""
    best = math.inf
    for u, v in g.edges():
        around = _distance_without_edge(g, u, v)
        if around is not None and around + 1 < best:
            best = around + 1
    return best


def to_networkx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def random_simple_graph(rng: random.Random, n: int, edges: int) -> Graph:
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pool, min(edges, len(pool))))


def random_tanner(rng: random.Random, n: int, m: int, edges: int) -> TannerGraph:
    pool = [(v, c) for v in range(n) for c in range(m)]
    return build_tanner_graph(rng.sample(pool, min(edges, len(pool))), n=n, m=m)


def graph_corpus(seed: int = 0, count: int = 30) -> list[Graph]:
    """Mixed random simple graphs, sizes 4..12, sparse through dense."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 12)
        max_edges = n * (n - 1) // 2
        out.append(random_simple_graph(rng, n, rng.randint(n // 2, max_edges)))
    return out


def _reference_parity(t: TannerGraph, support) -> list[int]:
    parity = [0] * t.m
    for v in support:
        for c in t.var_adj[v]:
            parity[c] ^= 1
    return parity


def reference_parallel_round(t: TannerGraph, support) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Oracle: one parallel round; returns the new support and the flipped positions."""
    parity = _reference_parity(t, support)
    count = [0] * t.n
    for c in range(t.m):
        if parity[c]:
            for v in t.check_adj[c]:
                count[v] += 1
    flipped = tuple(v for v in range(t.n) if 2 * count[v] > len(t.var_adj[v]))
    return tuple(sorted(set(support) ^ set(flipped))), flipped


def _reference_status(flipped, current, seen, rounds, max_iters):
    if not flipped:
        return "fixed_point"
    if not current:
        return "corrected"
    if current in seen:
        return "oscillation"
    seen.add(current)
    if rounds >= max_iters:
        return "max_iters"
    return None


def reference_decode_parallel(t: TannerGraph, support, max_iters=None):
    """Oracle: parallel bit flipping, returning ``(status, final, rounds, flips)``."""
    current = tuple(sorted(support))
    if max_iters is None:
        max_iters = max(t.n, 1)
    if not current:
        return "corrected", current, 0, ()
    seen = {current}
    flips = []
    while True:
        current, flipped = reference_parallel_round(t, current)
        flips.append(flipped)
        status = _reference_status(flipped, current, seen, len(flips), max_iters)
        if status:
            return status, current, len(flips), tuple(flips)


def reference_decode_serial(t: TannerGraph, support, max_iters=None, order=None):
    """Oracle: serial bit flipping in ``order`` (ascending by default), same result shape."""
    current = tuple(sorted(support))
    if max_iters is None:
        max_iters = max(t.n, 1)
    if order is None:
        order = range(t.n)
    if not current:
        return "corrected", current, 0, ()
    bits = [0] * t.n
    for v in current:
        bits[v] = 1
    parity = _reference_parity(t, current)
    seen = {current}
    flips = []
    while True:
        flipped = []
        for v in order:
            unsat = sum(parity[c] for c in t.var_adj[v])
            if 2 * unsat > len(t.var_adj[v]):
                bits[v] ^= 1
                for c in t.var_adj[v]:
                    parity[c] ^= 1
                flipped.append(v)
        flips.append(tuple(flipped))
        current = tuple(v for v in range(t.n) if bits[v])
        status = _reference_status(flipped, current, seen, len(flips), max_iters)
        if status:
            return status, current, len(flips), tuple(flips)
