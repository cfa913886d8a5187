"""Independent oracles and corpus builders shared by the tests.

The girth oracle here intentionally uses a different algorithm from the
library (per-edge deletion plus shortest path, versus per-node BFS cycle
detection), so the two can disagree only if one of them is wrong.
``reference_edge_cycle_ok`` is the generator's edge predicate as one
breadth-first search of full radius ``target - 2`` from the variable end;
``reference_find_short_cycle`` is the girth repair's scan for a short cycle
witness, with dict tables, checks numbered after the variables, and the
cycle rebuilt through parents. Neither imports ``ldpcbounds.codegen`` or
the cycle search in ``ldpcbounds.graphs``.

The reference decoders are the straightforward bit-flipping loops, one per
schedule: they recompute the parity of every check and scan every variable
each round, and share no code with ``ldpcbounds.decoder``. Their results are
plain tuples ``(status, final_support, rounds, flips_per_round)`` with the
status spelled as the library's ``DecodeStatus`` values; ``reference_sweep``
runs them over every pattern of one weight.

The subset oracles walk ``itertools.combinations`` in (size, lexicographic)
order, as the library did before it walked connected subsets only:
``connected_subsets`` filters them by networkx connectivity of the
share-a-check graph, and the reference certificate and trapping-set search
visit every subset and test the trapping conditions from their definitions.
``reference_subset_report`` states every field of a subset's
classification per check and per variable. None of them imports
``ldpcbounds.analysis``. ``reference_brute_force_f``
is the extremal edge count without the vertex-deletion ceiling or the
cycle-count shortcut. ``reference_moore_bound`` sums the Moore bound's
geometric series term by term, where the library uses its closed form.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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


def reference_edge_cycle_ok(var_adj, check_adj, n, v, c, target):
    """Oracle: True when edge (v, c) lies on no cycle shorter than target.

    One search from v out to depth target - 1 that never uses the edge
    itself; variables are ``0..n-1`` and check ``j`` is node ``n + j``.
    """
    limit = target - 2
    dist = {v: 0}
    frontier = [v]
    depth = 0
    while frontier and depth <= limit:
        depth += 1
        nxt = []
        for u in frontier:
            if u < n:
                for j in var_adj[u]:
                    if u == v and j == c:
                        continue
                    w = n + j
                    if w not in dist:
                        if j == c:
                            return depth >= target - 1
                        dist[w] = depth
                        nxt.append(w)
            else:
                for i in check_adj[u - n]:
                    if i not in dist:
                        dist[i] = depth
                        nxt.append(i)
        frontier = nxt
    return True


def reference_find_short_cycle(var_adj, check_adj, n, target, start=0):
    """Oracle: any cycle shorter than target, as a list of (var, check) edges.

    Breadth-first search from each variable in turn, starting at ``start``
    and wrapping (checks sit at odd depth, offset by n); a met frontier
    closes a cycle, rebuilt through parents up to the divergence point.
    """
    depth_cap = target // 2
    for offset in range(n):
        s = (start + offset) % n
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        depth = 0
        while frontier and depth < depth_cap:
            depth += 1
            nxt = []
            for u in frontier:
                nbrs = var_adj[u] if u < n else check_adj[u - n]
                for raw in nbrs:
                    w = raw + n if u < n else raw
                    if w == parent[u]:
                        continue
                    if w in dist:
                        if dist[u] + dist[w] + 1 < target:
                            path_u, path_w = [u], [w]
                            x, y = u, w
                            while x != y:
                                if dist[x] >= dist[y]:
                                    x = parent[x]
                                    path_u.append(x)
                                else:
                                    y = parent[y]
                                    path_w.append(y)
                            nodes = path_u + path_w[::-1][1:]
                            nodes.append(u)
                            edges = []
                            for a, b in zip(nodes, nodes[1:]):
                                if a < n:
                                    edges.append((a, b - n))
                                else:
                                    edges.append((b, a - n))
                            return edges
                    else:
                        dist[w] = depth
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
    return None


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


def reference_sweep(t: TannerGraph, weight: int, algorithm: str, max_iters=None):
    """Oracle: decode every weight-``weight`` support with the reference decoders.

    Returns ``(patterns_checked, failures, status_counts, rounds_histogram)``:
    the uncorrected supports in lexicographic order, the patterns per status
    (every status, in the library's declaration order) and per round count.
    """
    decode = reference_decode_parallel if algorithm == "parallel" else reference_decode_serial
    statuses = dict.fromkeys(("corrected", "fixed_point", "oscillation", "max_iters"), 0)
    rounds = Counter()
    failures = []
    for support in combinations(range(t.n), weight):
        status, _, taken, _ = decode(t, support, max_iters)
        statuses[status] += 1
        rounds[taken] += 1
        if status != "corrected":
            failures.append(support)
    return sum(statuses.values()), tuple(failures), statuses, dict(sorted(rounds.items()))

def share_a_check_graph(t: TannerGraph):
    """networkx graph on the variables, two joined when they share a check."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(t.n))
    for adj in t.check_adj:
        out.add_edges_from(combinations(adj, 2))
    return out


def connected_subsets(t: TannerGraph, k: int) -> list[tuple[int, ...]]:
    """Oracle: the k-subsets of variables, in lexicographic order, that share-a-check links connect."""
    import networkx as nx

    linked = share_a_check_graph(t)
    return [s for s in combinations(range(t.n), k) if nx.is_connected(linked.subgraph(s))]


def connected_counts(t: TannerGraph, max_size: int) -> list[int]:
    """Oracle: the number of connected variable subsets of each size ``1..max_size``."""
    return [len(connected_subsets(t, k)) for k in range(1, max_size + 1)]


def reference_certificate(t: TannerGraph, max_size: int, threshold: Fraction):
    """Oracle: ``(worst_subset, worst_expansion, passed)`` over every subset of size <= max_size.

    The worst subset is the first minimiser of ``|N(S)|/|S|`` in (size,
    lexicographic) order; ``passed`` says every ratio exceeds ``threshold``.
    """
    worst_subset, worst, passed = (), None, True
    for k in range(1, min(max_size, t.n) + 1):
        for s in combinations(range(t.n), k):
            ratio = Fraction(len({c for v in s for c in t.var_adj[v]}), k)
            if worst is None or ratio < worst:
                worst_subset, worst = s, ratio
            if ratio <= threshold:
                passed = False
    return worst_subset, worst, passed


def reference_subset_report(t: TannerGraph, subset) -> dict:
    """Oracle: the fields of ``classify_subset``, each computed from its definition.

    ``partition`` is ``(even, odd, pendant, induced_edge_count)``: a check
    is even, odd or pendant when the subset meets it an even nonzero
    number of times, an odd number of times, or exactly once. Condition
    (a): every member sees at least half its checks even; condition (b):
    no outside variable sees more than half its checks odd. The witness is
    the violator of (b) whose lowest odd check is lowest, the lowest
    violator on ties.
    """
    s = tuple(sorted(set(subset)))
    meets = [sum(1 for v in s if c in t.var_adj[v]) for c in range(t.m)]
    even = tuple(c for c in range(t.m) if meets[c] and meets[c] % 2 == 0)
    odd = tuple(c for c in range(t.m) if meets[c] % 2 == 1)
    pendant = tuple(c for c in range(t.m) if meets[c] == 1)

    def seen(v, checks):
        return sum(1 for c in t.var_adj[v] if c in checks)

    condition_a = all(2 * seen(v, even) >= len(t.var_adj[v]) for v in s)
    violators = [u for u in range(t.n)
                 if u not in s and 2 * seen(u, odd) > len(t.var_adj[u])]
    witness = min(violators, default=None,
                  key=lambda u: (min(c for c in t.var_adj[u] if c in odd), u))
    return {
        "subset": s,
        "partition": (even, odd, pendant, sum(meets)),
        "expansion": Fraction(len(even) + len(odd), len(s)),
        "signature": (len(s), len(odd)),
        "condition_a": condition_a,
        "condition_b": witness is None,
        "condition_b_witness": witness,
        "is_trapping": condition_a and witness is None,
    }


def _reference_traps(t: TannerGraph, s, potential_only: bool) -> bool:
    induced = Counter(c for v in s for c in t.var_adj[v])
    for v in s:
        even = sum(1 for c in t.var_adj[v] if induced[c] % 2 == 0)
        if 2 * even < len(t.var_adj[v]):
            return False
    if potential_only:
        return True
    inside = set(s)
    for u in range(t.n):
        odd = sum(1 for c in t.var_adj[u] if induced[c] % 2 == 1)
        if u not in inside and 2 * odd > len(t.var_adj[u]):
            return False
    return True


def reference_trapping_search(t: TannerGraph, max_size: int, potential_only: bool = False):
    """Oracle: ``(subset, signature, sizes_completed)`` of the first hit in (size, lex) order.

    Condition (a), at least half of each inside variable's checks have even
    induced degree, and condition (b), at most half of each outside
    variable's checks have odd induced degree, are tested as stated. With no
    hit the subset and signature are ``None``.
    """
    top = min(max_size, t.n)
    for k in range(1, top + 1):
        for s in combinations(range(t.n), k):
            if _reference_traps(t, s, potential_only):
                induced = Counter(c for v in s for c in t.var_adj[v])
                odd = sum(1 for d in induced.values() if d % 2 == 1)
                return s, (k, odd), k - 1
    return None, None, top


def _reference_within(adj: list[int], src: int, dst: int, cap: int) -> bool:
    """True if dst is within cap hops of src, over bitmask adjacency."""
    frontier = seen = 1 << src
    for _ in range(cap):
        frontier = 0
        for u in range(len(adj)):
            if seen >> u & 1:
                frontier |= adj[u]
        frontier &= ~seen
        if frontier >> dst & 1:
            return True
        if not frontier:
            return False
        seen |= frontier
    return False


def reference_brute_force_f(k: int, g: int) -> int:
    """Oracle: most edges of a k-node graph with girth at least g, by plain branch-and-bound.

    An edge is added only when its ends are more than ``g - 2`` hops apart;
    the only pruning is the count of edges still to be tried.
    """
    if k < g:
        return k - 1
    half = k // 2
    bipartite = [(u, v) for u in range(half) for v in range(half, k)]
    order = bipartite + [e for e in combinations(range(k), 2) if e not in set(bipartite)]
    best = k - 1
    adj = [0] * k

    def extend(index: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if index == len(order) or count + len(order) - index <= best:
            return
        u, v = order[index]
        if not _reference_within(adj, u, v, g - 2):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            extend(index + 1, count + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        extend(index + 1, count)

    extend(0, 0)
    return best


def reference_moore_bound(d, g: int) -> Fraction:
    """Oracle: the Moore bound with its geometric series summed term by term."""
    d = Fraction(d)
    r = g // 2
    geometric = sum((d - 1) ** i for i in range(r))
    if g % 2 == 1:
        return 1 + d * geometric
    return 2 * geometric
