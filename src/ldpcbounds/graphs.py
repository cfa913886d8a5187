"""Graph and Tanner-graph primitives: construction, degrees, the one cycle search.

Graphs are frozen dataclasses over tuples, immutable once built, with
adjacency lists kept sorted so iteration order is deterministic. Variables
and checks are 0-indexed throughout; the alist file format's 1-indexing is
translated at the I/O boundary only.

The girth of an acyclic graph is reported as ``math.inf`` so that
comparisons like ``girth(g) >= 8`` stay meaningful without a sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union


class GraphError(ValueError):
    """Invalid graph construction input (bad index, self-loop, parallel edge)."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    ``adj[u]`` is the sorted tuple of neighbours of ``u``.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list.

        Rejects out-of-range endpoints, self-loops and parallel edges with a
        :class:`GraphError` naming the offending edge.
        """
        if n < 0:
            raise GraphError(f"node count must be nonnegative, got {n}")
        lists: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} nodes")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"parallel edge {key}")
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        return cls(n, tuple(tuple(sorted(nbrs)) for nbrs in lists))

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def average_degree(self) -> Fraction:
        """Exact average degree ``2|E| / n`` as a :class:`Fraction`."""
        if self.n == 0:
            raise GraphError("average degree is undefined for the empty graph")
        return Fraction(2 * self.edge_count, self.n)

    @cached_property
    def _girth(self) -> Union[int, float]:
        from .transforms import edge_vertex_incidence  # doubles every cycle's length

        doubled = girth(edge_vertex_incidence(self))
        return doubled if doubled == math.inf else doubled // 2


def set_bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite variable/check adjacency of a binary linear code.

    ``gamma`` is the common variable degree when every variable has the same
    nonzero degree, else ``None``; ``rho`` likewise for checks. Both are
    detected at construction time, never trusted from input.
    """

    n: int
    m: int
    var_adj: tuple[tuple[int, ...], ...]
    check_adj: tuple[tuple[int, ...], ...]
    gamma: Union[int, None]
    rho: Union[int, None]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.var_adj)

    def var_degree(self, v: int) -> int:
        return len(self.var_adj[v])

    def check_degree(self, c: int) -> int:
        return len(self.check_adj[c])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ``(variable, check)`` in lexicographic order."""
        for v in range(self.n):
            for c in self.var_adj[v]:
                yield (v, c)

    @cached_property
    def var_masks(self) -> tuple[int, ...]:
        """Per-variable check neighbourhood as a bitmask (bit ``c`` set iff edge ``(v, c)``)."""
        return tuple(sum(1 << c for c in nbrs) for nbrs in self.var_adj)

    @cached_property
    def var_reach(self) -> tuple[int, ...]:
        """Per-variable bitmask of the variables sharing a check with it, itself included.

        Bit ``u`` of ``var_reach[v]`` is set iff ``u == v`` or some check is
        adjacent to both. A check is unsatisfied only if it holds an error, so
        only variables within reach of an error can see an unsatisfied check;
        the decoders look at no others.
        """
        check_masks = [sum(1 << v for v in vs) for vs in self.check_adj]
        reach = []
        for v, nbrs in enumerate(self.var_adj):
            mask = 1 << v
            for c in nbrs:
                mask |= check_masks[c]
            reach.append(mask)
        return tuple(reach)

    def as_graph(self) -> Graph:
        """Flatten to a simple graph: variables are ``0..n-1``, checks are ``n..n+m-1``."""
        adj = [tuple(c + self.n for c in self.var_adj[v]) for v in range(self.n)]
        adj += [self.check_adj[c] for c in range(self.m)]
        return Graph(self.n + self.m, tuple(adj))

    @cached_property
    def _girth(self) -> Union[int, float]:
        if self.m < self.n:
            return _bipartite_girth(self.check_adj, self.var_adj)
        return _bipartite_girth(self.var_adj, self.check_adj)


def build_tanner_graph(
    edges: Iterable[tuple[int, int]],
    n: Union[int, None] = None,
    m: Union[int, None] = None,
) -> TannerGraph:
    """Build a Tanner graph from ``(variable, check)`` edge pairs.

    ``n`` and ``m`` default to one past the largest index seen on each side;
    pass them explicitly to keep isolated trailing nodes. Duplicate edges and
    out-of-range indices raise :class:`GraphError` naming the pair.
    """
    pairs = list(edges)
    for v, c in pairs:
        if v < 0 or c < 0:
            raise GraphError(f"negative index in edge ({v}, {c})")
    inferred_n = 1 + max((v for v, _ in pairs), default=-1)
    inferred_m = 1 + max((c for _, c in pairs), default=-1)
    if n is None:
        n = inferred_n
    if m is None:
        m = inferred_m
    if inferred_n > n or inferred_m > m:
        raise GraphError(
            f"edge indices need at least {inferred_n} variables and {inferred_m} checks, "
            f"got n={n}, m={m}"
        )
    var_lists: list[list[int]] = [[] for _ in range(n)]
    check_lists: list[list[int]] = [[] for _ in range(m)]
    seen: set[tuple[int, int]] = set()
    for v, c in pairs:
        if (v, c) in seen:
            raise GraphError(f"duplicate edge ({v}, {c})")
        seen.add((v, c))
        var_lists[v].append(c)
        check_lists[c].append(v)
    var_adj = tuple(tuple(sorted(nbrs)) for nbrs in var_lists)
    check_adj = tuple(tuple(sorted(nbrs)) for nbrs in check_lists)
    var_degrees = {len(nbrs) for nbrs in var_adj}
    check_degrees = {len(nbrs) for nbrs in check_adj}
    gamma = var_degrees.pop() if len(var_degrees) == 1 else None
    gamma = gamma if gamma else None
    rho = check_degrees.pop() if len(check_degrees) == 1 else None
    rho = rho if rho else None
    return TannerGraph(n, m, var_adj, check_adj, gamma, rho)


def girth(g: Union[Graph, TannerGraph]) -> Union[int, float]:
    """Length of a shortest cycle, or ``math.inf`` for acyclic graphs.

    Computed on the first call for a graph and kept on that graph object:
    graphs are immutable, so the value cannot go stale, and it is freed with
    the graph.
    """
    return g._girth


def short_cycle(near, far, roots, below) -> Union[list[tuple[int, int]], None]:
    """The first cycle shorter than ``below`` that a breadth-first search from ``roots`` meets.

    ``near`` and ``far`` are a bipartite graph's two sides' adjacency as the
    caller holds it (tuples or live sets), with the roots on the ``near``
    side; its iteration order decides the cycle found. The first non-tree
    edge ``(u, w)`` met with ``dist[u] + dist[w] + 1 < below`` (``below`` may
    be ``math.inf``) gives the cycle it closes, as ``(near, far)`` edges from
    ``u`` up both tree paths. A search from a node on such a cycle always
    meets one, so ``None`` means none passes through a root. Each search
    resets only the nodes it reached.
    """
    adj = (near, far)
    dist = ([-1] * len(near), [-1] * len(far))
    parent = ([-1] * len(near), [-1] * len(far))
    for root in roots:
        dist[0][root] = 0
        parent[0][root] = -1
        layers = [[root]]
        du = 0
        # du < below // 2, but math.inf // 2 is nan; even depths are on the near side
        while layers[-1] and 2 * du + 1 < below:
            side = du & 1
            nbrs, up = adj[side], parent[side]
            dist_w, parent_w = dist[side ^ 1], parent[side ^ 1]
            nxt = []
            for u in layers[-1]:
                pu = up[u]
                for w in nbrs[u]:
                    if w == pu:
                        continue
                    dw = dist_w[w]
                    if dw < 0:
                        dist_w[w] = du + 1
                        parent_w[w] = u
                        nxt.append(w)
                    elif du + dw + 1 < below:
                        return _tree_cycle(parent, (u, du), (w, dw))
            layers.append(nxt)
            du += 1
        for d, layer in enumerate(layers):
            reset = dist[d & 1]
            for x in layer:
                reset[x] = -1
    return None


def _tree_cycle(parent, end_u, end_w) -> list[tuple[int, int]]:
    """The cycle that the non-tree edge between two ``(node, depth)`` ends closes, as edges."""
    xs, ys = [end_u], [end_w]
    while xs[-1] != ys[-1]:
        (x, dx), (y, dy) = xs[-1], ys[-1]
        if dx >= dy:
            xs.append((parent[dx & 1][x], dx - 1))
        else:
            ys.append((parent[dy & 1][y], dy - 1))
    nodes = xs + ys[-2::-1] + [end_u]
    return [(a, b) if da & 1 == 0 else (b, a) for (a, da), (b, _) in zip(nodes, nodes[1:])]


def _bipartite_girth(near, far) -> Union[int, float]:
    """Girth of a bipartite graph, by :func:`short_cycle` from roots on the ``near`` side.

    Every cycle alternates sides, so either side may be ``near``. A root is
    searched again below each hit's length until it closes nothing shorter,
    then deleted, as is every node left with under two live neighbours (on
    no remaining cycle); searches still span the whole graph, so it is exact.
    """
    adj = (near, far)
    live = ([len(x) for x in near], [len(x) for x in far])

    def peel(doomed):
        while doomed:
            side, x = doomed.pop()
            live[side][x] = 0
            other = live[side ^ 1]
            for y in adj[side][x]:
                if other[y] >= 2:
                    other[y] -= 1
                    if other[y] < 2:
                        doomed.append((side ^ 1, y))

    def live_roots(first):
        # a hit abandons this at its yield, leaving ``root`` for the next call
        nonlocal root
        for root in range(first, len(near)):
            if live[0][root] >= 2:
                yield root
                peel([(0, root)])

    peel([(side, x) for side in (0, 1) for x, d in enumerate(live[side]) if d < 2])
    root = 0
    best: Union[int, float] = math.inf
    while (cycle := short_cycle(near, far, live_roots(root), best)) is not None:
        best = len(cycle)
    return best


@dataclass(frozen=True)
class CheckPartition:
    """Checks adjacent to a variable subset, split by induced degree parity.

    ``even`` and ``odd`` partition the neighbourhood; ``pendant`` is the
    subset of ``odd`` with induced degree exactly one. ``induced_edge_count``
    is the number of edges between the subset and its neighbourhood, i.e. the
    sum of the subset's variable degrees.
    """

    even: tuple[int, ...]
    odd: tuple[int, ...]
    pendant: tuple[int, ...]
    induced_edge_count: int

    @property
    def neighbor_count(self) -> int:
        return len(self.even) + len(self.odd)


def check_parity_masks(t: TannerGraph, subset: Iterable[int]) -> tuple[int, int, int]:
    """``(even, odd, pendant)``: the checks a variable subset meets, as bitmasks.

    Bit ``c`` is set in ``even`` when check ``c`` meets the subset an even,
    nonzero number of times, in ``odd`` when an odd number of times, and in
    ``pendant`` when exactly once. The subset's members are taken as
    valid, distinct variables.
    """
    masks = t.var_masks
    odd = present = twice = 0
    for v in subset:
        m = masks[v]
        twice |= present & m
        present |= m
        odd ^= m
    return present & ~odd, odd, present & ~twice


def induced_check_partition(t: TannerGraph, subset: Iterable[int]) -> CheckPartition:
    """Classify the check neighbourhood of a nonempty variable subset by parity."""
    return parity_partition(t, subset)[0]


def parity_partition(t: TannerGraph, subset: Iterable[int]) -> tuple[CheckPartition, int, int]:
    """:func:`induced_check_partition` and the ``even`` and ``odd`` masks it is built from."""
    s = sorted(set(subset))
    if not s:
        raise ValueError("variable subset must be nonempty")
    if s[0] < 0 or s[-1] >= t.n:
        raise ValueError(f"variable index out of range in subset: {s[0] if s[0] < 0 else s[-1]}")
    even, odd, pendant = check_parity_masks(t, s)
    edges = sum(t.var_masks[v].bit_count() for v in s)
    return CheckPartition(set_bits(even), set_bits(odd), set_bits(pendant), edges), even, odd


def cycle_graph(length: int) -> Graph:
    """The cycle ``C_length``; needs at least three nodes to be simple."""
    if length < 3:
        raise GraphError(f"cycle needs at least 3 nodes, got {length}")
    return Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def complete_graph(k: int) -> Graph:
    """The complete graph ``K_k``."""
    if k < 0:
        raise GraphError(f"node count must be nonnegative, got {k}")
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
