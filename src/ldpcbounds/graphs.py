"""Simple-graph and Tanner-graph primitives: construction, degrees, girth.

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
        return _shortest_cycle(self, range(self.n))


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
        # every cycle alternates sides, so roots on the smaller side suffice
        smaller = range(self.n, self.n + self.m) if self.m < self.n else range(self.n)
        return _shortest_cycle(self.as_graph(), smaller)


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


def _shortest_cycle(g: Graph, roots: Iterable[int]) -> Union[int, float]:
    """Girth by a breadth-first search from each of ``roots``.

    A non-tree edge ``(u, w)`` seen while expanding ``u`` closes a walk
    through the root that holds a cycle of length at most
    ``dist[u] + dist[w] + 1``, and a search from a node on a shortest cycle
    finds exactly its length. So the minimum over the roots is the girth
    whenever every cycle passes through a root: all nodes always qualify,
    and in a bipartite graph so does either side, since every cycle
    alternates sides. Each search stops as soon as its frontier is too deep
    to improve on the best cycle found so far, and resets only the nodes it
    reached.
    """
    best: Union[int, float] = math.inf
    adj = g.adj
    dist = [-1] * g.n
    parent = [-1] * g.n
    for root in roots:
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        # iterating a list while appending to it visits the appended items: a FIFO
        for u in queue:
            du = dist[u]
            if 2 * du >= best:
                break
            pu = parent[u]
            for w in adj[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != pu:
                    cycle = du + dw + 1
                    if cycle < best:
                        best = cycle
        for u in queue:
            dist[u] = -1
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
    s = sorted(set(subset))
    if not s:
        raise ValueError("variable subset must be nonempty")
    if s[0] < 0 or s[-1] >= t.n:
        raise ValueError(f"variable index out of range in subset: {s[0] if s[0] < 0 else s[-1]}")
    even, odd, pendant = check_parity_masks(t, s)
    edges = sum(t.var_masks[v].bit_count() for v in s)
    return CheckPartition(set_bits(even), set_bits(odd), set_bits(pendant), edges)


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
