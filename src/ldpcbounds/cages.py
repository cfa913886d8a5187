"""Catalog of small cage graphs and the constructive trapping-set gadget.

The catalog stores the known minimal d-regular girth-g graphs that the size
bounds actually consult: cycles (any girth, synthesized), K4, K_{3,3},
Petersen, Heawood, McGee, Tutte-Coxeter, and the 19-node 4-regular
girth-5 graph. Minimality is taken from the literature; regularity, girth
and the Moore/upper-bound bracket are re-verified here every load, so a
corrupted entry cannot go unnoticed.

The gadget construction turns a cage into the smallest subset that can trap
the bit-flipping decoders: take the (ceil(gamma/2), g') cage, subdivide every
edge into a degree-two check, and pad each variable back up to degree gamma
with pendant checks. Inside the subset every variable then has exactly
ceil(gamma/2) even checks, the tightest arrangement condition (a) allows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .bounds import cage_upper_bound, moore_bound
from .graphs import (
    Graph,
    TannerGraph,
    build_tanner_graph,
    complete_graph,
    cycle_graph,
    girth,
)
from .transforms import augmented_graph, edge_vertex_incidence


@dataclass(frozen=True)
class CageEntry:
    d: int
    g: int
    order: int
    graph: Graph
    certified: bool


@dataclass(frozen=True)
class UnknownCage:
    """Parameters outside the catalog; the true cage order lies in [lower, upper]."""

    d: int
    g: int
    lower: int
    upper: int


@dataclass(frozen=True)
class CageCertificate:
    regular: bool
    girth_ok: bool
    within_bounds: bool

    @property
    def all_ok(self) -> bool:
        return self.regular and self.girth_ok and self.within_bounds


def _lcf_graph(jumps: Sequence[int], repeats: int, n: int) -> Graph:
    """Hamiltonian cycle plus the chords given in LCF notation."""
    sequence = list(jumps) * repeats
    if len(sequence) != n:
        raise ValueError(f"LCF sequence covers {len(sequence)} nodes, graph has {n}")
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    for i, jump in enumerate(sequence):
        edges.add(tuple(sorted((i, (i + jump) % n))))
    return Graph.from_edges(n, sorted(edges))


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def _complete_bipartite_33() -> Graph:
    return Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])


# 4-regular girth-5 graph on 19 nodes in LCF form (unique graph of its kind).
_ORDER_19_JUMPS = (8, 4, 7, 4, 8, 5, 7, 4, 7, 8, 4, 5, 7, 8, 4, 8, 4, 8, 4)


def verify_cage_candidate(g: Graph, d: int, girth_target: int) -> CageCertificate:
    """Necessary cage conditions: d-regular, exact girth, order within the bracket.

    Minimality is never asserted; a graph can pass all three checks without
    being a cage.
    """
    regular = g.n > 0 and all(g.degree(u) == d for u in range(g.n))
    girth_ok = girth(g) == girth_target
    try:
        within = moore_bound(d, girth_target) <= g.n <= cage_upper_bound(d, girth_target)
    except ValueError:
        within = False
    return CageCertificate(regular=regular, girth_ok=girth_ok, within_bounds=within)


def _certified(d: int, g: int, graph: Graph) -> CageEntry:
    cert = verify_cage_candidate(graph, d, g)
    if not cert.all_ok:
        raise RuntimeError(
            f"catalog entry ({d}, {g}) failed its load-time certificate: {cert}"
        )
    return CageEntry(d=d, g=g, order=graph.n, graph=graph, certified=True)


@lru_cache(maxsize=None)
def _catalog() -> dict[tuple[int, int], CageEntry]:
    entries = {
        (3, 3): complete_graph(4),
        (3, 4): _complete_bipartite_33(),
        (3, 5): _petersen(),
        (3, 6): _lcf_graph((5, -5), 7, 14),
        (3, 7): _lcf_graph((12, 7, -7), 8, 24),
        (3, 8): _lcf_graph((-13, -9, 7, -7, 9, 13), 5, 30),
        (4, 5): _lcf_graph(_ORDER_19_JUMPS, 1, 19),
    }
    return {key: _certified(key[0], key[1], graph) for key, graph in entries.items()}


@lru_cache(maxsize=None)
def _cycle_entry(g: int) -> CageEntry:
    return _certified(2, g, cycle_graph(g))


def cage(d: int, g: int) -> Union[CageEntry, UnknownCage]:
    """Look up the (d, g) cage; cycles are synthesized, the rest come from the catalog.

    Outside the catalog the result is an :class:`UnknownCage` carrying the
    Moore/upper-bound bracket on the true order. Degrees below two admit no
    cycles at all and are rejected.
    """
    if d < 2:
        raise ValueError(f"no {d}-regular graph contains a cycle; cage undefined")
    if g < 3 or g == math.inf:
        raise ValueError(f"cage girth must be a finite integer >= 3, got {g}")
    if d == 2:
        return _cycle_entry(g)
    entry = _catalog().get((d, g))
    if entry is not None:
        return entry
    return UnknownCage(
        d=d,
        g=g,
        lower=math.ceil(moore_bound(d, g)),
        upper=math.floor(cage_upper_bound(d, g)),
    )


@dataclass(frozen=True)
class Gadget:
    """A Tanner graph with a designated subset and its (a, b) signature.

    ``a`` is the subset size, ``b`` the number of odd-degree induced checks.
    """

    graph: TannerGraph
    subset: tuple[int, ...]
    a: int
    b: int


def build_gadget(gamma: int, g_prime: int) -> Gadget:
    """Smallest potential trapping set achievable at girth ``2 * g_prime``.

    Augments the edge-vertex incidence of the ``(ceil(gamma/2), g_prime)``
    cage to left degree gamma. The designated subset is all variables; its
    size equals the cage order, which is exactly the structural size bound.
    Raises when the cage is not in the catalog, quoting the order bracket.
    """
    # analysis is needed only by the gadget checks, so cage lookups skip it
    from .analysis import classify_subset, is_potential_trapping_set

    if gamma < 2:
        raise ValueError(f"variable degree must be at least 2, got {gamma}")
    d = (gamma + 1) // 2
    if d < 2:
        raise ValueError(
            f"gamma={gamma} needs a degree-{d} cage, which does not exist"
        )
    entry = cage(d, g_prime)
    if isinstance(entry, UnknownCage):
        raise ValueError(
            f"no catalog cage for degree {d}, girth {g_prime}; "
            f"its order lies in [{entry.lower}, {entry.upper}]"
        )
    t = augmented_graph(edge_vertex_incidence(entry.graph), gamma)
    subset = tuple(range(entry.order))
    if t.gamma != gamma or girth(t) < 2 * g_prime or not is_potential_trapping_set(t, subset):
        raise RuntimeError(f"gadget postcondition failed for gamma={gamma}, g_prime={g_prime}")
    report = classify_subset(t, subset)
    return Gadget(graph=t, subset=subset, a=report.signature[0], b=report.signature[1])


def _pick_merge_targets(
    host: TannerGraph, count: int, rng: random.Random
) -> Union[list[int], None]:
    # distinct targets each gain induced degree one (odd); condition (b)
    # then says no host variable may neighbour more than floor(deg/2) of them,
    # so greedily accept checks that keep every variable's hit count in budget
    order = list(range(host.m))
    rng.shuffle(order)
    hits = [0] * host.n
    targets = []
    for c in order:
        if all(hits[u] < host.var_degree(u) // 2 for u in host.check_adj[c]):
            targets.append(c)
            for u in host.check_adj[c]:
                hits[u] += 1
            if len(targets) == count:
                return targets
    return None


def embed_gadget(
    host: TannerGraph,
    gadget: Gadget,
    seed: int = 0,
    merge_targets: Union[Sequence[int], None] = None,
    max_tries: int = 200,
) -> Gadget:
    """Plant the gadget in a host code so its subset actually traps the decoders.

    The gadget's variables and even checks are appended to the host; each
    pendant check is merged into a host check instead of being kept. The
    default strategy samples distinct host checks (seeded, deterministic)
    until no host variable would neighbour more than ``floor(gamma/2)`` of
    them, which is precisely condition (b). Passing ``merge_targets``
    overrides the strategy verbatim, feasible or not, which is how a
    deliberately broken embedding is produced for testing; in that case the
    returned subset may not be a trapping set.

    An empty host returns the gadget unchanged: with no outside variables,
    condition (b) is vacuous and the standalone gadget already traps.
    """
    from .analysis import classify_subset

    if host.n == 0 and host.m == 0:
        return gadget
    inner = gadget.graph
    if host.gamma is None or host.gamma != inner.gamma:
        raise ValueError(
            f"host left degree {host.gamma} does not match gadget left degree {inner.gamma}"
        )
    pendant = [c for c in range(inner.m) if inner.check_degree(c) == 1]
    kept = [c for c in range(inner.m) if inner.check_degree(c) >= 2]
    if len(pendant) > host.m:
        raise ValueError(
            f"gadget needs {len(pendant)} merge checks, host only has {host.m}"
        )
    kept_relabel = {c: host.m + i for i, c in enumerate(kept)}

    def assemble(targets: Sequence[int]) -> TannerGraph:
        edges = list(host.edges())
        for v, c in inner.edges():
            if c in kept_relabel:
                edges.append((host.n + v, kept_relabel[c]))
        for p, target in zip(pendant, targets):
            edges.append((host.n + inner.check_adj[p][0], target))
        return build_tanner_graph(edges, n=host.n + inner.n, m=host.m + len(kept))

    subset = tuple(host.n + v for v in gadget.subset)
    if merge_targets is not None:
        targets = list(merge_targets)
        if len(targets) != len(pendant):
            raise ValueError(
                f"expected {len(pendant)} merge targets, got {len(targets)}"
            )
        if any(not 0 <= c < host.m for c in targets):
            raise ValueError("merge target out of host check range")
        embedded = assemble(targets)
        report = classify_subset(embedded, subset)
        return Gadget(graph=embedded, subset=subset, a=report.signature[0], b=report.signature[1])
    rng = random.Random(seed)
    for _ in range(max_tries):
        targets = _pick_merge_targets(host, len(pendant), rng)
        if targets is None:
            continue
        embedded = assemble(targets)
        report = classify_subset(embedded, subset)
        if not report.is_trapping:
            raise RuntimeError("feasible merge produced a non-trapping subset; logic bug")
        return Gadget(graph=embedded, subset=subset, a=report.signature[0], b=report.signature[1])
    raise ValueError(
        f"no feasible merge found in {max_tries} attempts; host too small or dense"
    )
