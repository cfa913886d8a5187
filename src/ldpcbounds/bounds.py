"""Closed-form and exhaustive bounds behind the guaranteed-correction results.

All rational quantities are exact :class:`fractions.Fraction` values; nothing
in this module rounds through floats. The Moore bound is evaluated for any
rational average degree ``d >= 1`` even though the correction theorem only
invokes it with ``d >= 2``; callers that care about the hypothesis (notably
:func:`bound_report`) surface ``hypothesis_ok`` instead of refusing to
evaluate, so gamma = 3 codes still get a stated, clearly flagged number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Union

Rational = Union[int, Fraction]

#: Exhaustive edge-count search is exponential in k; above this it is off-limits.
BRUTE_FORCE_MAX_NODES = 8


def _as_fraction(d: Rational, name: str) -> Fraction:
    if isinstance(d, float):
        raise ValueError(f"{name} must be an int or Fraction, not float, got {d!r}")
    return Fraction(d)


def _check_girth_arg(g: Union[int, float], minimum: int = 3) -> int:
    if g == math.inf:
        raise ValueError("girth argument must be finite")
    if not isinstance(g, int) or g < minimum:
        raise ValueError(f"girth argument must be an integer >= {minimum}, got {g!r}")
    return g


def _check_even_tanner_girth(girth: Union[int, float]) -> int:
    # girth/2 feeds the Moore machinery as a girth itself, so 6 is the floor
    girth = _check_girth_arg(girth, minimum=6)
    if girth % 2 != 0:
        raise ValueError(f"Tanner graph girth must be even, got {girth}")
    return girth


def moore_bound(d: Rational, g: int) -> Fraction:
    """Minimum node count of a graph with average degree ``d`` and girth ``g``.

    For odd ``g = 2r + 1`` this is ``1 + d * sum((d-1)^i, i=0..r-1)``; for
    even ``g = 2r`` it is ``2 * sum((d-1)^i, i=0..r-1)``. The count is exact
    and monotone in both arguments for ``d >= 1``, which is the accepted
    domain here; the correction theorem itself only relies on ``d >= 2``.
    With ``q = d - 1`` the sum is ``r`` when ``q = 1``, else
    ``(q^r - 1) / (q - 1)``, so the cost is one rational power.
    """
    d = _as_fraction(d, "average degree")
    g = _check_girth_arg(g)
    if d < 1:
        raise ValueError(f"average degree must be at least 1, got {d}")
    r = g // 2
    q = d - 1
    geometric = Fraction(r) if q == 1 else (q**r - 1) / (q - 1)
    if g % 2 == 1:
        return 1 + d * geometric
    return 2 * geometric


def cage_upper_bound(d: Rational, g: int) -> Fraction:
    """Known upper bound on the order of a ``(d, g)`` cage, ``d >= 2`` integral.

    Degree two is the cycle ``C_g`` itself, order ``g``. Degree three uses
    the ``(29/12) * 2^(g-2)`` record bounds; degree four and up uses the
    general ``2(d-1)^(g-2)`` (odd ``g``) and ``4(d-1)^(g-3)`` (even ``g``)
    construction bounds.
    """
    d = _as_fraction(d, "degree")
    g = _check_girth_arg(g)
    if d < 2 or d.denominator != 1:
        raise ValueError(f"cage degree must be an integer >= 2, got {d}")
    if d == 2:
        return Fraction(g)
    if d == 3:
        base = Fraction(29, 12) * 2 ** (g - 2)
        return (Fraction(4, 3) if g % 2 == 1 else Fraction(2, 3)) + base
    if g % 2 == 1:
        return 2 * (d - 1) ** (g - 2)
    return 4 * (d - 1) ** (g - 3)


def theorem_hypothesis_ok(gamma: int) -> bool:
    """Whether the correction theorem's degree hypothesis ``gamma / 2 >= 2`` holds."""
    return gamma >= 4


def guaranteed_correction_count(gamma: int, girth: Union[int, float]) -> int:
    """Largest error weight always corrected by bit flipping, from gamma and girth.

    Equals the largest integer strictly below ``n0(gamma/2, girth/2) / 2``
    where ``n0`` is :func:`moore_bound`. Strictness matters: when the
    half-Moore value lands on an integer, that weight itself is not covered.
    Requires ``gamma >= 3`` and a finite even girth >= 6; for gamma = 3 the
    value is formula-exact but outside the theorem hypothesis, see
    :func:`theorem_hypothesis_ok`.
    """
    if gamma < 3:
        raise ValueError(f"variable degree must be at least 3, got {gamma}")
    girth = _check_even_tanner_girth(girth)
    half = moore_bound(Fraction(gamma, 2), girth // 2) / 2
    return math.ceil(half) - 1


@dataclass(frozen=True)
class TrappingSetSizeBound:
    """Bracket on the smallest possible trapping set size for (gamma, girth).

    ``lower`` is the Moore bound on ``(ceil(gamma/2), girth/2)`` graphs;
    ``upper`` is the cage upper bound rounded down, or ``None`` when no
    finite construction bound applies; ``exact`` is the recorded cage order
    when the catalog has one, else ``None``.
    """

    lower: int
    upper: Union[int, None]
    exact: Union[int, None]


def trapping_set_size_bound(gamma: int, girth: Union[int, float]) -> TrappingSetSizeBound:
    """Size bracket for the smallest subset that can satisfy the trapping conditions.

    The witness construction is a ``(ceil(gamma/2), girth/2)`` cage run
    through the edge-vertex incidence and padded back to degree gamma, so
    the bracket is exactly the cage-order bracket for those parameters. For
    gamma = 2 the ceiling degree is 1, no cycle exists, and only the trivial
    lower bound of two variables is reported.
    """
    if gamma < 2:
        raise ValueError(f"variable degree must be at least 2, got {gamma}")
    girth = _check_even_tanner_girth(girth)
    d = (gamma + 1) // 2
    g_prime = girth // 2
    if d < 2:
        return TrappingSetSizeBound(lower=2, upper=None, exact=None)
    lower = math.ceil(moore_bound(d, g_prime))
    upper = math.floor(cage_upper_bound(d, g_prime))
    from . import cages

    entry = cages.cage(d, g_prime)
    exact = entry.order if isinstance(entry, cages.CageEntry) else None
    return TrappingSetSizeBound(lower=lower, upper=upper, exact=exact)


def max_edges_girth_bound(k: int, g: Union[int, float]) -> Fraction:
    """Upper bound on edges of a ``k``-node graph with girth at least ``g``.

    Inverts the Moore bound: bisects for the smallest average degree whose
    Moore count exceeds ``k`` (to denominator ``2**20``), so any such graph
    has average degree strictly below it and at most ``k * d / 2`` edges.
    Exact for forests (``k < g``: ``k - 1``).
    """
    if k < 1:
        raise ValueError(f"node count must be positive, got {k}")
    if g == math.inf:
        return Fraction(k - 1)
    g = _check_girth_arg(g)
    if k < g:
        return Fraction(k - 1)
    precision = 1 << 20
    lo = 2 * precision
    hi = k * precision
    if moore_bound(Fraction(hi, precision), g) <= k:
        raise AssertionError("bisection bracket failed; k-regular graph needs > k nodes")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if moore_bound(Fraction(mid, precision), g) <= k:
            lo = mid
        else:
            hi = mid
    return Fraction(k) * Fraction(hi, precision) / 2


def _bfs_within(adj: list[int], src: int, dst: int, cap: int) -> bool:
    """True if dst is within cap hops of src, over bitmask adjacency."""
    if src == dst:
        return True
    frontier = 1 << src
    seen = frontier
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


@lru_cache(maxsize=None)
def brute_force_f(k: int, g: Union[int, float]) -> int:
    """Exact maximum edge count of a ``k``-node graph with girth at least ``g``.

    Exhaustive branch-and-bound over edge subsets, independent of any Moore
    arithmetic: an edge ``(u, v)`` may be added only when the current
    distance from ``u`` to ``v`` exceeds ``g - 2``, so no cycle shorter than
    ``g`` ever appears. Limited to ``k <= BRUTE_FORCE_MAX_NODES``.

    The search stops early once it reaches the vertex-deletion ceiling:
    deleting any one vertex leaves a ``(k-1)``-node graph of girth at least
    ``g``, so summing ``e - deg(u) <= f(k-1)`` over all ``u`` gives
    ``(k - 2) e <= k f(k-1)``.

    Two shortcuts need no search. For ``k < g`` every such graph is a
    forest, so ``f = k - 1``. For ``g <= k < ceil(3g/2) - 1``, ``f = k``: a
    ``g``-cycle with a tree attached reaches it, and ``k + 1`` edges would
    force two independent cycles, either in two components (``2g`` nodes)
    or in one, which then holds a theta graph (three paths of lengths
    ``a, b, c`` between two nodes, pairwise sums ``>= g``, so
    ``a + b + c - 1 >= ceil(3g/2) - 1`` nodes) or two cycles sharing at most
    one node (``>= 2g - 1`` nodes).
    """
    if k < 1:
        raise ValueError(f"node count must be positive, got {k}")
    if k > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"exhaustive search is limited to k <= {BRUTE_FORCE_MAX_NODES}, got {k}"
        )
    if g != math.inf:
        g = _check_girth_arg(g)
    if g == math.inf or k < g:
        return k - 1
    if k < (3 * g + 1) // 2 - 1:
        return k
    # Bipartite-style pairs first: dense girth-constrained graphs put their
    # edges across a balanced split, so good solutions appear early and the
    # count-based prune bites sooner.
    half = k // 2
    bipartite = [(u, v) for u in range(half) for v in range(half, k)]
    rest = [e for e in combinations(range(k), 2) if e not in set(bipartite)]
    order = bipartite + rest
    total = len(order)
    best = k - 1
    ceiling = k * brute_force_f(k - 1, g) // (k - 2)
    adj = [0] * k

    def extend(index: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if index == total or count + (total - index) <= best or best >= ceiling:
            return
        u, v = order[index]
        if not _bfs_within(adj, u, v, g - 2):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            extend(index + 1, count + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        extend(index + 1, count)

    extend(0, 0)
    return best


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound for one (gamma, girth) pair, plus hypothesis status."""

    gamma: int
    girth: int
    moore_n0: Fraction
    guaranteed_correction: int
    trapping_set_size: TrappingSetSizeBound
    hypothesis_ok: bool


def bound_report(gamma: int, girth: Union[int, float]) -> BoundReport:
    """Bundle the correction and trapping-set bounds for one parameter pair.

    ``hypothesis_ok`` is False for gamma = 3: the numbers are still the
    formula values, but the correction guarantee is not backed by the
    theorem there.
    """
    if gamma < 3:
        raise ValueError(f"variable degree must be at least 3, got {gamma}")
    girth = _check_even_tanner_girth(girth)
    return BoundReport(
        gamma=gamma,
        girth=girth,
        moore_n0=moore_bound(Fraction(gamma, 2), girth // 2),
        guaranteed_correction=guaranteed_correction_count(gamma, girth),
        trapping_set_size=trapping_set_size_bound(gamma, girth),
        hypothesis_ok=theorem_hypothesis_ok(gamma),
    )
