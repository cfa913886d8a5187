"""Subset analysis: expansion certificates, lemma checks, trapping sets.

A subset S of variables traps the bit-flipping decoders exactly when

* (a) every variable in S has at least ``ceil(deg/2)`` neighbours among the
  checks with even induced degree, and
* (b) no variable outside S has more than ``floor(deg/2)`` neighbours among
  the checks with odd induced degree.

(a) makes every inside variable see at least as many satisfied as
unsatisfied checks under the indicator error pattern, (b) does the same for
outside variables, so together they hold iff the indicator pattern is a
decoder fixed point. The conditions are stated per variable degree so they
specialize to the usual gamma-regular form on left-regular graphs without
requiring regularity.

Trapping sets are not monotone under inclusion: a proper subset of a
trapping set typically violates (a), so searches enumerate every size from
scratch rather than pruning supersets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Union

from .bounds import brute_force_f, moore_bound
from .decoder import ErrorPattern, is_fixed_point
from .graphs import CheckPartition, TannerGraph, girth, induced_check_partition


class _SubsetWalk:
    """Variable subsets of sizes ``1..max_size``, sizes ascending, lexicographic within a size.

    Stops after ``budget`` subsets. The counters stay exact when a caller
    breaks out of the loop: ``visited`` includes the last subset handed out.
    """

    def __init__(self, n: int, max_size: int, budget: int):
        self.n = n
        self.max_size = max_size
        self.budget = budget
        self.visited = 0
        self.sizes_completed = 0
        self.complete = True

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for k in range(1, min(self.max_size, self.n) + 1):
            for subset in combinations(range(self.n), k):
                if self.visited >= self.budget:
                    self.complete = False
                    return
                self.visited += 1
                yield subset
            self.sizes_completed = k


def expansion(t: TannerGraph, subset: Iterable[int]) -> Fraction:
    """Neighbourhood expansion ``|N(S)| / |S|`` of a nonempty variable subset."""
    s = set(subset)
    part = induced_check_partition(t, s)
    return Fraction(part.neighbor_count, len(s))


@dataclass(frozen=True)
class ExpansionCertificate:
    """Exhaustive expansion audit of all small variable subsets.

    ``k_max_required`` is the largest subset size the theorem speaks about
    (the largest integer below the Moore bound for ``(gamma/2, girth/2)``);
    ``k_max_checked`` is the largest size actually completed within budget.
    ``passed`` covers every subset visited, including any partially
    enumerated size.
    """

    gamma: int
    girth: int
    threshold: Fraction
    k_max_required: int
    k_max_checked: int
    subsets_checked: int
    worst_subset: tuple[int, ...]
    worst_expansion: Union[Fraction, None]
    passed: bool
    complete: bool


def verify_main_theorem(
    t: TannerGraph,
    threshold: Union[Fraction, None] = None,
    budget: int = 2_000_000,
) -> ExpansionCertificate:
    """Check ``|N(S)| > (3 gamma / 4) |S|`` for every subset the theorem covers.

    Enumerates all subsets of each size ``k < moore_bound(gamma/2, girth/2)``
    in lexicographic order, sizes ascending. This inequality is a theorem
    for left-regular simple Tanner graphs of the stated girth, so a failed
    certificate on such a graph indicates a bug or a malformed input; the
    worst subset is reported either way. ``budget`` caps the number of
    subsets visited and yields a partial (``complete=False``) certificate
    when exceeded.
    """
    if t.gamma is None:
        raise ValueError("graph is not left-regular; expansion theorem needs a single gamma")
    g = girth(t)
    if g == math.inf or g % 2 != 0 or g < 6:
        raise ValueError(f"theorem needs a finite even Tanner girth >= 6, got {g}")
    if threshold is None:
        threshold = Fraction(3 * t.gamma, 4)
    n0 = moore_bound(Fraction(t.gamma, 2), g // 2)
    # largest integer strictly below the Moore count
    k_required = math.ceil(n0) - 1
    masks = t.var_masks
    walk = _SubsetWalk(t.n, k_required, budget)
    worst_subset: tuple[int, ...] = ()
    worst: Union[Fraction, None] = None
    passed = True
    for subset in walk:
        union = 0
        for v in subset:
            union |= masks[v]
        ratio = Fraction(union.bit_count(), len(subset))
        if worst is None or ratio < worst:
            worst = ratio
            worst_subset = subset
        if ratio <= threshold:
            passed = False
    return ExpansionCertificate(
        gamma=t.gamma,
        girth=g,
        threshold=threshold,
        k_max_required=k_required,
        k_max_checked=walk.sizes_completed,
        subsets_checked=walk.visited,
        worst_subset=worst_subset,
        worst_expansion=worst,
        passed=passed,
        complete=walk.complete,
    )


@dataclass(frozen=True)
class LemmaCheck:
    """Edge and check counts of one subset against their lemma bounds.

    ``edge_r`` counts subset edges that survive reduction (edges to checks
    of induced degree >= 2); ``check_count`` is the full neighbourhood size.
    ``f_value`` is the exact extremal edge count for ``(|s|, girth/2)``.
    """

    subset_size: int
    f_value: int
    edge_r: int
    bound_2f: int
    check_count: int
    bound_gamma_k_minus_f: int
    lemma1_ok: bool
    lemma2_ok: bool


def check_lemmas(t: TannerGraph, subset: Iterable[int]) -> LemmaCheck:
    """Evaluate the reduced-edge and check-count lemmas on one subset.

    Subset size is capped at 8 so the extremal value is exact. Requires a
    left-regular graph of finite even girth.
    """
    s = sorted(set(subset))
    if len(s) > 8:
        raise ValueError(f"subset of size {len(s)} exceeds the exact-oracle cap of 8")
    if t.gamma is None:
        raise ValueError("graph is not left-regular")
    g = girth(t)
    if g == math.inf or g % 2 != 0:
        raise ValueError(f"lemmas need a finite even Tanner girth, got {g}")
    part = induced_check_partition(t, s)
    k = len(s)
    f = brute_force_f(k, g // 2)
    edge_r = part.induced_edge_count - len(part.pendant)
    check_count = part.neighbor_count
    return LemmaCheck(
        subset_size=k,
        f_value=f,
        edge_r=edge_r,
        bound_2f=2 * f,
        check_count=check_count,
        bound_gamma_k_minus_f=t.gamma * k - f,
        lemma1_ok=edge_r <= 2 * f,
        lemma2_ok=check_count >= t.gamma * k - f,
    )


def _condition_a(t: TannerGraph, subset: Iterable[int]) -> bool:
    masks = t.var_masks
    parity = 0
    present = 0
    vs = list(subset)
    for v in vs:
        parity ^= masks[v]
        present |= masks[v]
    even = present & ~parity
    for v in vs:
        need = (t.var_degree(v) + 1) // 2
        if (masks[v] & even).bit_count() < need:
            return False
    return True


def _condition_b(t: TannerGraph, inside: set[int], odd_checks: Iterable[int]) -> Union[int, None]:
    """Return an outside variable violating (b), or None when all comply."""
    hits: dict[int, int] = {}
    for c in odd_checks:
        for u in t.check_adj[c]:
            if u not in inside:
                hits[u] = hits.get(u, 0) + 1
    for u, h in hits.items():
        if h > t.var_degree(u) // 2:
            return u
    return None


def is_potential_trapping_set(t: TannerGraph, subset: Iterable[int]) -> bool:
    """Condition (a) alone: enough even-check support inside the subset."""
    s = set(subset)
    if not s:
        raise ValueError("variable subset must be nonempty")
    if s and (min(s) < 0 or max(s) >= t.n):
        raise ValueError("variable index out of range")
    return _condition_a(t, s)


@dataclass(frozen=True)
class SubsetReport:
    """Full trapping-set classification of one variable subset.

    ``signature`` is the usual ``(a, b)`` pair: subset size and number of
    odd-degree induced checks. ``condition_b_witness`` names an outside
    variable with too many odd-check neighbours when condition (b) fails.
    """

    subset: tuple[int, ...]
    partition: CheckPartition
    expansion: Fraction
    signature: tuple[int, int]
    condition_a: bool
    condition_b: bool
    condition_b_witness: Union[int, None]
    is_trapping: bool


def classify_subset(t: TannerGraph, subset: Iterable[int]) -> SubsetReport:
    """Evaluate both trapping conditions and the neighbourhood statistics."""
    s = tuple(sorted(set(subset)))
    part = induced_check_partition(t, s)
    cond_a = _condition_a(t, s)
    witness = _condition_b(t, set(s), part.odd)
    cond_b = witness is None
    return SubsetReport(
        subset=s,
        partition=part,
        expansion=Fraction(part.neighbor_count, len(s)),
        signature=(len(s), len(part.odd)),
        condition_a=cond_a,
        condition_b=cond_b,
        condition_b_witness=witness,
        is_trapping=cond_a and cond_b,
    )


def is_trapping_set(t: TannerGraph, subset: Iterable[int]) -> bool:
    """True iff the subset's indicator pattern is a decoder fixed point."""
    return classify_subset(t, subset).is_trapping


def trapping_matches_decoder(t: TannerGraph, subset: Iterable[int]) -> bool:
    """Cross-check the structural classification against the decoder itself."""
    s = tuple(sorted(set(subset)))
    structural = classify_subset(t, s).is_trapping
    behavioral = is_fixed_point(t, ErrorPattern(t.n, s))
    return structural == behavioral


@dataclass(frozen=True)
class TrappingSearchResult:
    """Outcome of an exhaustive small-subset trapping-set search.

    ``found`` is the report of the first hit in (size, lexicographic) order,
    or ``None``. ``sizes_completed`` tells how far the exhaustive guarantee
    extends when the budget truncated the search.
    """

    found: Union[SubsetReport, None]
    max_size: int
    sizes_completed: int
    subsets_visited: int
    complete: bool
    potential_only: bool


def search_min_trapping_set(
    t: TannerGraph,
    max_size: int,
    potential_only: bool = False,
    budget: int = 5_000_000,
) -> TrappingSearchResult:
    """Find a smallest (potential) trapping set of size at most ``max_size``.

    Sizes ascend and subsets run lexicographically within a size, so the
    result is deterministic. With ``potential_only`` the odd-check outside
    condition is skipped, matching the weaker notion condition (a) defines
    on its own. Supersets of failed subsets are still enumerated; trapping
    sets are not monotone.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    masks = t.var_masks
    need = [(len(adj) + 1) // 2 for adj in t.var_adj]
    walk = _SubsetWalk(t.n, max_size, budget)
    found = None
    for subset in walk:
        # condition (a) inline, as in _condition_a: the search's hot loop
        parity = 0
        present = 0
        for v in subset:
            parity ^= masks[v]
            present |= masks[v]
        even = present & ~parity
        for v in subset:
            if (masks[v] & even).bit_count() < need[v]:
                break
        else:
            report = classify_subset(t, subset)
            if potential_only or report.is_trapping:
                found = report
                break
    return TrappingSearchResult(
        found=found,
        max_size=max_size,
        sizes_completed=walk.sizes_completed,
        subsets_visited=walk.visited,
        complete=walk.complete,
        potential_only=potential_only,
    )
