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
trapping set typically violates (a), so no search can prune the supersets
of a subset that fails. Both exhaustive searches prune disconnected subsets
instead. Link two variables when they share a check; the searches walk only
the subsets that are connected under this link, which is exact for the
expansion certificate and for the trapping-set search alike (see
:class:`_SubsetWalk`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .bounds import brute_force_f, moore_bound
from .graphs import (
    CheckPartition,
    TannerGraph,
    check_parity_masks,
    girth,
    induced_check_partition,
    parity_partition,
    set_bits,
)


class _SubsetWalk:
    """Connected variable subsets of sizes ``1..max_size``.

    Two variables are linked when they share a check, and only subsets that
    are connected under this link are handed out. Skipping the rest is exact
    for both searches:

    * a disconnected subset's ``|N(S)|/|S|`` is a mediant of its connected
      parts' ratios, since the parts share no check; so the worst ratio, and
      any subset at or below a threshold, occurs on a connected subset, and
      the first minimiser in (size, lexicographic) order is itself connected
      (a part with the same ratio is smaller);
    * the connected parts share no check, so condition (a) splits across
      them, and so does (b): a check of odd degree in a part has that
      degree in the whole subset, and no variable of another part touches
      it. Every part of a (potential) trapping set is one too, and every
      smallest one is connected.

    Subsets come in blocks by smallest member, ascending. A block is the ESU
    enumeration (Wernicke, IEEE/ACM TCBB 2006) rooted at that member: a
    subset grows only by members above the root, each drawn from an
    extension set that hands every connected subset out exactly once. The
    walk goes depth first with one explicit stack, whose frames carry each
    subset's extension set, the variables already in or linked to it, and
    its union of check masks; a subset of the largest size is handed out
    from its parent's frame and never pushed. The walk has two orders:

    * size-major (the default): sizes ascending, each size walked again
      from its roots and handed out alone. So the lexicographically first
      subset of a size with some property lies in the first block that has
      one; a caller that wants it calls :meth:`finish_block` on its first
      hit, and the walk stops once that block is done.
    * ``one_pass``: each root's tree is walked once, and every subset of
      every size is handed out as its parent generates it (root, then
      preorder), so a subset is walked once instead of once per size below
      ``max_size``. Sizes come interleaved, so it suits callers whose answer
      does not depend on the visit order.

    Items are ``(size, members, checks)``: ``members`` is the subset as a
    bitmask over variables and ``checks`` the union of their check masks.
    Stops after ``budget`` subsets. The counters stay exact when a caller
    breaks out of the loop: ``visited`` counts the subsets handed out,
    including the last one, and ``sizes_completed`` the sizes handed out in
    full (not the size of a finished block; a one-pass walk completes its
    sizes only at its end).
    """

    def __init__(self, t: TannerGraph, max_size: int, budget: int, one_pass: bool = False):
        self.t = t
        self.max_size = max_size
        self.budget = budget
        self.one_pass = one_pass
        self.visited = 0
        self.sizes_completed = 0
        self.complete = True
        self._last_block = False

    def finish_block(self) -> None:
        """Stop once the current block (size and smallest member) is handed out."""
        self._last_block = True

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        t = self.t
        masks = t.var_masks
        reach = t.var_reach
        one_pass = self.one_pass
        sizes = range(1, min(self.max_size, t.n) + 1)
        # one pass goes to the largest size and hands out every level on the way
        for k in sizes[-1:] if one_pass else sizes:
            for root in range(t.n):
                above = -1 << (root + 1)
                # (members, extension, members and their links, checks, size),
                # starting from the empty subset whose only extension is the root
                stack = [(0, 1 << root, 1 << root, 0, 0)]
                while stack:
                    members, ext, closed, checks, size = stack.pop()
                    size += 1
                    last = size == k
                    while ext:
                        low = ext & -ext
                        ext ^= low
                        w = low.bit_length() - 1
                        grown_checks = checks | masks[w]
                        if last or one_pass:
                            if self.visited >= self.budget:
                                self.complete = False
                                return
                            self.visited += 1
                            yield size, members | low, grown_checks
                        if not last:
                            # the exclusive neighbours of w: above the root and
                            # not yet in, or linked to, the subset
                            grown = ext | (reach[w] & ~closed & above)
                            if grown:
                                stack.append((members | low, grown, closed | reach[w],
                                              grown_checks, size))
                if self._last_block:
                    return
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
    ``subsets_checked`` counts the connected subsets visited, which stand for
    all subsets (see :func:`verify_main_theorem`). ``passed`` covers every
    subset visited, including any partially enumerated size.
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

    Walks the connected subsets of each size ``k < moore_bound(gamma/2,
    girth/2)`` (see :class:`_SubsetWalk`). That is exact: a disconnected
    subset's ratio is a mediant of its connected parts' ratios, so the worst
    ratio and any failure occur on a connected subset, and the reported
    worst subset is the first minimiser in (size, lexicographic) order over
    all subsets. This inequality is a theorem for left-regular simple Tanner
    graphs of the stated girth, so a failed certificate on such a graph
    indicates a bug or a malformed input; the worst subset is reported
    either way.

    The subsets are walked in one pass, each once, all sizes interleaved.
    The answer does not depend on that order: ``passed`` asks whether any
    ratio is at or below the threshold, and the worst subset is the one
    minimiser that is smallest in (ratio, size, lexicographic) order, since
    a tie goes to the smaller size and then to the lexicographically first.

    ``budget`` caps the number of connected subsets visited and yields a
    partial (``complete=False``) certificate when exceeded;
    ``subsets_checked`` counts connected subsets. The budget counts them
    sizes ascending: when the one pass would visit more than ``budget``
    subsets, it stops, and the certificate is walked again size by size
    (at most ``budget`` more subsets), so a partial certificate covers every
    smaller size in full and ``k_max_checked`` stays the sizes completed.
    """
    if t.gamma is None:
        raise ValueError("graph is not left-regular; expansion theorem needs a single gamma")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    g = girth(t)
    if g == math.inf or g % 2 != 0 or g < 6:
        raise ValueError(f"theorem needs a finite even Tanner girth >= 6, got {g}")
    if threshold is None:
        threshold = Fraction(3 * t.gamma, 4)
    n0 = moore_bound(Fraction(t.gamma, 2), g // 2)
    # largest integer strictly below the Moore count
    k_required = math.ceil(n0) - 1
    # ratios compare as |N(S)| * |S'| against |N(S')| * |S|, in integers
    bound_num, bound_den = Fraction(threshold).as_integer_ratio()

    def audit(walk: _SubsetWalk) -> ExpansionCertificate:
        worst_members = worst_count = worst_size = 0
        passed = True
        for size, members, checks in walk:
            count = checks.bit_count()
            lhs = count * worst_size
            rhs = worst_count * size
            # a tie goes to the smaller size, then to the lexicographically
            # first: the lowest member where the two differ is ours
            if not worst_size or lhs < rhs or (lhs == rhs and (
                size < worst_size
                or (size == worst_size
                    and (members ^ worst_members) & -(members ^ worst_members) & members)
            )):
                worst_members, worst_count, worst_size = members, count, size
            if count * bound_den <= bound_num * size:
                passed = False
        return ExpansionCertificate(
            gamma=t.gamma,
            girth=g,
            threshold=threshold,
            k_max_required=k_required,
            k_max_checked=walk.sizes_completed,
            subsets_checked=walk.visited,
            worst_subset=set_bits(worst_members),
            worst_expansion=Fraction(worst_count, worst_size) if worst_size else None,
            passed=passed,
            complete=walk.complete,
        )

    cert = audit(_SubsetWalk(t, k_required, budget, one_pass=True))
    if not cert.complete:
        # the budget counts subsets sizes ascending: walk that order again
        cert = audit(_SubsetWalk(t, k_required, budget))
    return cert


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


def _condition_a(t: TannerGraph, subset: Iterable[int], even: int) -> bool:
    """Every member sees at least half its checks in ``even``, the subset's even checks."""
    masks = t.var_masks
    for v in subset:
        if 2 * (masks[v] & even).bit_count() < len(t.var_adj[v]):
            return False
    return True


def _condition_b_witness(t: TannerGraph, subset: Iterable[int], odd: int) -> Union[int, None]:
    """An outside variable violating (b), or None when all comply.

    ``odd`` is the mask of the subset's odd checks; a violator sees more
    than half its checks in it. The witness is the violator whose lowest
    odd check is lowest, the lowest violator on ties.
    """
    masks = t.var_masks
    seen = sum(1 << v for v in subset)
    rest = odd
    while rest:
        low = rest & -rest
        rest ^= low
        for u in t.check_adj[low.bit_length() - 1]:
            if not seen >> u & 1:
                seen |= 1 << u
                if 2 * (masks[u] & odd).bit_count() > len(t.var_adj[u]):
                    return u
    return None


def is_potential_trapping_set(t: TannerGraph, subset: Iterable[int]) -> bool:
    """Condition (a) alone: enough even-check support inside the subset."""
    s = set(subset)
    if not s:
        raise ValueError("variable subset must be nonempty")
    if s and (min(s) < 0 or max(s) >= t.n):
        raise ValueError("variable index out of range")
    return _condition_a(t, s, check_parity_masks(t, s)[0])


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
    part, even, odd = parity_partition(t, s)
    cond_a = _condition_a(t, s, even)
    witness = _condition_b_witness(t, s, odd)
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
    from .decoder import ErrorPattern, is_fixed_point

    s = tuple(sorted(set(subset)))
    structural = classify_subset(t, s).is_trapping
    behavioral = is_fixed_point(t, ErrorPattern(t.n, s))
    return structural == behavioral


@dataclass(frozen=True)
class TrappingSearchResult:
    """Outcome of an exhaustive small-subset trapping-set search.

    ``found`` is the report of the first hit in (size, lexicographic) order,
    or ``None``. ``sizes_completed`` tells how far the exhaustive guarantee
    extends when the budget truncated the search. ``subsets_visited`` counts
    the connected subsets visited (see :func:`search_min_trapping_set`).
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

    Walks the connected subsets, sizes ascending (see :class:`_SubsetWalk`).
    That is exact: conditions (a) and (b) split across the connected parts
    of a subset, so every part of a (potential) trapping set is one too, and
    the smallest ones are connected. The result is the first hit in (size,
    lexicographic) order over all subsets, so it is deterministic: the
    search finishes the block of the first hit, the subsets of that size
    with the same smallest member, and reports the hit that comes first
    lexicographically. With ``potential_only`` the odd-check outside
    condition is skipped, matching the weaker notion condition (a) defines
    on its own. Supersets of failed subsets are still walked; trapping sets
    are not monotone. ``budget`` caps the number of connected subsets
    visited, and ``subsets_visited`` counts them; a budget that runs out
    inside the block of a hit leaves a smallest hit that may not be the
    lexicographically first, with ``complete=False``.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    walk = _SubsetWalk(t, max_size, budget)
    found = None
    for _, members, _ in walk:
        subset = set_bits(members)
        if (_condition_a(t, subset, check_parity_masks(t, subset)[0])
                and (found is None or subset < found.subset)):
            report = classify_subset(t, subset)
            if potential_only or report.is_trapping:
                found = report
                walk.finish_block()
    return TrappingSearchResult(
        found=found,
        max_size=max_size,
        sizes_completed=walk.sizes_completed,
        subsets_visited=walk.visited,
        complete=walk.complete,
        potential_only=potential_only,
    )
