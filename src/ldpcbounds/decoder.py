"""Hard-decision bit-flipping decoders over a Tanner graph.

Both decoders operate on error patterns rather than received words: the flip
rule reads only check parities, and the parity of a check under a received
word ``codeword + e`` equals its parity under ``e`` alone, so trajectories
depend only on the error. A variable flips when strictly more of its checks
are unsatisfied than satisfied; exact ties do not flip, which matters for
even degrees.

Errors and syndromes are int bitmasks. Only variables sharing a check with
an error can see an unsatisfied check, so a round looks only at the
candidate mask, the OR of ``TannerGraph.var_reach`` over the error. One
loop runs both schedules: a parallel round flips every qualifying
candidate at once; a serial round takes the lowest candidate and, after a
flip, adds the variable's reach above it. Other scan orders are relabelled.

A sweep walks the supports of one weight as a prefix tree, depth first with
an explicit stack, so that a child costs one XOR into the syndrome and one
OR into the error. Under the parallel schedule a prefix also carries its
round-1 flips. That is exact because variable u's round-1 decision reads
only the syndrome on u's checks, and adding an error at x changes the
syndrome only on x's checks: only the variables in ``var_reach[x]`` can
change their decision, and only they are judged again. A serial round-1
decision depends on every earlier flip of the scan, and an error at x can
reach past ``var_reach[x]`` through a chain of flips, so a serial prefix
carries only its candidates and each leaf runs its first scan in full
(resuming the prefix's scan at the lowest variable in reach of x is exact
too, but measured slower). A leaf that round 1 corrects is counted as
corrected in one round, which is what the decode loop would report; every
other leaf enters the loop with its round 1 already done.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence, Union

from .graphs import TannerGraph, set_bits


class DecodeStatus(Enum):
    CORRECTED = "corrected"
    FIXED_POINT = "fixed_point"
    OSCILLATION = "oscillation"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class ErrorPattern:
    """A set of flipped variable positions in a length-``length`` word."""

    length: int
    support: tuple[int, ...]

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"length must be nonnegative, got {self.length}")
        sup = tuple(sorted(set(self.support)))
        object.__setattr__(self, "support", sup)
        if sup and (sup[0] < 0 or sup[-1] >= self.length):
            bad = sup[0] if sup[0] < 0 else sup[-1]
            raise ValueError(f"position {bad} out of range for length {self.length}")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "ErrorPattern":
        return cls(len(bits), tuple(i for i, b in enumerate(bits) if b))

    @property
    def weight(self) -> int:
        return len(self.support)

    def bits(self) -> tuple[int, ...]:
        out = [0] * self.length
        for i in self.support:
            out[i] = 1
        return tuple(out)

    def flip(self, positions: Iterable[int]) -> "ErrorPattern":
        """XOR the given positions into the pattern."""
        current = set(self.support)
        return ErrorPattern(self.length, tuple(current ^ set(positions)))


@dataclass(frozen=True)
class DecodeResult:
    status: DecodeStatus
    final: ErrorPattern
    rounds: int
    flips_per_round: tuple[tuple[int, ...], ...]


def _support(t: TannerGraph, e: ErrorPattern) -> tuple[int, ...]:
    if e.length != t.n:
        raise ValueError(f"pattern length {e.length} does not match code length {t.n}")
    return e.support


def _state(masks: Sequence[int], support: Iterable[int]) -> tuple[int, int]:
    """The error mask of ``support`` and its syndrome."""
    err = syn = 0
    for v in support:
        err |= 1 << v
        syn ^= masks[v]
    return err, syn


def _candidates(reach: Sequence[int], support: Iterable[int]) -> int:
    """The variables that share a check with an error: the only ones that can flip."""
    cand = 0
    for v in support:
        cand |= reach[v]
    return cand


def _flip_round(masks, reach, cand: int, syn: int, serial: bool) -> tuple[int, int]:
    """One round over the candidates, lowest first: the flip mask and the new syndrome.

    A parallel round judges every candidate on the syndrome it starts from. A
    serial round updates the syndrome after each flip and adds the flipped
    variable's reach above it, since those variables may qualify now.
    """
    flipped = delta = 0
    while cand:
        low = cand & -cand
        cand ^= low
        mask = masks[low.bit_length() - 1]
        if 2 * (syn & mask).bit_count() > mask.bit_count():
            flipped |= low
            if serial:
                syn ^= mask
                cand |= reach[low.bit_length() - 1] & -(low << 1)
            else:
                delta ^= mask
    return flipped, syn ^ delta


def _round_cap(n: int, max_iters: Union[int, None]) -> int:
    """The round budget: ``max_iters``, by default the code length (at least 1)."""
    max_iters = max(n, 1) if max_iters is None else max_iters
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    return max_iters


def _decode(masks, reach, err: int, syn: int, max_iters: int, serial: bool, first=None):
    """Run rounds until a status applies; return it, the final error and each round's flips.

    ``first`` is round 1 as ``_flip_round`` returns it, when the caller has
    already run it.
    """
    flips: list[int] = []
    if not err:
        return DecodeStatus.CORRECTED, err, flips
    seen = {err}
    while True:
        flipped, syn = first or _flip_round(
            masks, reach, _candidates(reach, set_bits(err)), syn, serial)
        first = None
        flips.append(flipped)
        err ^= flipped
        if not flipped:
            # the no-flip round still ran: a fixed point costs exactly one round
            status = DecodeStatus.FIXED_POINT
        elif not err:
            status = DecodeStatus.CORRECTED
        elif err in seen:
            status = DecodeStatus.OSCILLATION
        elif len(flips) >= max_iters:
            status = DecodeStatus.MAX_ITERS
        else:
            seen.add(err)
            continue
        return status, err, flips


def unsatisfied_checks(t: TannerGraph, e: ErrorPattern) -> frozenset[int]:
    """Checks whose neighbourhood holds an odd number of errors."""
    return frozenset(set_bits(_state(t.var_masks, _support(t, e))[1]))


def parallel_round(t: TannerGraph, e: ErrorPattern) -> tuple[ErrorPattern, tuple[int, ...]]:
    """One parallel flip round: returns the new pattern and the flipped positions."""
    support = _support(t, e)
    syn = _state(t.var_masks, support)[1]
    cand = _candidates(t.var_reach, support)
    flipped = set_bits(_flip_round(t.var_masks, t.var_reach, cand, syn, False)[0])
    return e.flip(flipped), flipped


def is_fixed_point(t: TannerGraph, e: ErrorPattern) -> bool:
    """True when no variable sees a strict majority of unsatisfied checks.

    The zero pattern is trivially a fixed point. Both decoders stall exactly
    on the fixed points, parallel in one round and serial in one scan. The
    candidates are judged lowest first, up to the first that would flip.
    """
    masks = t.var_masks
    support = _support(t, e)
    syn = _state(masks, support)[1]
    cand = _candidates(t.var_reach, support)
    while cand:
        low = cand & -cand
        cand ^= low
        mask = masks[low.bit_length() - 1]
        if 2 * (syn & mask).bit_count() > mask.bit_count():
            return False
    return True


def decode_parallel(t: TannerGraph, e: ErrorPattern,
                    max_iters: Union[int, None] = None) -> DecodeResult:
    """Run parallel bit flipping until corrected, stuck, cycling, or out of rounds.

    OSCILLATION is detected by revisiting any earlier pattern; since the
    update is deterministic, a revisit proves a loop. ``max_iters`` defaults
    to the code length.
    """
    err, syn = _state(t.var_masks, _support(t, e))
    cap = _round_cap(t.n, max_iters)
    status, err, flips = _decode(t.var_masks, t.var_reach, err, syn, cap, False)
    final = ErrorPattern(t.n, set_bits(err))
    return DecodeResult(status, final, len(flips), tuple(map(set_bits, flips)))


def decode_serial(t: TannerGraph, e: ErrorPattern, max_iters: Union[int, None] = None,
                  order: Union[Sequence[int], None] = None) -> DecodeResult:
    """Run serial bit flipping: scan variables in ``order``, updating the syndrome per flip.

    ``order`` defaults to ascending variable index and must be a permutation
    of all variables, given as any iterable. Status semantics match
    :func:`decode_parallel`, with a round meaning one full scan.
    """
    masks, reach, labels = t.var_masks, t.var_reach, range(t.n)
    if order is None:
        support = _support(t, e)
    else:
        labels = tuple(order)
        if sorted(labels) != list(range(t.n)):
            raise ValueError("scan order must be a permutation of all variable indices")
        # label p is the p-th variable scanned, so a scan visits the labels ascending
        pos = {v: p for p, v in enumerate(labels)}
        support = [pos[v] for v in _support(t, e)]
        masks = [masks[v] for v in labels]
        reach = [sum(1 << pos[u] for u in set_bits(reach[v])) for v in labels]
    err, syn = _state(masks, support)
    cap = _round_cap(t.n, max_iters)
    status, err, flips = _decode(masks, reach, err, syn, cap, True)
    named = [tuple(labels[p] for p in set_bits(mask)) for mask in (err, *flips)]
    return DecodeResult(status, ErrorPattern(t.n, named[0]), len(flips), tuple(named[1:]))


ALGORITHMS = {"parallel": decode_parallel, "serial": decode_serial}


@dataclass(frozen=True)
class SweepResult:
    """Outcome of decoding every error pattern of one weight, with the patterns per
    ``DecodeStatus`` value (all of them, in declaration order) and per round count."""

    weight: int
    algorithm: str
    patterns_checked: int
    failures: tuple[tuple[int, ...], ...]
    status_counts: dict[str, int] = field(hash=False)
    rounds_histogram: dict[int, int] = field(hash=False)

    @property
    def all_corrected(self) -> bool:
        return not self.failures


def sweep_error_patterns(t: TannerGraph, weight: int, algorithm: str = "parallel",
                         max_iters: Union[int, None] = None) -> SweepResult:
    """Decode every weight-``weight`` pattern; failures are the uncorrected supports.

    The supports are the leaves of a prefix tree, walked depth first in
    lexicographic order. Each prefix carries its error, its syndrome and, for
    the serial schedule, its candidates, or for the parallel one its round-1
    flips; a leaf that round 1 corrects is counted without entering the
    decode loop, and every other leaf resumes it from round 2.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    n = t.n
    if not 0 <= weight <= n:
        raise ValueError(f"weight must be between 0 and {n}, got {weight}")
    masks, reach, serial = t.var_masks, t.var_reach, algorithm == "serial"
    cap = _round_cap(n, max_iters)
    failures = []
    statuses = dict.fromkeys(DecodeStatus, 0)
    rounds: Counter = Counter()

    def finish(err, syn, first):
        status, _, flips = _decode(masks, reach, err, syn, cap, serial, first)
        statuses[status] += 1
        rounds[len(flips)] += 1
        if status is not DecodeStatus.CORRECTED:
            failures.append(set_bits(err))

    # adding an error at x re-judges the parallel round-1 decisions of the
    # variables in reach of x (see the module docstring): each with its bit,
    # its checks and the most unsatisfied checks that do not flip it
    judged = None
    if not serial:
        rules = [(1 << u, mask, mask.bit_count() // 2) for u, mask in enumerate(masks)]
        judged = [tuple(rules[u] for u in set_bits(r)) for r in reach]
    quick = 0  # leaves corrected by round 1
    # one frame per prefix on the current path: its length, the variables
    # left to append to it, its error, syndrome and round-1 flips or
    # candidates; a prefix one short of the weight runs its leaves in its
    # own loop, so no leaf is ever pushed
    stack = []
    if weight:
        stack.append((0, iter(range(n - weight + 1)), 0, 0, 0))
    else:
        finish(0, 0, None)
    while stack:
        size, nxt, err, syn, known = stack[-1]
        leaves = size + 1 == weight
        for x in nxt:
            e, s = err | (1 << x), syn ^ masks[x]
            if serial:
                k = known | reach[x]
            else:
                k = known & ~reach[x]
                for bit, mask, ties in judged[x]:
                    if (s & mask).bit_count() > ties:
                        k |= bit
            if not leaves:
                stack.append((size + 1, iter(range(x + 1, n - weight + size + 2)), e, s, k))
                break
            if serial:
                first = _flip_round(masks, reach, k, s, True)
                if first[0] == e:
                    quick += 1
                else:
                    finish(e, s, first)
            elif k == e:
                quick += 1
            else:
                finish(e, s, (k, s ^ _state(masks, set_bits(k))[1]))
        else:
            stack.pop()
    statuses[DecodeStatus.CORRECTED] += quick
    if quick:
        rounds[1] += quick
    return SweepResult(weight, algorithm, sum(statuses.values()), tuple(failures),
                       {s.value: k for s, k in statuses.items()}, dict(sorted(rounds.items())))
