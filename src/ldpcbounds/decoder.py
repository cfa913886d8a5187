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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
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


def _flip_round(masks, reach, err: int, syn: int, serial: bool) -> tuple[int, int]:
    """One round over the candidates, lowest first: the flip mask and the new syndrome.

    A parallel round judges every candidate on the syndrome it starts from. A
    serial round updates the syndrome after each flip and adds the flipped
    variable's reach above it, since those variables may qualify now.
    """
    cand = 0
    for v in set_bits(err):
        cand |= reach[v]
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


def _decode(masks, reach, support: Iterable[int], max_iters: Union[int, None], serial: bool):
    """Run rounds until a status applies; return it, the final error and each round's flips."""
    max_iters = max(len(masks), 1) if max_iters is None else max_iters
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    err, syn = _state(masks, support)
    flips: list[int] = []
    if not err:
        return DecodeStatus.CORRECTED, err, flips
    seen = {err}
    while True:
        flipped, syn = _flip_round(masks, reach, err, syn, serial)
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
    err, syn = _state(t.var_masks, _support(t, e))
    flipped = set_bits(_flip_round(t.var_masks, t.var_reach, err, syn, False)[0])
    return e.flip(flipped), flipped


def is_fixed_point(t: TannerGraph, e: ErrorPattern) -> bool:
    """True when no variable sees a strict majority of unsatisfied checks.

    The zero pattern is trivially a fixed point. Both decoders stall exactly
    on the fixed points, parallel in one round and serial in one scan.
    """
    err, syn = _state(t.var_masks, _support(t, e))
    return not _flip_round(t.var_masks, t.var_reach, err, syn, False)[0]


def decode_parallel(t: TannerGraph, e: ErrorPattern,
                    max_iters: Union[int, None] = None) -> DecodeResult:
    """Run parallel bit flipping until corrected, stuck, cycling, or out of rounds.

    OSCILLATION is detected by revisiting any earlier pattern; since the
    update is deterministic, a revisit proves a loop. ``max_iters`` defaults
    to the code length.
    """
    status, err, flips = _decode(t.var_masks, t.var_reach, _support(t, e), max_iters, False)
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
    status, err, flips = _decode(masks, reach, support, max_iters, True)
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
    """Decode every weight-``weight`` pattern; failures are the uncorrected supports."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    if not 0 <= weight <= t.n:
        raise ValueError(f"weight must be between 0 and {t.n}, got {weight}")
    masks, reach, serial = t.var_masks, t.var_reach, algorithm == "serial"
    failures = []
    statuses = dict.fromkeys(DecodeStatus, 0)
    rounds: Counter = Counter()
    for support in combinations(range(t.n), weight):
        status, _, flips = _decode(masks, reach, support, max_iters, serial)
        statuses[status] += 1
        rounds[len(flips)] += 1
        if status is not DecodeStatus.CORRECTED:
            failures.append(support)
    return SweepResult(weight, algorithm, sum(statuses.values()), tuple(failures),
                       {s.value: k for s, k in statuses.items()}, dict(sorted(rounds.items())))
