"""Hard-decision bit-flipping decoders over a Tanner graph.

Both decoders operate on error patterns rather than received words: the flip
rule reads only check parities, and the parity of a check under a received
word ``codeword + e`` equals its parity under ``e`` alone, so trajectories
depend only on the error. A variable flips when strictly more of its checks
are unsatisfied than satisfied; exact ties do not flip, which matters for
even degrees.

One driver runs both decoders and decides the status after each round. The
schedules differ only in their scan rule: the parallel scan flips all
qualifying variables at once, the serial scan visits variables in a fixed
order (ascending by default) and updates the syndrome after each flip, so
one round is one full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import combinations, compress
from typing import Callable, Iterable, Sequence, Union

from .graphs import TannerGraph


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


def _syndrome(t: TannerGraph, e: ErrorPattern) -> bytearray:
    """Per-check parity of ``e`` (1 marks an unsatisfied check), after checking its length."""
    if e.length != t.n:
        raise ValueError(f"pattern length {e.length} does not match code length {t.n}")
    syndrome = bytearray(t.m)
    for v in e.support:
        for c in t.var_adj[v]:
            syndrome[c] ^= 1
    return syndrome


def unsatisfied_checks(t: TannerGraph, e: ErrorPattern) -> frozenset[int]:
    """Checks whose neighbourhood holds an odd number of errors."""
    return frozenset(compress(range(t.m), _syndrome(t, e)))


def _parallel_scan(t: TannerGraph, syndrome: bytearray) -> tuple[int, ...]:
    """Flip every qualifying variable at once, updating ``syndrome``; return them ascending."""
    var_adj = t.var_adj
    hits = [0] * t.n
    for vs in compress(t.check_adj, syndrome):
        for v in vs:
            hits[v] += 1
    flipped = tuple(v for v, h, adj in zip(range(t.n), hits, var_adj) if 2 * h > len(adj))
    for v in flipped:
        for c in var_adj[v]:
            syndrome[c] ^= 1
    return flipped


def _serial_scan(t: TannerGraph, order: Sequence[int], syndrome: bytearray) -> tuple[int, ...]:
    """Flip qualifying variables one by one in ``order``, updating ``syndrome`` after each."""
    peek = syndrome.__getitem__
    flipped = []
    for v in order:
        adj = t.var_adj[v]
        if 2 * sum(map(peek, adj)) > len(adj):
            for c in adj:
                syndrome[c] ^= 1
            flipped.append(v)
    return tuple(flipped)


def _decode(
    t: TannerGraph,
    e: ErrorPattern,
    max_iters: Union[int, None],
    scan: Callable[[bytearray], tuple[int, ...]],
) -> DecodeResult:
    """Run ``scan`` once per round on the syndrome of ``e`` until a status applies."""
    syndrome = _syndrome(t, e)
    if max_iters is None:
        max_iters = max(t.n, 1)
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if e.weight == 0:
        return DecodeResult(DecodeStatus.CORRECTED, e, 0, ())
    bits = bytearray(t.n)
    for v in e.support:
        bits[v] = 1
    seen = {bytes(bits)}
    flips: list[tuple[int, ...]] = []
    while True:
        flipped = scan(syndrome)
        flips.append(flipped)
        for v in flipped:
            bits[v] ^= 1
        state = bytes(bits)
        if not flipped:
            # the no-flip round still ran: a fixed point costs exactly one round
            status = DecodeStatus.FIXED_POINT
        elif 1 not in bits:
            status = DecodeStatus.CORRECTED
        elif state in seen:
            status = DecodeStatus.OSCILLATION
        elif len(flips) >= max_iters:
            status = DecodeStatus.MAX_ITERS
        else:
            seen.add(state)
            continue
        final = ErrorPattern(t.n, tuple(compress(range(t.n), bits)))
        return DecodeResult(status, final, len(flips), tuple(flips))


def parallel_round(t: TannerGraph, e: ErrorPattern) -> tuple[ErrorPattern, tuple[int, ...]]:
    """One parallel flip round: returns the new pattern and the flipped positions."""
    flipped = _parallel_scan(t, _syndrome(t, e))
    return e.flip(flipped), flipped


def is_fixed_point(t: TannerGraph, e: ErrorPattern) -> bool:
    """True when no variable sees a strict majority of unsatisfied checks.

    The zero pattern is trivially a fixed point. Both decoders stall exactly
    on the fixed points, parallel in one round and serial in one scan.
    """
    return not _parallel_scan(t, _syndrome(t, e))


def decode_parallel(
    t: TannerGraph, e: ErrorPattern, max_iters: Union[int, None] = None
) -> DecodeResult:
    """Run parallel bit flipping until corrected, stuck, cycling, or out of rounds.

    OSCILLATION is detected by revisiting any earlier pattern; since the
    update is deterministic, a revisit proves a loop. ``max_iters`` defaults
    to the code length.
    """
    return _decode(t, e, max_iters, partial(_parallel_scan, t))


def decode_serial(
    t: TannerGraph,
    e: ErrorPattern,
    max_iters: Union[int, None] = None,
    order: Union[Sequence[int], None] = None,
) -> DecodeResult:
    """Run serial bit flipping: scan variables in ``order``, updating the syndrome per flip.

    ``order`` defaults to ascending variable index and must be a permutation
    of all variables, given as any iterable. Status semantics match
    :func:`decode_parallel`, with a round meaning one full scan.
    """
    if order is None:
        order = range(t.n)
    else:
        order = tuple(order)
        if sorted(order) != list(range(t.n)):
            raise ValueError("scan order must be a permutation of all variable indices")
    return _decode(t, e, max_iters, partial(_serial_scan, t, order))


ALGORITHMS = {"parallel": decode_parallel, "serial": decode_serial}


@dataclass(frozen=True)
class SweepResult:
    """Outcome of decoding every error pattern of one weight."""

    weight: int
    algorithm: str
    patterns_checked: int
    failures: tuple[tuple[int, ...], ...]

    @property
    def all_corrected(self) -> bool:
        return not self.failures


def sweep_error_patterns(
    t: TannerGraph,
    weight: int,
    algorithm: str = "parallel",
    max_iters: Union[int, None] = None,
) -> SweepResult:
    """Decode every weight-``weight`` pattern; failures are the uncorrected supports."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    if not 0 <= weight <= t.n:
        raise ValueError(f"weight must be between 0 and {t.n}, got {weight}")
    decode = ALGORITHMS[algorithm]
    failures = []
    checked = 0
    for support in combinations(range(t.n), weight):
        checked += 1
        result = decode(t, ErrorPattern(t.n, support), max_iters)
        if result.status is not DecodeStatus.CORRECTED:
            failures.append(support)
    return SweepResult(weight, algorithm, checked, tuple(failures))
