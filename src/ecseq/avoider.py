"""Constructive avoidance of per-length forbidden sets.

Start from uniform random bits and, while some forbidden string occurs,
redraw the leftmost (shortest first) violating occurrence, in the style of
Moser-Tardos constraint resampling.  A brute-force enumerator doubles as the
testing oracle at small lengths.
"""

from dataclasses import dataclass
from typing import Optional

from .core import BitString, RandomSource
from .forbidden import LevelFamily


@dataclass(frozen=True)
class AvoidanceInstance:
    family: LevelFamily
    length: int
    max_resamples: int
    source: RandomSource

    def __post_init__(self):
        if self.length <= 0 or self.max_resamples <= 0:
            raise ValueError("length and resample budget must be positive")
        if not self.family.explicit_only():
            raise ValueError("avoidance needs explicit level sets")
        for n in self.family.level_lengths():
            if n > self.length:
                raise ValueError(f"forbidden length {n} exceeds target length {self.length}")
            size = self.family.size_of(n)
            bound = self.family.size_bound(n)
            if size > bound:
                raise ValueError(
                    f"density guard: level {n} holds {size} strings, bound {bound}"
                )


@dataclass(frozen=True)
class AvoidanceResult:
    succeeded: bool
    string: Optional[BitString]
    resamples: int
    residual_violations: int


def scan_violations(x: BitString, family: LevelFamily) -> list:
    """All (position, length) pairs whose window is forbidden, sorted."""
    if not family.explicit_only():
        raise ValueError("scanning needs explicit level sets")
    return sorted(family.scanner().occurrences(x.to_bits()))


def build_avoiding_string(inst: AvoidanceInstance) -> AvoidanceResult:
    """Resample until no forbidden string occurs or the budget runs out.

    Deterministic for a fixed instance: the initial draw, the resample order
    (leftmost violation, shortest on ties), and every redraw come from the
    instance's source in a fixed sequence.
    """
    scanner = inst.family.scanner()
    rs = inst.source
    bits = rs.bits(inst.length).to_bits()
    resamples = 0
    scan_from = 0
    while True:
        hit = scanner.first(bits, scan_from)
        if hit is None:
            return AvoidanceResult(True, BitString.from_bits(bits), resamples, 0)
        if resamples >= inst.max_resamples:
            residual = len(scan_violations(BitString.from_bits(bits), inst.family))
            return AvoidanceResult(False, None, resamples, residual)
        k, n = hit
        redraw = rs.bits(n)
        for i in range(n):
            bits[k + i] = redraw[i]
        resamples += 1
        # fresh violations can only overlap the redrawn block
        scan_from = max(0, k - scanner.longest + 1)


def brute_force_avoider(family: LevelFamily, length: int) -> Optional[BitString]:
    """Numerically smallest avoiding string of the given length, or None when
    none exists.  Depth-first with prefix pruning, which visits candidates in
    exactly numeric (most-significant-bit-first) order."""
    if length > 24:
        raise ValueError("brute force capped at length 24")
    if not family.explicit_only():
        raise ValueError("brute force needs explicit level sets")
    scanner = family.scanner()

    def smallest(state: int, depth: int) -> Optional[list]:
        if depth == 0:
            return []
        for b in (0, 1):
            child = scanner.goto[state][b]
            # a prefix is forbidden exactly when its automaton state accepts
            rest = None if scanner.ends[child] else smallest(child, depth - 1)
            if rest is not None:
                return [b] + rest
        return None

    found = smallest(0, length)
    return None if found is None else BitString.from_bits(found)
