"""Constructive avoidance of per-length forbidden sets.

Start from uniform random bits and, while some forbidden string occurs,
redraw the leftmost (shortest first) violating occurrence, in the style of
Moser-Tardos constraint resampling.
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
    return sorted(family.scanner().occurrences(x.to_text().encode()))


def build_avoiding_string(inst: AvoidanceInstance) -> AvoidanceResult:
    """Resample until no forbidden string occurs or the budget runs out.

    Deterministic for a fixed instance: the initial draw, the resample order
    (leftmost violation, shortest on ties), and every redraw come from the
    instance's source in a fixed sequence.
    """
    scanner = inst.family.scanner()
    rs = inst.source
    text = bytearray(rs.bits(inst.length).to_text(), "ascii")
    resamples = 0
    scan_from = 0
    while True:
        hit = scanner.first(text, scan_from)
        if hit is None:
            return AvoidanceResult(True, BitString.from_text(text.decode()), resamples, 0)
        if resamples >= inst.max_resamples:
            residual = sum(1 for _ in scanner.occurrences(text))
            return AvoidanceResult(False, None, resamples, residual)
        k, n = hit
        text[k:k + n] = rs.bits(n).to_text().encode()
        resamples += 1
        # fresh violations can only overlap the redrawn block
        scan_from = max(0, k - scanner.longest + 1)
