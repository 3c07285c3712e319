"""Per-position forbidden strings against an explicit distribution.

One forbidden string of a fixed window length is chosen for each start
position; the first family (in lexicographic order over the concatenated
strings, position 0 most significant) whose exact avoid probability beats the
target is returned.  Existence is guaranteed beforehand by averaging over all
families, where each fixed string avoids a uniformly random family with
probability exactly (1 - 2**-n)**N regardless of overlaps.  A distribution
deficit counts as avoiding, worst case, which is what makes the truncation
accounting work: certifying the enumerated part against a reduced target
certifies the full distribution against the original one.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import BitString, ExactProb, FiniteDistribution, frac_to_str


@dataclass(frozen=True)
class PositionalFamily:
    """One forbidden window per start position, plus the avoid certificate."""

    window_length: int
    strings: tuple
    certificate: Optional[ExactProb] = None

    def __post_init__(self):
        for s in self.strings:
            if len(s) != self.window_length:
                raise ValueError("every forbidden string must have the window length")

    @property
    def position_count(self) -> int:
        return len(self.strings)

    def numerals(self) -> tuple:
        return tuple(s.to_numeral() for s in self.strings)

    def to_json(self) -> dict:
        doc = {
            "window_length": self.window_length,
            "strings": [s.to_text() for s in self.strings],
        }
        if self.certificate is not None:
            doc["certificate"] = frac_to_str(self.certificate)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PositionalFamily":
        cert = doc.get("certificate")
        return cls(doc["window_length"],
                   tuple(BitString.from_text(s) for s in doc["strings"]),
                   ExactProb(Fraction(cert)) if cert is not None else None)


def required_positions(window_length: int, epsilon) -> int:
    """Smallest N with (1 - 2**-n)**N < epsilon, in exact arithmetic."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if window_length < 1:
        raise ValueError("window length must be positive")
    q = 1 - Fraction(1, 1 << window_length)
    hi = 1
    while q ** hi >= epsilon:
        hi *= 2
    lo = hi // 2  # q**lo >= epsilon (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if q ** mid < epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def avoid_probability(dist: FiniteDistribution, family: PositionalFamily) -> ExactProb:
    """Mass of strings matching no forbidden window at its position; deficit
    counts as avoiding."""
    n, N = family.window_length, family.position_count
    if dist.string_length != N + n - 1:
        raise ValueError(
            f"distribution length {dist.string_length} does not match {N} positions "
            f"of window length {n}"
        )
    targets = family.numerals()
    total = Fraction(dist.deficit)
    for x, mass in dist.items():
        if all(w != t for w, t in zip(x.numeral_windows(n), targets)):
            total += mass
    return ExactProb(total)


def positional_family_search(dist: FiniteDistribution, window_length: int,
                             epsilon) -> PositionalFamily:
    """First family, in lexicographic order, with avoid probability below
    epsilon.

    The position count is fixed by the distribution: N = length - n + 1, one
    full window per start position.  Callers size their distribution with
    required_positions so the averaged existence bound
    (1 - deficit) * (1 - 2**-n)**N + deficit < epsilon
    holds; it is re-checked exactly here, and it equals the average avoid
    probability over uniformly random families, so a qualifying family must
    exist."""
    epsilon = ExactProb(epsilon)
    deficit = Fraction(dist.deficit)
    if not deficit < epsilon:
        raise ValueError("deficit at least epsilon: no family can be certified")
    n = window_length
    if dist.string_length < n:
        raise ValueError("distribution strings shorter than the window")
    N = dist.string_length - n + 1
    q_power = (1 - Fraction(1, 1 << n)) ** N
    if not (1 - deficit) * q_power + deficit < epsilon:
        raise ValueError("averaged existence bound fails for these parameters")
    support = [(list(x.numeral_windows(n)), Fraction(mass)) for x, mass in dist.items()]
    for candidate in itertools.product(range(1 << n), repeat=N):
        acc = deficit
        good = True
        for windows, mass in support:
            if all(w != t for w, t in zip(windows, candidate)):
                acc += mass
                if acc >= epsilon:
                    good = False
                    break
        if good:
            strings = tuple(BitString.from_numeral(v, n) for v in candidate)
            return PositionalFamily(n, strings, ExactProb(acc))
    raise AssertionError("averaged bound held but no family qualified")


def truncated_search(dist: FiniteDistribution, window_length: int,
                     epsilon) -> PositionalFamily:
    """Search against a distribution known only up to its deficit delta.

    Requires delta <= epsilon/2 so the enumerated part can absorb the error:
    the family found certifies the enumerated mass below epsilon - delta, and
    the returned certificate (which counts the deficit as avoiding) is below
    epsilon for the full distribution."""
    epsilon = ExactProb(epsilon)
    deficit = Fraction(dist.deficit)
    if deficit > Fraction(epsilon) / 2:
        raise ValueError(
            f"deficit {frac_to_str(deficit)} exceeds epsilon/2 = "
            f"{frac_to_str(Fraction(epsilon) / 2)}"
        )
    return positional_family_search(dist, window_length, epsilon)
