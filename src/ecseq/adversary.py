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

from fractions import Fraction
from typing import NamedTuple, Optional

from .core import ExactProb, FiniteDistribution, frac_to_str, json_exact, read_back


class _PositionalFields(NamedTuple):
    window_length: int
    targets: tuple
    certificate: Optional[ExactProb] = None


class PositionalFamily(_PositionalFields):
    """One forbidden window numeral per start position, plus the avoid certificate."""

    __slots__ = ()

    def __new__(cls, window_length: int, targets: tuple, certificate: Optional[ExactProb] = None):
        if any(v < 0 or v.bit_length() > window_length for v in targets):
            raise ValueError("every forbidden window must fit the window length")
        return super().__new__(cls, window_length, targets, certificate)

    def numerals(self) -> tuple:
        return self.targets

    def to_json(self) -> dict:
        n = self.window_length
        doc = {"window_length": n, "strings": [format(v, f"0{n}b") for v in self.targets]}
        if self.certificate is not None:
            doc["certificate"] = frac_to_str(self.certificate)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PositionalFamily":
        """Parse a family as to_json writes it: ValueError unless to_json
        writes doc again (core.read_back).  A string of another length
        than window_length is refused first, so a huge window_length builds
        nothing."""
        def parse(doc):
            cert, strings = doc.get("certificate"), doc["strings"]
            n = json_exact(doc["window_length"], int)
            if any(len(text) != n for text in strings):
                raise ValueError(f"a forbidden string is not {n} bits long")
            return cls(n, tuple(int(text, 2) for text in strings),
                       None if cert is None else ExactProb(cert))
        return read_back(doc, parse, cls.to_json, "positional family JSON")


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
    n, N = family.window_length, len(family.targets)
    if dist.string_length != N + n - 1:
        raise ValueError(
            f"distribution length {dist.string_length} does not match {N} positions "
            f"of window length {n}"
        )
    targets = family.targets
    total = dist.deficit_weight
    for _, windows, weight in dist.windows(n):
        if all(w != t for w, t in zip(windows, targets)):
            total += weight
    return ExactProb(total, dist.denominator)


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
    exist.

    The search walks prefixes of the family in lexicographic order over
    integer weights.  A prefix keeps the support strings that match none of
    its windows; choosing the window at a later position removes at most the
    heaviest single-window weight among them there, so a prefix whose
    surviving weight, less that much at each remaining position, still
    reaches epsilon has no qualifying completion and is skipped.  Skipping
    only prefixes without a qualifying family leaves the first one found."""
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
    # an integer avoid weight A certifies exactly when A < epsilon * denominator
    limit = -(-epsilon.numerator * dist.denominator // epsilon.denominator)
    base = dist.deficit_weight
    rows = dist.windows(n)
    weights = [w for _, _, w in rows]
    # columns[p][i]: the window of support string i at position p (all empty
    # when the support is)
    columns = list(zip(*(windows for _, windows, _ in rows))) or [()] * N

    def tally(column, alive: list) -> dict:
        counts = {}
        for i in alive:
            counts[column[i]] = counts.get(column[i], 0) + weights[i]
        return counts

    def options(p: int, alive: list, total: int, tallies: list):
        """The window values at position p, in order, that may lead to a
        qualifying family, each with the strings and weight surviving it and
        the tallies of the later positions over those survivors.  tallies[j]
        maps each window value at position p + j to the weight of the
        survivors showing it there; a child's tallies are a copy less the
        strings its step removes, so no node counts all its survivors."""
        here, later = tallies[0], tallies[1:]
        least = base + total - sum(max(t.values(), default=0) for t in later)
        column, walked_unchanged = columns[p], False
        for v in range(1 << n):
            removed = here.get(v, 0)
            if least - removed >= limit:
                continue
            if not removed:
                # every value the survivors never show here leaves the same
                # subtree, so only the first of them is worth walking
                if walked_unchanged:
                    continue
                walked_unchanged = True
                yield v, alive, total, later
            elif p == N - 1:
                yield v, None, total - removed, None
            else:
                gone = [i for i in alive if column[i] == v]
                gone_weights = [weights[i] for i in gone]
                kept = [t.copy() for t in later]
                for counts, other in zip(kept, columns[p + 1:]):
                    for value, weight in zip(map(other.__getitem__, gone), gone_weights):
                        counts[value] -= weight
                yield v, [i for i in alive if column[i] != v], total - removed, kept

    prefix = []
    alive, total = list(range(len(weights))), sum(weights)
    walk = [options(0, alive, total, [tally(column, alive) for column in columns])]
    # until the prefix is a whole family or its survivors already weigh under
    # the limit; a step back leaves a prefix at least as heavy as the one left
    while len(prefix) < N and base + total >= limit:
        step = next(walk[-1], None)
        if step is None:
            walk.pop()
            if not prefix:
                raise AssertionError("averaged bound held but no family qualified")
            prefix.pop()
        else:
            v, alive, total, tallies = step
            prefix.append(v)
            walk.append(options(len(prefix), alive, total, tallies))
    if len(prefix) < N:
        # every completion qualifies, and zeros are the first of them
        rest = columns[len(prefix):]
        total = sum(weights[i] for i in alive if all(column[i] for column in rest))
        prefix += [0] * len(rest)
    return PositionalFamily(n, tuple(prefix), ExactProb(base + total, dist.denominator))


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
