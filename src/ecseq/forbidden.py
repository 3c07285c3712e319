"""Random forbidden-substring families with exact certificates.

A family assigns to some lengths a set of forbidden strings: random levels
are uniform fixed-size subsets of a pool, the deterministic top level is the
predicate-backed set of "simple" strings (strings whose aligned blocks take
few distinct values, possibly recursively) together with an exact cardinality
certificate.  Hit probabilities over the random draws are exact hypergeometric
rationals, which also drive derandomization by averaging and the interval
schedule construction.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import (BitString, CertificateError, ExactProb, FiniteDistribution,
                   RandomSource, binom, frac_from_str, frac_to_str, pow2_floor)

ENUMERATION_CAP = 1 << 22


class AveragedBoundError(CertificateError):
    """The averaged existence bound fails for the requested parameters."""


class PoolTooSmallError(ValueError):
    """A sampling pool holds fewer strings than the requested set size."""


def distinct_substrings(x: BitString, length: int) -> int:
    """Number of distinct windows of the given length, all offsets."""
    if length > len(x):
        raise ValueError(f"window length {length} exceeds string length {len(x)}")
    return len(set(x.numeral_windows(length)))


def surjections(positions: int, classes: int) -> int:
    """Functions from `positions` slots onto exactly `classes` values."""
    if classes < 0 or positions < 0:
        raise ValueError("arguments must be non-negative")
    if classes == 0:
        return 1 if positions == 0 else 0
    total = 0
    for drop in range(classes + 1):
        term = binom(classes, drop) * (classes - drop) ** positions
        total += -term if drop & 1 else term
    return total


def count_limited_block_strings(pool_size: int, block_count: int, threshold: int) -> int:
    """Strings of `block_count` aligned blocks drawn from a pool, using at
    most `threshold` distinct block values."""
    top = min(threshold, block_count, pool_size)
    return sum(binom(pool_size, j) * surjections(block_count, j) for j in range(1, top + 1))


def is_chain_simple(numeral: int, length: int, chain) -> bool:
    """Recursive simplicity: aligned blocks at each chain stage stay within
    the stage threshold and are themselves simple at the previous stage.

    chain is a tuple of (block_length, threshold), innermost stage first;
    an empty chain accepts everything.
    """
    if not chain:
        return True
    block_length, threshold = chain[-1]
    if length % block_length:
        raise ValueError(f"block length {block_length} does not divide {length}")
    count = length // block_length
    mask = (1 << block_length) - 1
    blocks = set()
    for i in range(count):
        blocks.add((numeral >> ((count - 1 - i) * block_length)) & mask)
    if len(blocks) > threshold:
        return False
    inner = chain[:-1]
    if not inner:
        return True
    return all(is_chain_simple(b, block_length, inner) for b in blocks)


def count_chain(chain, length: int) -> int:
    """Exact cardinality of the recursively simple strings of a length."""
    if not chain:
        return 1 << length
    block_length, threshold = chain[-1]
    if length % block_length:
        raise ValueError(f"block length {block_length} does not divide {length}")
    pool = count_chain(chain[:-1], block_length)
    return count_limited_block_strings(pool, length // block_length, threshold)


def is_simple(x: BitString, block_length: int, threshold: int) -> bool:
    """True when the aligned blocks of x take at most `threshold` values."""
    return is_chain_simple(x.to_numeral(), len(x), ((block_length, threshold),))


def count_simple(total_length: int, block_length: int, threshold: int) -> int:
    return count_chain(((block_length, threshold),), total_length)


def miss_probability_random_set(distinct_count: int, length: int, set_size: int) -> ExactProb:
    """Probability that a uniform size-s subset of the length-n cube misses a
    fixed set of d strings: C(2**n - d, s) / C(2**n, s)."""
    cube = 1 << length
    if not 0 <= distinct_count <= cube:
        raise ValueError("distinct count out of range")
    if not 0 <= set_size <= cube:
        raise ValueError("set size out of range")
    return ExactProb(binom(cube - distinct_count, set_size), binom(cube, set_size))


def _floyd_sample(universe: int, size: int, rs: RandomSource) -> set:
    """Uniform size-`size` subset of range(universe)."""
    if size > universe:
        raise PoolTooSmallError(f"cannot sample {size} of {universe}")
    chosen = set()
    for j in range(universe - size, universe):
        t = rs.below(j + 1)
        chosen.add(j if t in chosen else t)
    return chosen


def sample_uniform_set(length: int, size: int, rs: RandomSource) -> frozenset:
    """Uniformly random set of `size` distinct strings of a length."""
    numerals = _floyd_sample(1 << length, size, rs)
    return frozenset(BitString.from_numeral(v, length) for v in numerals)


def enumerate_chain_pool(chain, length: int, cap: int = ENUMERATION_CAP) -> list:
    """All recursively simple numerals of a length, ascending.  Enumeration
    filters the full cube, so the length must stay at desk scale."""
    if (1 << length) > cap:
        raise ValueError(f"pool enumeration over 2**{length} strings exceeds the cap")
    return [v for v in range(1 << length) if is_chain_simple(v, length, chain)]


@dataclass(frozen=True)
class SampledLevel:
    """A realized uniform draw from a pool (the full cube, or the recursively
    simple strings described by pool_chain)."""

    length: int
    strings: frozenset  # numerals
    pool_chain: tuple
    pool_size: int


@dataclass(frozen=True)
class ImplicitLevel:
    """Predicate-backed deterministic level with an exact size certificate."""

    length: int
    chain: tuple
    cardinality: int


class Scanner:
    """Aho-Corasick automaton (CACM 18(6), 1975) over the bits 0 and 1 for
    forbidden strings given as {length: numerals}.  State 0 is the empty
    prefix, goto[s][b] the state after reading bit b in state s, and ends[s]
    the sorted lengths of the forbidden strings that end on reaching s."""

    def __init__(self, patterns: dict):
        goto, ends = [[0, 0]], [set()]  # in the trie, child 0 means no child
        for n, numerals in patterns.items():
            for v in numerals:
                s = 0
                for i in reversed(range(n)):
                    b = (v >> i) & 1
                    if not goto[s][b]:
                        goto[s][b] = len(goto)
                        goto.append([0, 0])
                        ends.append(set())
                    s = goto[s][b]
                ends[s].add(n)
        # breadth first, so each failure state is complete before it is used
        fail, order = [0] * len(goto), [child for child in goto[0] if child]
        for s in order:
            ends[s] |= ends[fail[s]]
            for b, child in enumerate(goto[s]):
                if child:
                    fail[child] = goto[fail[s]][b]
                    order.append(child)
                else:
                    goto[s][b] = goto[fail[s]][b]
        self.goto, self.ends = goto, [tuple(sorted(lengths)) for lengths in ends]
        self.longest = max((n for n, numerals in patterns.items() if numerals), default=0)

    def occurrences(self, bits, start: int = 0):
        """Yield (position, length) of every forbidden string in the bit
        sequence that starts at or after `start`, in order of end position."""
        goto, ends = self.goto, self.ends
        s = 0
        for i in range(start, len(bits)):
            s = goto[s][bits[i]]
            for n in ends[s]:
                yield i - n + 1, n

    def first(self, bits, start: int = 0):
        """The leftmost occurrence at or after `start`, shortest on ties, or
        None.  A longer string ending up to longest - 1 bits after the first
        match can start before it, so the scan looks that far ahead."""
        best = None
        for k, n in self.occurrences(bits, start):
            if best is not None and k + n >= best[0] + self.longest:
                break  # it ends too late to start before best
            if best is None or k < best[0]:
                best = (k, n)
        return best


class LevelFamily:
    """Per-length forbidden sets with certified sizes at most floor(2**(alpha*i))."""

    def __init__(self, alpha, levels, enforce_bounds: bool = True):
        alpha = Fraction(alpha)
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.levels = {}
        for level in levels:
            if level.length < 1:
                raise ValueError(f"level length {level.length} is not positive")
            if level.length in self.levels:
                raise ValueError(f"duplicate level length {level.length}")
            if isinstance(level, SampledLevel):
                if any(v < 0 or v >> level.length for v in level.strings):
                    raise ValueError(f"level {level.length} holds an out-of-range string")
                size = len(level.strings)
            else:
                size = level.cardinality
            if enforce_bounds and size > self.size_bound(level.length):
                raise CertificateError(
                    f"level {level.length} holds {size} strings, bound is "
                    f"{self.size_bound(level.length)}"
                )
            self.levels[level.length] = level
        self._scanner = None

    def size_bound(self, length: int) -> int:
        return pow2_floor(self.alpha * length)

    def level_lengths(self) -> list:
        return sorted(self.levels)

    @property
    def string_length(self) -> int:
        return max(self.levels)

    def sampled_levels(self) -> list:
        return [lv for _, lv in sorted(self.levels.items())
                if isinstance(lv, SampledLevel)]

    def implicit_top(self) -> Optional[ImplicitLevel]:
        top = self.levels.get(self.string_length)
        return top if isinstance(top, ImplicitLevel) else None

    def explicit_only(self) -> bool:
        return all(isinstance(lv, SampledLevel) for lv in self.levels.values())

    def scanner(self) -> Scanner:
        """The automaton of the sampled levels, built on first use."""
        if self._scanner is None:
            self._scanner = Scanner({lv.length: lv.strings for lv in self.sampled_levels()})
        return self._scanner

    def membership(self, length: int, numeral: int) -> bool:
        level = self.levels.get(length)
        if level is None:
            return False
        if isinstance(level, SampledLevel):
            return numeral in level.strings
        return is_chain_simple(numeral, length, level.chain)

    def size_of(self, length: int) -> int:
        level = self.levels[length]
        return len(level.strings) if isinstance(level, SampledLevel) else level.cardinality

    def to_json(self) -> dict:
        entries = []
        for length in self.level_lengths():
            level = self.levels[length]
            if isinstance(level, SampledLevel):
                digits = max((length + 3) // 4, 1)
                entries.append({
                    "length": length,
                    "kind": "sampled",
                    "strings_hex": [format(v, f"0{digits}x") for v in sorted(level.strings)],
                    "pool_chain": [list(p) for p in level.pool_chain],
                    "pool_size": str(level.pool_size),
                })
            else:
                entries.append({
                    "length": length,
                    "kind": "implicit",
                    "chain": [list(p) for p in level.chain],
                    "cardinality": str(level.cardinality),
                })
        return {"alpha": frac_to_str(self.alpha), "levels": entries}

    @classmethod
    def from_json(cls, doc: dict) -> "LevelFamily":
        """Parse a family written by to_json; ValueError on any other shape."""
        try:
            levels = []
            for entry in doc["levels"]:
                length = entry["length"]
                if entry["kind"] == "sampled":
                    levels.append(SampledLevel(
                        length,
                        frozenset(int(h, 16) for h in entry["strings_hex"]),
                        tuple(tuple(p) for p in entry.get("pool_chain", [])),
                        int(entry["pool_size"]),
                    ))
                elif entry["kind"] == "implicit":
                    levels.append(ImplicitLevel(
                        length,
                        tuple(tuple(p) for p in entry["chain"]),
                        int(entry["cardinality"]),
                    ))
                else:
                    raise ValueError(f"unknown level kind {entry['kind']!r}")
            return cls(frac_from_str(doc["alpha"]), levels)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed family JSON ({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class TwoLevelCertificate:
    random_length: int
    top_length: int
    threshold: int
    sample_size: int
    miss_bound: Fraction      # (1 - 2**-ceil(n/2)) ** sample_size, below epsilon
    epsilon: Fraction
    top_cardinality: int
    top_size_bound: int


def two_level_family(alpha, epsilon, min_random_length: int, rs: RandomSource):
    """Family with one uniform random level and one deterministic simple-block
    top level; every string of the top length hits it with probability above
    1 - epsilon over the random draw.

    The random length n is the smallest admissible length at least
    min_random_length; the top length is the smallest multiple of n whose
    simple-string count fits under the size bound.  Both choices are certified
    in exact arithmetic.

    The length choice uses the closed form (1 - 2**-ceil(n/2))**size, the
    with-replacement estimate; it upper-bounds the exact hypergeometric miss
    probability (drawing a set, without replacement, can only help), so any
    string with at least 2**ceil(n/2) distinct substrings is hit with
    probability above 1 - epsilon.
    """
    alpha = Fraction(alpha)
    if not Fraction(1, 2) < alpha < 1:
        raise ValueError("two-level construction needs alpha in (1/2, 1)")
    epsilon = ExactProb(epsilon)
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    n = max(1, min_random_length)
    while True:
        threshold = 1 << ((n + 1) // 2)
        size = pow2_floor(alpha * n)
        if 1 <= size:
            miss_bound = (1 - Fraction(1, threshold)) ** size
            if miss_bound < epsilon:
                break
        n += 1
    top_length = n
    while (top := _simple_top(alpha, n, top_length)) is None:
        top_length += n
    strings = frozenset(b.to_numeral() for b in sample_uniform_set(n, size, rs))
    family = LevelFamily(alpha, [SampledLevel(n, strings, (), 1 << n), top])
    certificate = TwoLevelCertificate(n, top_length, threshold, size, miss_bound,
                                      Fraction(epsilon), top.cardinality,
                                      pow2_floor(alpha * top_length))
    return family, certificate


def random_level_family(alpha, lengths, rs: RandomSource) -> LevelFamily:
    """Explicit levels, the avoider's input shape: at each length n, a uniform
    draw of floor(2**(alpha*n)) strings from substream n of rs."""
    alpha = Fraction(alpha)
    levels = []
    for n in lengths:
        strings = sample_uniform_set(n, pow2_floor(alpha * n), rs.substream(n))
        levels.append(SampledLevel(n, frozenset(b.to_numeral() for b in strings), (), 1 << n))
    return LevelFamily(alpha, levels)


@dataclass(frozen=True)
class LayeredParams:
    """Shape of a multi-level family: strictly increasing lengths forming a
    divisibility chain, with a distinctness threshold per sampled level."""

    alpha: Fraction
    lengths: tuple
    thresholds: tuple
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        lengths = tuple(self.lengths)
        thresholds = tuple(self.thresholds)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "thresholds", thresholds)
        stages = len(lengths) - 1
        if stages < 1:
            raise ValueError("need at least two lengths")
        if len(thresholds) != stages:
            raise ValueError("need one threshold per sampled level")
        if self.alpha <= Fraction(1, stages + 1):
            raise ValueError(f"{stages + 1} levels need alpha > 1/{stages + 1}")
        for a, b in zip(lengths, lengths[1:]):
            if a >= b or b % a:
                raise ValueError("lengths must increase and form a divisibility chain")

    @classmethod
    def with_default_thresholds(cls, alpha, lengths, epsilon=None) -> "LayeredParams":
        """Thresholds 2**ceil(length * (t + 1 - j) / (t + 1)) for stage j,
        matching 2**ceil(n/2) in the two-level case."""
        lengths = tuple(lengths)
        stages = len(lengths) - 1
        thresholds = tuple(
            1 << math.ceil(Fraction(lengths[j] * (stages + 1 - (j + 1)), stages + 1))
            for j in range(stages)
        )
        return cls(Fraction(alpha), lengths, thresholds, epsilon)


@dataclass(frozen=True)
class MultiLevelCertificate:
    lengths: tuple
    thresholds: tuple
    sample_sizes: tuple
    pool_sizes: tuple
    top_cardinality: int
    top_size_bound: int


def multi_level_family(params: LayeredParams, rs: RandomSource,
                       require_top_bound: bool = True):
    """Layered family: stage j samples from the strings that are recursively
    simple through the previous stages; the top level is the implicit set of
    fully recursively simple strings with its exact count."""
    alpha = params.alpha
    lengths, thresholds = params.lengths, params.thresholds
    levels = []
    sizes, pools = [], []
    for j, length in enumerate(lengths[:-1]):
        chain = tuple((lengths[i], thresholds[i]) for i in range(j))
        size = pow2_floor(alpha * length)
        if j == 0:
            pool_size = 1 << length
            strings = frozenset(_floyd_sample(pool_size, size, rs))
        else:
            pool = enumerate_chain_pool(chain, length)
            pool_size = len(pool)
            if size > pool_size:
                raise PoolTooSmallError(
                    f"stage {j} wants {size} strings but the simple pool holds {pool_size}"
                )
            picks = _floyd_sample(pool_size, size, rs)
            strings = frozenset(pool[i] for i in picks)
        levels.append(SampledLevel(length, strings, chain, pool_size))
        sizes.append(size)
        pools.append(pool_size)
    top_chain = tuple(zip(lengths[:-1], thresholds))
    cardinality = count_chain(top_chain, lengths[-1])
    top_bound = pow2_floor(alpha * lengths[-1])
    if require_top_bound and cardinality > top_bound:
        raise CertificateError(
            f"top level holds {cardinality} strings, bound is {top_bound}; enlarge the top length"
        )
    levels.append(ImplicitLevel(lengths[-1], top_chain, cardinality))
    family = LevelFamily(alpha, levels, enforce_bounds=require_top_bound)
    certificate = MultiLevelCertificate(lengths, thresholds, tuple(sizes), tuple(pools),
                                        cardinality, top_bound)
    return family, certificate


def hit_probability(x: BitString, family: LevelFamily) -> ExactProb:
    """Exact probability, over the family's random draws, that some level
    intersects the substrings of x.  Deterministic top membership gives 1;
    otherwise the sampled levels miss independently with hypergeometric
    probabilities driven by x's distinct in-pool substring counts."""
    if len(x) != family.string_length:
        raise ValueError(f"string length {len(x)} does not match family top "
                         f"{family.string_length}")
    top = family.implicit_top()
    if top is not None and is_chain_simple(x.to_numeral(), len(x), top.chain):
        return ExactProb(1)
    miss = Fraction(1)
    for level in family.sampled_levels():
        windows = set(x.numeral_windows(level.length))
        if level.pool_chain:
            windows = {w for w in windows
                       if is_chain_simple(w, level.length, level.pool_chain)}
        # the draw only ever contains pool members, so only in-pool windows count
        miss *= Fraction(binom(level.pool_size - len(windows), len(level.strings)),
                         binom(level.pool_size, len(level.strings)))
    return ExactProb(1 - miss)


def family_avoids(x: BitString, family: LevelFamily) -> bool:
    """True when no realized level of the family occurs as a substring of x."""
    top = family.implicit_top()
    if top is not None and is_chain_simple(x.to_numeral(), len(x), top.chain):
        return False
    return next(family.scanner().occurrences(x.to_bits()), None) is None


def family_avoid_probability(dist: FiniteDistribution, family: LevelFamily) -> ExactProb:
    """Mass of the strings avoiding the realized family; deficit counts as
    avoiding (worst case)."""
    if dist.string_length != family.string_length:
        raise ValueError("distribution length does not match family top length")
    total = Fraction(dist.deficit)
    for x, mass in dist.items():
        if family_avoids(x, family):
            total += mass
    return ExactProb(total)


def _simple_top(alpha: Fraction, ln: int, n_total: int) -> Optional[ImplicitLevel]:
    """The simple-string top level over blocks of length ln, when n_total is a
    multiple of ln and its exact count fits the size bound."""
    threshold = 1 << ((ln + 1) // 2)
    if n_total % ln == 0:
        cardinality = count_simple(n_total, ln, threshold)
        if cardinality <= pow2_floor(alpha * n_total):
            return ImplicitLevel(n_total, ((ln, threshold),), cardinality)
    return None


def _drawn_family(alpha: Fraction, ln: int, strings, top, n_total: int) -> LevelFamily:
    # an empty top keeps the family's string length pinned to the dist length
    return LevelFamily(alpha, [
        SampledLevel(ln, frozenset(strings), (), 1 << ln),
        top if top is not None else SampledLevel(n_total, frozenset(), (), 1 << n_total),
    ])


def derandomize_family(dist: FiniteDistribution, alpha, epsilon, rs: RandomSource,
                       level_length: int = None, max_tries: int = 100000):
    """Concrete family whose exact avoid probability under dist is below
    epsilon, found by enumerating substream draws.

    Existence comes from averaging: the mean avoid probability over draws is
    the mass-weighted miss probability, which is checked first in exact
    arithmetic (deficit counted as avoiding) and must already be below
    epsilon.  The deterministic simple-string top level is attached whenever
    its exact count fits the size bound."""
    alpha = Fraction(alpha)
    epsilon = ExactProb(epsilon)
    n_total = dist.string_length
    candidates = [level_length] if level_length is not None else list(range(1, n_total))
    for ln in candidates:
        if not 0 < ln < n_total:
            continue
        size = pow2_floor(alpha * ln)
        if size < 1 or size > (1 << ln):
            continue
        top = _simple_top(alpha, ln, n_total)
        average = Fraction(dist.deficit)
        for x, mass in dist.items():
            if top is not None and is_chain_simple(x.to_numeral(), n_total, top.chain):
                continue
            d = distinct_substrings(x, ln)
            average += Fraction(mass) * Fraction(miss_probability_random_set(d, ln, size))
        if average < epsilon:
            break
    else:
        raise AveragedBoundError(
            f"averaged avoid bound not below {frac_to_str(epsilon)} for any admissible level"
        )
    for attempt in range(max_tries):
        strings = _floyd_sample(1 << ln, size, rs.substream(attempt))
        family = _drawn_family(alpha, ln, strings, top, n_total)
        certificate = family_avoid_probability(dist, family)
        if certificate < epsilon:
            return family, certificate
    raise CertificateError(f"no draw beat the bound within {max_tries} attempts")


def recertify_family(dist: FiniteDistribution, alpha, epsilon, witness: LevelFamily,
                     level_length: int = None):
    """Check a family that derandomize_family reported, without repeating its
    draws: rebuild the family it makes around the witness's drawn strings, and
    require that family's exact avoid probability to be below epsilon.

    The drawn level is the witness's shortest when level_length is None.
    Returns (family, certificate)."""
    alpha = Fraction(alpha)
    n_total = dist.string_length
    ln = min(witness.levels) if level_length is None else level_length
    drawn = witness.levels.get(ln)
    if not (0 < ln < n_total and isinstance(drawn, SampledLevel)
            and len(drawn.strings) == pow2_floor(alpha * ln)):
        raise CertificateError(f"the witness holds no full draw of length {ln} "
                               f"below length {n_total}")
    family = _drawn_family(alpha, ln, drawn.strings, _simple_top(alpha, ln, n_total), n_total)
    certificate = family_avoid_probability(dist, family)
    if not certificate < epsilon:
        raise CertificateError(f"avoid probability {frac_to_str(certificate)} is not below "
                               f"{frac_to_str(epsilon)}")
    return family, certificate


@dataclass(frozen=True)
class ScheduleEntry:
    lower: int            # lengths used lie strictly above this
    upper: int            # top length of the interval's family
    epsilon: ExactProb
    family: LevelFamily
    certificate: ExactProb


def _next_interval(entries: list, first_length: int):
    """Level length and epsilon of the schedule's next interval: its lengths
    lie above the previous interval, and interval i gets epsilon 2**-i."""
    ln = entries[-1].upper + 2 if entries else first_length
    return ln, ExactProb(1, 1 << (len(entries) + 1))


def interval_schedule(dist_for_length: Callable[[int], FiniteDistribution], alpha,
                      count: int, rs: RandomSource, first_length: int = 2,
                      max_length: int = 64) -> list:
    """Disjoint increasing length intervals, each carrying a derandomized
    family with avoid probability below 2**-i; the epsilon series is summable
    so the certificates stack."""
    if count < 1:
        raise ValueError("need at least one interval")
    entries = []
    for i in range(1, count + 1):
        ln, epsilon = _next_interval(entries, first_length)
        for top_length in range(ln + 1, max_length + 1):
            dist = dist_for_length(top_length)
            try:
                family, certificate = derandomize_family(
                    dist, alpha, epsilon, rs.substream(i), level_length=ln)
            except AveragedBoundError:
                continue
            break
        else:
            raise AveragedBoundError(
                f"interval {i}: no top length up to {max_length} admits the bound"
            )
        entries.append(ScheduleEntry(ln - 1, top_length, epsilon, family, certificate))
    return entries


def recertify_schedule(dist_for_length: Callable[[int], FiniteDistribution], alpha,
                       count: int, witnesses: list, first_length: int = 2) -> list:
    """Check a schedule that interval_schedule reported, without repeating its
    search: each witness family is re-certified by recertify_family at the
    level length and epsilon of its interval, against the distribution of its
    own top length."""
    if len(witnesses) != count:
        raise CertificateError(f"a schedule of {count} intervals lists {len(witnesses)}")
    entries = []
    for witness in witnesses:
        ln, epsilon = _next_interval(entries, first_length)
        upper = witness.string_length
        family, certificate = recertify_family(dist_for_length(upper), alpha, epsilon,
                                               witness, level_length=ln)
        entries.append(ScheduleEntry(ln - 1, upper, epsilon, family, certificate))
    return entries
