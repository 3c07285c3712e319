"""Random forbidden-substring families with exact certificates.

A family assigns to some lengths a set of forbidden strings: random levels
are uniform fixed-size subsets of the cube of their length, the deterministic
top level is the predicate-backed set of "simple" strings (strings whose
aligned blocks take few distinct values) together with an exact cardinality
certificate.  Hit probabilities over the random draws are exact hypergeometric
rationals, which also drive derandomization by averaging and the interval
schedule construction.
"""

import math
from fractions import Fraction
from itertools import compress, islice
from operator import and_, itemgetter
from typing import Callable, NamedTuple, Optional

from .core import (SIZE_LIMIT_BITS, CertificateError, ExactProb, FiniteDistribution,
                   RandomSource, frac_to_str, json_exact, pow2_at_most, pow2_floor,
                   read_back)

MAX_DRAWS = 100000  # substream draws derandomize_family tries before giving up
# the longest sampled level a family file holds: its pool_size 2**14284 has 4300
# digits, the most that int and str convert by default
MAX_POOL_LENGTH = 14284


class AveragedBoundError(CertificateError):
    """The averaged existence bound fails for the requested parameters."""


def is_simple(numeral: int, length: int, block_length: int, threshold: int) -> bool:
    """Whether the aligned blocks of block_length bits of the string take at
    most `threshold` distinct values."""
    if length % block_length:
        raise ValueError(f"block length {block_length} does not divide {length}")
    mask = (1 << block_length) - 1
    blocks = {(numeral >> shift) & mask for shift in range(0, length, block_length)}
    return len(blocks) <= threshold


def simple_counts(block_length: int, threshold: int):
    """Yield the exact number of simple strings of 1, 2, 3, ... aligned blocks
    of block_length bits.  row[k] counts the strings whose blocks take exactly
    k values: one more block repeats one of the k, or is one of the pool - k + 1
    values new to a string of k - 1 (Stanley, Enumerative Combinatorics I,
    section 1.9).  No string takes more values than the pool holds."""
    pool = 1 << block_length
    row = [1] + [0] * min(threshold, pool)  # no blocks: the empty string
    while True:
        for k in range(len(row) - 1, 0, -1):
            row[k] = k * row[k] + (pool - k + 1) * row[k - 1]
        row[0] = 0
        yield sum(row)


def count_simple(total_length: int, block_length: int, threshold: int) -> int:
    """Exact number of simple strings of total_length bits."""
    if total_length % block_length:
        raise ValueError(f"block length {block_length} does not divide {total_length}")
    if total_length < 1:
        raise ValueError(f"total length {total_length} is not positive")
    return next(islice(simple_counts(block_length, threshold),
                       total_length // block_length - 1, None))


def miss_probability_random_set(distinct_count: int, length: int, set_size: int) -> ExactProb:
    """Probability that a uniform size-s subset of the length-n cube misses a
    fixed set of d strings: C(2**n - d, s) / C(2**n, s)."""
    cube = 1 << length
    if not 0 <= distinct_count <= cube:
        raise ValueError("distinct count out of range")
    if not 0 <= set_size <= cube:
        raise ValueError("set size out of range")
    return ExactProb(math.comb(cube - distinct_count, set_size), math.comb(cube, set_size))


def _check_pool(length: int) -> None:
    """ValueError unless a sampled level of the length fits a family file."""
    if length > MAX_POOL_LENGTH:
        raise ValueError(f"level {length} is longer than {MAX_POOL_LENGTH} bits, so its "
                         f"pool_size 2**{length} has more than 4300 digits")


def _sampled_size(alpha: Fraction, length: int) -> int:
    """The floor(2**(alpha*length)) strings a sampled level draws, at most
    2**SIZE_LIMIT_BITS, in a level that fits a family file."""
    if alpha * length > SIZE_LIMIT_BITS:
        raise ValueError(f"level {length} would draw more than 2**{SIZE_LIMIT_BITS} strings")
    _check_pool(length)
    return pow2_floor(alpha * length)


def sample_uniform_set(length: int, size: int, rs: RandomSource) -> frozenset:
    """Uniformly random set of `size` distinct strings of a length, as
    numerals, by Floyd's algorithm."""
    universe = 1 << length
    if size > universe:
        raise ValueError(f"cannot sample {size} of {universe}")
    chosen = set()
    for j in range(universe - size, universe):
        t = rs.below(j + 1)
        chosen.add(j if t in chosen else t)
    return frozenset(chosen)


class ImplicitLevel(NamedTuple):
    """The simple strings of a length (see is_simple), with their exact count."""

    length: int
    block_length: int
    threshold: int
    cardinality: int

    def holds(self, numeral: int) -> bool:
        return is_simple(numeral, self.length, self.block_length, self.threshold)


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

    def occurrences(self, bits, start: int = 0):
        """Yield (position, length) of every forbidden string that starts at
        or after `start`, in order of end position.  `bits` is the bytes of a
        bit string's text or a sequence of 0s and 1s: either way, the low bit
        of each item is the bit."""
        goto, ends = self.goto, self.ends
        s = 0
        for i in range(start, len(bits)):
            s = goto[s][bits[i] & 1]
            for n in ends[s]:
                yield i - n + 1, n


def read_alpha(value) -> Fraction:
    """alpha from its JSON string, such as "3/10", in (0, 1].
    floor(2**(alpha*n)) is the q-th root of 2**p for alpha*n = p/q, and p is
    at most alpha's numerator times n, so a numerator above 2**10 in lowest
    terms, and an alpha above 1, are refused before any power of 2 is built."""
    alpha = Fraction(json_exact(value, str))
    if alpha.numerator > 1 << 10:
        raise ValueError(f"alpha {frac_to_str(alpha)} has a numerator above {1 << 10}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha {frac_to_str(alpha)} is not in (0, 1]")
    return alpha


class LevelFamily:
    """Per-length forbidden sets with certified sizes at most floor(2**(alpha*i)).

    levels maps each length, in increasing order, to the numerals of its
    forbidden strings.  top, if any, is the simple strings of one length
    longer than every level."""

    def __init__(self, alpha, levels: dict, top: Optional[ImplicitLevel] = None):
        alpha = Fraction(alpha)
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha, self.top = alpha, top
        self.levels = {n: frozenset(levels[n]) for n in sorted(levels)}
        sizes = {n: len(strings) for n, strings in self.levels.items()}
        if top is not None:
            if sizes and top.length <= max(sizes):
                raise ValueError(f"the implicit level of length {top.length} is not longer "
                                 f"than level {max(sizes)}")
            sizes[top.length] = top.cardinality
        for n, size in sizes.items():
            if n < 1:
                raise ValueError(f"level length {n} is not positive")
            if any(v < 0 or v >> n for v in self.levels.get(n, ())):
                raise ValueError(f"level {n} holds an out-of-range string")
            if not pow2_at_most(size, alpha * n):
                raise CertificateError(f"level {n} holds {size} strings, above 2**({alpha * n})")

    def size_bound(self, length: int) -> int:
        return pow2_floor(self.alpha * length)

    @property
    def string_length(self) -> int:
        return self.top.length if self.top is not None else max(self.levels)

    def to_json(self) -> dict:
        entries = [{"length": n, "kind": "sampled",
                    "strings_hex": [format(v, f"0{(n + 3) // 4}x") for v in sorted(strings)],
                    "pool_chain": [], "pool_size": str(1 << n)}
                   for n, strings in self.levels.items()]
        if self.top is not None:
            top = self.top
            entries.append({"length": top.length, "kind": "implicit",
                            "chain": [[top.block_length, top.threshold]],
                            "cardinality": str(top.cardinality)})
        return {"alpha": frac_to_str(self.alpha), "levels": entries}

    @classmethod
    def from_json(cls, doc: dict) -> "LevelFamily":
        """Parse a family as to_json writes it: ValueError unless to_json
        writes doc again (core.read_back).  A sampled level's pool_size,
        2**length, is compared by bit length first, so a huge length builds no
        power; a level of another kind is the one implicit top."""
        def parse(doc):
            levels, tops = {}, []
            for entry in doc["levels"]:
                length = json_exact(entry["length"], int)
                if entry["kind"] == "sampled":
                    _check_pool(length)
                    if int(entry["pool_size"]).bit_length() != length + 1:
                        raise ValueError(f"level {length} draws from a pool other than "
                                         f"all strings of its length")
                    levels[length] = [int(h, 16) for h in entry["strings_hex"]]
                else:
                    chain = entry["chain"]
                    if len(chain) != 1 or len(chain[0]) != 2:
                        raise ValueError(f"level {length} needs a chain of one "
                                         f"[block_length, threshold] pair")
                    tops.append(ImplicitLevel(length, *(json_exact(v, int) for v in chain[0]),
                                              int(entry["cardinality"])))
            if len(tops) > 1:
                raise ValueError(f"a family has at most one implicit level, got {len(tops)}")
            return cls(read_alpha(doc["alpha"]), levels, *tops)
        return read_back(doc, parse, cls.to_json, "family JSON")


class TwoLevelCertificate(NamedTuple):
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

    The random length n is the smallest length at least min_random_length
    with ceil(n/2) < alpha*n, so that some top fits, and a miss bound below
    epsilon; the top length is the smallest multiple of n whose simple-string
    count, carried from one multiple to the next, fits under the size bound.
    Both choices are certified in exact arithmetic.

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
    if min_random_length < 1:
        raise ValueError(f"the least random length must be positive, got {min_random_length}")
    n = min_random_length
    while True:
        size = _sampled_size(alpha, n)
        threshold = 1 << ((n + 1) // 2)
        # with ceil(n/2) >= alpha*n, the simple strings of any number of
        # blocks outnumber 2**(alpha*n*blocks), so no top length would fit
        if 1 <= size and (n + 1) // 2 < alpha * n:
            # its denominator is 2**(ceil(n/2)*size), and grows with n
            if (n + 1) // 2 * size > MAX_POOL_LENGTH:
                raise ValueError(f"at random length {n} the miss_bound's denominator "
                                 f"2**{(n + 1) // 2 * size} has more than 4300 digits")
            miss_bound = (1 - Fraction(1, threshold)) ** size
            if miss_bound < epsilon:
                break
        n += 1
    # a top of `blocks` blocks may hold floor(2**(p*blocks/q)) strings, for alpha*n =
    # p/q: a count of b bits is below 2**b and at least 2**(b - 1), so bit lengths
    # decide it unless p*blocks/q lies in [b - 1, b), where pow2_at_most decides
    p, q = (alpha * n).numerator, (alpha * n).denominator
    for blocks, cardinality in enumerate(simple_counts(n, threshold), start=1):
        b = cardinality.bit_length()
        if b * q <= p * blocks or ((b - 1) * q <= p * blocks
                                   and pow2_at_most(cardinality, Fraction(p * blocks, q))):
            break
    top_size_bound = pow2_floor(alpha * n * blocks)
    top = ImplicitLevel(n * blocks, n, threshold, cardinality)
    family = LevelFamily(alpha, {n: sample_uniform_set(n, size, rs)}, top)
    certificate = TwoLevelCertificate(n, top.length, threshold, size, miss_bound,
                                      Fraction(epsilon), cardinality, top_size_bound)
    return family, certificate


def random_level_family(alpha, lengths, rs: RandomSource) -> LevelFamily:
    """Explicit levels, the avoider's input shape: at each length n, a uniform
    draw of floor(2**(alpha*n)) strings from substream n of rs."""
    alpha = Fraction(alpha)
    sizes = {}  # every level is sized, and so checked, before any is drawn
    for n in lengths:
        if n in sizes:
            raise ValueError(f"duplicate level length {n}")
        sizes[n] = _sampled_size(alpha, n)
    return LevelFamily(alpha, {n: sample_uniform_set(n, size, rs.substream(n))
                               for n, size in sizes.items()})


def family_avoid_probability(dist: FiniteDistribution, family: LevelFamily) -> ExactProb:
    """Mass of the strings avoiding the realized family; deficit counts as
    avoiding (worst case).

    A string avoids when each non-empty level is disjoint from its windows
    of that level's length, read from dist.windows, and the simple top, if
    any, does not hold it."""
    if dist.string_length != family.string_length:
        raise ValueError("distribution length does not match family top length")
    avoiding = [True] * len(dist.weights)
    for n, strings in family.levels.items():
        if strings:
            disjoint = map(strings.isdisjoint, map(itemgetter(1), dist.windows(n)))
            avoiding = list(map(and_, avoiding, disjoint))
    top = family.top
    if top is not None:
        avoiding = [a and not top.holds(numeral) for a, numeral in zip(avoiding, dist.numerals)]
    return ExactProb(dist.deficit_weight + sum(compress(dist.weights, avoiding)),
                     dist.denominator)


def _simple_top(alpha: Fraction, ln: int, n_total: int) -> Optional[ImplicitLevel]:
    """The simple-string top level over blocks of length ln, when n_total is a
    multiple of ln and its exact count fits the size bound."""
    threshold = 1 << ((ln + 1) // 2)
    if n_total % ln == 0:
        cardinality = count_simple(n_total, ln, threshold)
        if pow2_at_most(cardinality, alpha * n_total):
            return ImplicitLevel(n_total, ln, threshold, cardinality)
    return None


def _longest_level(alpha: Fraction, n_total: int) -> int:
    """The longest level length below n_total that may be admissible: no draw
    of over 2**SIZE_LIMIT_BITS strings is, nor a level longer than MAX_POOL_LENGTH."""
    return min(n_total - 1, SIZE_LIMIT_BITS * alpha.denominator // alpha.numerator,
               MAX_POOL_LENGTH)


def _draw_size(alpha: Fraction, ln: int, n_total: int) -> Optional[int]:
    """Strings drawn at level length ln below top length n_total, or None
    when that level is not admissible."""
    size = pow2_floor(alpha * ln) if 0 < ln <= _longest_level(alpha, n_total) else 0
    return size if 1 <= size <= 1 << ln else None


def _check_deficit(dist: FiniteDistribution, epsilon) -> None:
    """AveragedBoundError when the deficit, which every family's avoid
    probability counts in full, is not below epsilon."""
    if not dist.deficit < epsilon:
        raise AveragedBoundError(f"deficit {frac_to_str(dist.deficit)} is not below epsilon "
                                 f"{frac_to_str(epsilon)}: no family can be certified")


def _averaged_bound(dist: FiniteDistribution, ln: int, size: int,
                    top: Optional[ImplicitLevel]) -> Fraction:
    """Mean avoid probability under dist of the family made of a uniform draw
    of `size` strings of length ln and the simple top, if any; deficit counts
    as avoiding."""
    # strings with the same number d of distinct windows miss alike, so their
    # weights are summed first and each miss probability is used once
    rows = dist.windows(ln)
    counts, weights = map(len, map(set, map(itemgetter(1), rows))), map(itemgetter(2), rows)
    if top is not None:
        kept = [not top.holds(numeral) for numeral, _, _ in rows]
        counts, weights = compress(counts, kept), compress(weights, kept)
    by_count = {}
    for d, weight in zip(counts, weights):
        by_count[d] = by_count.get(d, 0) + weight
    average = Fraction(dist.deficit_weight)
    for d, weight in by_count.items():
        average += weight * miss_probability_random_set(d, ln, size)
    return average / dist.denominator


def _bound_fails_for_all(alpha: Fraction, ln: int, n_total: int, epsilon) -> bool:
    """Whether derandomize_family's averaged bound at level length ln fails
    against every distribution on strings of length n_total.

    Without a simple top, every string misses the draw with probability at
    least that of a string with the most distinct windows any string of
    n_total bits can have, and the average cannot be below that."""
    size = _draw_size(alpha, ln, n_total)
    if size is None:
        return True
    if _simple_top(alpha, ln, n_total) is not None:
        return False
    most = min(n_total - ln + 1, 1 << ln)
    return not miss_probability_random_set(most, ln, size) < epsilon


def _drawn_family(dist: FiniteDistribution, alpha: Fraction, ln: int, strings, top) -> tuple:
    # the family of a draw and the top, if any, with its avoid probability;
    # with no top, an empty level pins the family's string length to dist's
    levels = {ln: strings} if top is not None else {ln: strings, dist.string_length: ()}
    family = LevelFamily(alpha, levels, top)
    return family, family_avoid_probability(dist, family)


def derandomize_family(dist: FiniteDistribution, alpha, epsilon, rs: RandomSource,
                       level_length: int = None):
    """Concrete family whose exact avoid probability under dist is below
    epsilon, found by enumerating substream draws.

    Existence comes from averaging: the mean avoid probability over draws is
    the mass-weighted miss probability, which is checked first in exact
    arithmetic (deficit counted as avoiding) and must already be below
    epsilon.  The deterministic simple-string top level is attached whenever
    its exact count fits the size bound."""
    alpha = Fraction(alpha)
    epsilon = ExactProb(epsilon)
    _check_deficit(dist, epsilon)
    n_total = dist.string_length
    lengths = range(1, _longest_level(alpha, n_total) + 1)
    if level_length is not None and _draw_size(alpha, level_length, n_total) is None:
        admissible = [ln for ln in lengths if _draw_size(alpha, ln, n_total)]
        span = f"{admissible[0]}..{admissible[-1]}" if admissible else "none"
        raise ValueError(f"level length {level_length} is not admissible for strings of "
                         f"length {n_total} at alpha {frac_to_str(alpha)}; admissible: {span}")
    for ln in [level_length] if level_length is not None else lengths:
        size = _draw_size(alpha, ln, n_total)
        if size is None:
            continue
        top = _simple_top(alpha, ln, n_total)
        if _averaged_bound(dist, ln, size, top) < epsilon:
            break
    else:
        raise AveragedBoundError(
            f"averaged avoid bound not below {frac_to_str(epsilon)} for any admissible level"
        )
    if top is None:  # the family's empty level at n_total is a sampled level
        _check_pool(n_total)
    for attempt in range(MAX_DRAWS):
        strings = sample_uniform_set(ln, size, rs.substream(attempt))
        family, certificate = _drawn_family(dist, alpha, ln, strings, top)
        if certificate < epsilon:
            return family, certificate
    raise CertificateError(f"no draw beat the bound within {MAX_DRAWS} attempts")


def recertify_family(dist: FiniteDistribution, alpha, epsilon, witness: LevelFamily,
                     level_length: int = None):
    """Check a family that derandomize_family reported, without repeating its
    draws: rebuild the family it makes around the witness's drawn strings, and
    require that family's exact avoid probability to be below epsilon.

    The drawn level is the witness's shortest when level_length is None.
    Returns (family, certificate)."""
    alpha = Fraction(alpha)
    _check_deficit(dist, epsilon)
    n_total = dist.string_length
    ln = min(witness.levels, default=0) if level_length is None else level_length
    drawn = witness.levels.get(ln, frozenset())
    if len(drawn) != _draw_size(alpha, ln, n_total):
        raise CertificateError(f"the witness holds no full draw of length {ln} "
                               f"below length {n_total}")
    top = _simple_top(alpha, ln, n_total)
    if top is None:  # the family's empty level at n_total is a sampled level
        _check_pool(n_total)
    family, certificate = _drawn_family(dist, alpha, ln, drawn, top)
    if not certificate < epsilon:
        raise CertificateError(f"avoid probability {frac_to_str(certificate)} is not below "
                               f"{frac_to_str(epsilon)}")
    return family, certificate


class ScheduleEntry(NamedTuple):
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
    if first_length < 1:
        raise ValueError(f"the first level length must be positive, got {first_length}")
    entries = []
    for i in range(1, count + 1):
        ln, epsilon = _next_interval(entries, first_length)
        for top_length in range(ln + 1, max_length + 1):
            if _bound_fails_for_all(alpha, ln, top_length, epsilon):
                continue
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
                       count: int, witnesses: list, first_length: int = 2,
                       max_length: int = 64) -> list:
    """Check a schedule that interval_schedule reported, without repeating its
    search: each witness family is re-certified by recertify_family at the
    level length and epsilon of its interval, against the distribution of its
    own top length, which must lie in the range that the search tries."""
    if len(witnesses) != count:
        raise CertificateError(f"a schedule of {count} intervals lists {len(witnesses)}")
    entries = []
    for i, witness in enumerate(witnesses, start=1):
        ln, epsilon = _next_interval(entries, first_length)
        upper = witness.string_length
        if not ln < upper <= max_length:
            raise CertificateError(f"interval {i}: top length {upper} is not above level "
                                   f"length {ln} and at most max_length {max_length}")
        family, certificate = recertify_family(dist_for_length(upper), alpha, epsilon,
                                               witness, level_length=ln)
        entries.append(ScheduleEntry(ln - 1, upper, epsilon, family, certificate))
    return entries
