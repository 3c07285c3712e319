"""Slow or convenient reference implementations that only the tests use.

Each one restates, by enumeration or by the plainest loop, something the
library computes another way, so a test can compare the two.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from ecseq import spreader
from ecseq.core import (BIT_FILE_MAGIC, ExactProb, FiniteDistribution, RandomSource,
                        frac_to_str, pow2_floor)
from ecseq.forbidden import LevelFamily, Scanner, miss_probability_random_set
from ecseq.proxy import LENGTH_HEADER_BITS
from ecseq.spreader import Allocation


class OracleBitString:
    """The bit string value type the library used to have, kept as the oracle
    of its bit layer (core.fold_bits, pack_bits, unpack_bits, the bit files
    and RandomSource.bits).  It holds the '0'/'1' text; the packed integer,
    which holds bit i at integer bit position i (least significant bit first,
    the byte order of the packed file format), is built only by the packed
    constructor and the packed-byte conversions."""

    __slots__ = ("_text",)

    def __init__(self, value: int, length: int):
        """Unpack a payload that holds bit i at integer bit position i."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError("payload does not fit declared length")
        self._text = format(value, f"0{length}b")[::-1] if length else ""

    @classmethod
    def from_text(cls, text: str) -> "OracleBitString":
        compact = "".join(text.split())
        if compact and set(compact) - {"0", "1"}:
            raise ValueError("bit text may contain only '0' and '1'")
        self = object.__new__(cls)
        self._text = compact
        return self

    def __len__(self) -> int:
        return len(self._text)

    def to_text(self) -> str:
        return self._text

    def to_packed_bytes(self) -> bytes:
        value = int(self._text[::-1], 2) if self._text else 0
        return value.to_bytes((len(self._text) + 7) // 8, "little")

    @classmethod
    def from_packed_bytes(cls, payload: bytes, bit_count: int) -> "OracleBitString":
        value = int.from_bytes(payload, "little") & ((1 << bit_count) - 1)
        return cls(value, bit_count)

    def __eq__(self, other) -> bool:
        return isinstance(other, OracleBitString) and self._text == other._text


def oracle_bit_file_bytes(x: OracleBitString, fmt: str) -> bytes:
    """The bytes write_bit_file used to write for a bit string."""
    if fmt == "ascii":
        text = x.to_text()
        lines = [text[i:i + 64] for i in range(0, len(text), 64)] or [""]
        return ("\n".join(lines) + "\n").encode()
    return BIT_FILE_MAGIC + len(x).to_bytes(8, "little") + x.to_packed_bytes()


class PackedReference:
    """The int-packed bit string the library once held: bit i at integer bit
    position i, read by a shift loop.  The oracle of the text form."""

    def __init__(self, value, length):
        self.value, self.length = value, length

    def bits_reference(self):
        value = self.value
        for _ in range(self.length):
            yield value & 1
            value >>= 1

    def numeral_windows(self, length):
        bits = list(self.bits_reference())
        value = 0
        for i in range(length):
            value = (value << 1) | bits[i]
        yield value
        low_mask = (1 << (length - 1)) - 1
        for i in range(length, self.length):
            value = ((value & low_mask) << 1) | bits[i]
            yield value

    def window(self, start, length):
        return PackedReference((self.value >> start) & ((1 << length) - 1), length)

    def to_packed_bytes(self):
        return self.value.to_bytes((self.length + 7) // 8, "little")

    def __add__(self, other):
        return PackedReference(self.value | (other.value << self.length),
                               self.length + other.length)


def flip(x: str, positions) -> str:
    """x with the bit at each position flipped; a position given twice flips back."""
    bits = bytearray(x, "ascii")
    for p in positions:
        bits[p] ^= 1  # '0' and '1' differ in the low bit
    return bits.decode()


def numeral_windows(x: str, length: int):
    """Yield the numeral of every window of the given length, in order."""
    if length <= 0 or length > len(x):
        raise ValueError(f"window length {length} out of range")
    data = x.encode()
    value = int(data[:length], 2)
    yield value
    mask = (1 << length) - 1
    for c in data[length:]:
        value = ((value << 1) & mask) | (c & 1)
        yield value


def level_counts(alloc: Allocation) -> dict:
    """Source bits placed at each level built so far."""
    return {level: count for level, count, _, _ in alloc.level_records()}


def support_weights(dist: FiniteDistribution) -> list:
    """(string, integer weight) pairs in support order; each mass is weight /
    denominator."""
    lead = 1 << dist.string_length  # a leading 1 keeps the zeros that bin would drop
    return [(bin(lead | v)[3:], w) for v, w in zip(dist.numerals, dist.weights)]


def support_masses(dist: FiniteDistribution) -> list:
    """(string, mass) pairs in support order, each mass an ExactProb."""
    return [(x, ExactProb(w, dist.denominator)) for x, w in support_weights(dist)]


def distinct_substrings(x: str, length: int) -> int:
    """Number of distinct windows of the given length, all offsets."""
    if length > len(x):
        raise ValueError(f"window length {length} exceeds string length {len(x)}")
    return len(set(numeral_windows(x, length)))


def family_avoids(x: str, family: LevelFamily) -> bool:
    """True when no realized level of the family occurs as a substring of x,
    by the simple top's predicate and one pass of the family's Aho-Corasick
    automaton over x."""
    top = family.top
    if top is not None and top.holds(int(x, 2)):
        return False
    return next(Scanner(family.levels).occurrences(x.encode()), None) is None


def scanner_first(scanner: Scanner, bits, start: int = 0):
    """The leftmost occurrence at or after `start`, shortest on ties, or None,
    from the automaton's occurrences.  A longer string ending up to
    longest - 1 bits after the first match can start before it, so the scan
    looks that far ahead."""
    longest = max((lengths[-1] for lengths in scanner.ends if lengths), default=0)
    best = None
    for k, n in scanner.occurrences(bits, start):
        if best is not None and k + n >= best[0] + longest:
            break  # it ends too late to start before best
        if best is None or k < best[0]:
            best = (k, n)
    return best


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > len(self.text):
            raise ValueError("compressed stream truncated")
        chunk = self.text[self.pos:self.pos + width]
        self.pos += width
        return int(chunk[::-1], 2) if width else 0


def decompress_bits(stream: str) -> str:
    """Decode a stream written by proxy.compress_bits; ValueError on a stream
    that names a phrase not yet defined or ends early."""
    reader = _Reader(stream)
    total = reader.read(LENGTH_HEADER_BITS)
    phrases = [""]
    out = []
    produced = 0
    while produced < total:
        index = reader.read((len(phrases) - 1).bit_length())
        if index >= len(phrases):
            raise ValueError(f"compressed stream names phrase {index} of {len(phrases)}")
        phrase = phrases[index]
        if total - produced <= len(phrase):
            out.append(phrase[:total - produced])
            break
        phrase += "01"[reader.read(1)]
        out.append(phrase)
        produced += len(phrase)
        phrases.append(phrase)
    return "".join(out)


def point_mass(x: str) -> FiniteDistribution:
    return FiniteDistribution(len(x), {x: ExactProb(1)})


def scaled_to_deficit(dist: FiniteDistribution, new_deficit) -> FiniteDistribution:
    """Rescale the enumerated part proportionally to leave the given deficit."""
    new_deficit = ExactProb(new_deficit)
    old_mass = 1 - Fraction(dist.deficit)
    if old_mass == 0:
        raise ValueError("cannot rescale an all-deficit distribution")
    factor = (1 - Fraction(new_deficit)) / old_mass
    masses = {x: ExactProb(Fraction(m) * factor) for x, m in support_masses(dist)}
    return FiniteDistribution(dist.string_length, masses, new_deficit)


def oracle_distribution_weights(length: int, masses, deficit) -> tuple:
    """(denominator, weights, deficit weight) of a distribution, read as the
    constructor once did: every mass and the deficit through ExactProb, every
    key through OracleBitString.from_text."""
    if length < 0:
        raise ValueError("string length must be non-negative")
    clean = {}
    for key, mass in masses.items():
        key = OracleBitString.from_text(key).to_text()
        if len(key) != length:
            raise ValueError(
                f"support string of length {len(key)} in a length-{length} distribution")
        mass = ExactProb(mass)
        if mass == 0:
            continue
        if key in clean:
            raise ValueError(f"duplicate support string {key}")
        clean[key] = mass
    deficit = ExactProb(deficit)
    denominator = math.lcm(deficit.denominator, *(m.denominator for m in clean.values()))
    weights = {x: m.numerator * (denominator // m.denominator) for x, m in clean.items()}
    deficit_weight = deficit.numerator * (denominator // deficit.denominator)
    total = sum(weights.values()) + deficit_weight
    if total != denominator:
        raise ValueError(f"masses plus deficit must equal 1, got "
                         f"{frac_to_str(Fraction(total, denominator))}")
    return denominator, weights, deficit_weight


def oracle_distribution_json(dist: FiniteDistribution) -> dict:
    """The distribution's JSON with every mass written through a Fraction."""
    return {"length": dist.string_length,
            "masses": {x: frac_to_str(Fraction(w, dist.denominator))
                       for x, w in sorted(support_weights(dist))},
            "deficit": frac_to_str(dist.deficit)}


def oracle_window_rows(dist: FiniteDistribution, length: int) -> tuple:
    """The window table built one support string at a time."""
    shifts = range(dist.string_length - length, -1, -1)
    mask = (1 << length) - 1
    rows = []
    for x, weight in support_weights(dist):
        numeral = int(x, 2)
        rows.append((numeral, tuple([(numeral >> s) & mask for s in shifts]), weight))
    return tuple(rows)


def membership(family: LevelFamily, length: int, numeral: int) -> bool:
    """Whether the family forbids the string of this length and numeral."""
    top = family.top
    if top is not None and top.length == length:
        return top.holds(numeral)
    return numeral in family.levels.get(length, ())


def text_slice_simple(text: str, block_length: int, threshold: int) -> bool:
    """Whether the aligned blocks of a '0'/'1' text, read as slices, take at
    most `threshold` distinct values."""
    return len({text[i:i + block_length]
                for i in range(0, len(text), block_length)}) <= threshold


def surjections(positions: int, classes: int) -> int:
    """Functions from `positions` slots onto exactly `classes` values."""
    if classes < 0 or positions < 0:
        raise ValueError("arguments must be non-negative")
    if classes == 0:
        return 1 if positions == 0 else 0
    total = 0
    for drop in range(classes + 1):
        term = math.comb(classes, drop) * (classes - drop) ** positions
        total += -term if drop & 1 else term
    return total


def count_limited_block_strings(pool_size: int, block_count: int, threshold: int) -> int:
    """Strings of `block_count` aligned blocks drawn from a pool, using at
    most `threshold` distinct block values, by inclusion-exclusion."""
    top = min(threshold, block_count, pool_size)
    return sum(math.comb(pool_size, j) * surjections(block_count, j) for j in range(1, top + 1))


def oracle_simple_top(alpha: Fraction, n: int) -> tuple:
    """The top search two_level_family once ran: every multiple of n in turn,
    its simple strings recounted by inclusion-exclusion, until the count fits
    the size bound.  Returns (top_length, cardinality)."""
    threshold = 1 << ((n + 1) // 2)
    top_length = n
    while True:
        cardinality = count_limited_block_strings(1 << n, top_length // n, threshold)
        if cardinality <= pow2_floor(alpha * top_length):
            return top_length, cardinality
        top_length += n


def hit_probability(x: str, family: LevelFamily) -> ExactProb:
    """Exact probability, over the family's random draws, that some level
    meets the substrings of x: 1 when the simple top holds x, otherwise one
    less the product of the sampled levels' hypergeometric miss probabilities,
    which depend only on x's distinct window counts."""
    if len(x) != family.string_length:
        raise ValueError(f"string length {len(x)} does not match family top "
                         f"{family.string_length}")
    top = family.top
    if top is not None and top.holds(int(x, 2)):
        return ExactProb(1)
    miss = Fraction(1)
    for n, strings in family.levels.items():
        miss *= Fraction(miss_probability_random_set(distinct_substrings(x, n), n,
                                                     len(strings)))
    return ExactProb(1 - miss)


def _residue_source(records: list, p: int) -> Optional[int]:
    """The per-level residue loop: position p sits on the first level whose
    assigned first terms hold p mod 2**level, at the rank of that first term;
    None when no level holds it."""
    for level, _, base, pairs in records:
        r, rank = p % (1 << level), 0
        for lo, hi in pairs:
            if lo <= r < hi:
                return base + rank + r - lo
            rank += hi - lo
    return None


def oracle_source_map(alloc: Allocation, start: int, length: int) -> list:
    """Source indices of [start, start + length) by the residue loop."""
    alloc.ensure_horizon(start + length)
    records = alloc.level_records()
    out = []
    for p in range(start, start + length):
        index = _residue_source(records, p)
        if index is None:
            raise AssertionError(f"position {p} not covered")
        out.append(index)
    return out


def oracle_window_tally(alloc: Allocation, usable: int, top: int) -> list:
    """Tally the source indices of every window [k, k + 2**m) inside
    [0, usable), for each level m from the start level to top: every index
    placed at levels up to m must occur, and each one of level m exactly
    once.  Positions come from the residue loop, and one that no level holds
    tallies as -1.  Returns a violation per failing window."""
    records = alloc.level_records()
    mapping = [_residue_source(records, p) for p in range(usable)]
    mapping = [-1 if index is None else index for index in mapping]
    violations = []
    for m in range(alloc.start_level, top + 1):
        size = 1 << m
        top_count = alloc.source_count_through(m)
        base_count = top_count - level_counts(alloc)[m]
        for k in range(usable - size + 1):
            tally = Counter(mapping[k:k + size])
            missing = [j for j in range(top_count) if j not in tally]
            doubled = [j for j in range(base_count, top_count) if tally[j] != 1]
            if missing or doubled:
                violations.append({"k": k, "m": m, "missing": missing[:8],
                                   "not_exactly_once": doubled[:8]})
    return violations


def oracle_sampled_recovery(alloc: Allocation, bits: str, usable: int, top: int,
                            samples: int, seed) -> list:
    """The sampled pass check-windows once ran after its proof: decode
    `samples` windows per level from the start level to top (every window
    when a level has no more) with recover_prefix, and require every
    recovered prefix to agree with those before it.  Returns the violations
    that pass added."""
    violations = []
    rs = RandomSource(seed)
    agreed = ""  # the source prefix that every window recovered so far agrees on
    for m in range(alloc.start_level, top + 1):
        size = 1 << m
        max_start = usable - size
        if max_start + 1 <= samples:
            starts = list(range(max_start + 1))
        else:
            draws = rs.substream(m)
            starts = sorted(draws.below(max_start + 1) for _ in range(samples))
        for k in starts:
            try:
                recovered = spreader.recover_prefix(alloc, bits[k:k + size], k % size, m)
            except spreader.InconsistentWindowError as exc:
                violations.append({"k": k, "m": m, "inconsistent": str(exc)})
                continue
            common = min(len(agreed), len(recovered))
            if recovered[:common] != agreed[:common]:
                j = next(j for j in range(common) if recovered[j] != agreed[j])
                violations.append({"k": k, "m": m, "disagrees_at_source_bit": j})
            else:
                agreed += recovered[common:]
    return violations


def spread(alloc: Allocation, source_bits: str, length: int) -> str:
    """Output of the generator: position i carries the source bit that the
    residue loop maps it to."""
    mapping = oracle_source_map(alloc, 0, length)
    needed = max(mapping) + 1 if mapping else 0
    if len(source_bits) < needed:
        raise ValueError(f"source too short: need {needed} bits, got {len(source_bits)}")
    return "".join([source_bits[j] for j in mapping])


def average_avoid_probability(dist: FiniteDistribution, window_length: int,
                              position_count: int) -> ExactProb:
    """Exact average of the avoid probability over all equiprobable families,
    by full enumeration; asserts it equals (1 - 2**-n)**N."""
    n, N = window_length, position_count
    if Fraction(dist.deficit) != 0:
        raise ValueError("identity requires a total distribution (zero deficit)")
    if dist.string_length != N + n - 1:
        raise ValueError("distribution length does not match the family shape")
    family_count = (1 << n) ** N
    if family_count > (1 << 20):
        raise ValueError("family space too large to enumerate; use the closed form")
    support = [(list(numeral_windows(x, n)), Fraction(mass))
               for x, mass in support_masses(dist)]
    total = Fraction(0)
    for candidate in itertools.product(range(1 << n), repeat=N):
        for windows, mass in support:
            if all(w != t for w, t in zip(windows, candidate)):
                total += mass
    average = total / family_count
    expected = (1 - Fraction(1, 1 << n)) ** N
    if average != expected:
        raise AssertionError(
            f"enumerated average {frac_to_str(average)} differs from closed form "
            f"{frac_to_str(expected)}"
        )
    return ExactProb(average)


def first_lex_search(dist: FiniteDistribution, window_length: int,
                     epsilon) -> tuple:
    """The first family, in lexicographic order over all (2**n)**N, whose
    avoid probability is below epsilon, by trying every family in turn and
    summing Fraction masses; returns (numerals, avoid probability) or None."""
    n = window_length
    N = dist.string_length - n + 1
    epsilon = Fraction(epsilon)
    support = [(list(numeral_windows(x, n)), Fraction(mass))
               for x, mass in support_masses(dist)]
    for candidate in itertools.product(range(1 << n), repeat=N):
        acc = Fraction(dist.deficit)
        for windows, mass in support:
            if all(w != t for w, t in zip(windows, candidate)):
                acc += mass
                if acc >= epsilon:
                    break
        if acc < epsilon:
            return candidate, acc
    return None


def family_avoid_per_string(dist: FiniteDistribution, family: LevelFamily) -> Fraction:
    """Deficit plus the Fraction mass of each string that avoids the family."""
    total = Fraction(dist.deficit)
    for x, mass in support_masses(dist):
        if family_avoids(x, family):
            total += mass
    return total


def averaged_bound_per_string(dist: FiniteDistribution, ln: int, size: int, top) -> Fraction:
    """Deficit plus, for each string the simple top (if any) does not forbid,
    its Fraction mass times its own miss probability against a uniform draw
    of `size` strings of length ln."""
    total = Fraction(dist.deficit)
    for x, mass in support_masses(dist):
        if top is None or not top.holds(int(x, 2)):
            total += mass * miss_probability_random_set(distinct_substrings(x, ln), ln, size)
    return total


def brute_force_avoider(family: LevelFamily, length: int) -> Optional[str]:
    """Numerically smallest avoiding string of the given length, or None when
    none exists.  Depth-first with prefix pruning, which visits candidates in
    exactly numeric (most-significant-bit-first) order."""
    if length > 24:
        raise ValueError("brute force capped at length 24")
    if family.top is not None:
        raise ValueError("brute force needs explicit level sets")
    scanner = Scanner(family.levels)

    def smallest(state: int, depth: int) -> Optional[str]:
        if depth == 0:
            return ""
        for b in (0, 1):
            child = scanner.goto[state][b]
            # a prefix is forbidden exactly when its automaton state accepts
            rest = None if scanner.ends[child] else smallest(child, depth - 1)
            if rest is not None:
                return "01"[b] + rest
        return None

    return smallest(0, length)
