"""Slow or convenient reference implementations that only the tests use.

Each one restates, by enumeration or by the plainest loop, something the
library computes another way, so a test can compare the two.
"""

import bisect
import io
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from ecseq import spreader
from ecseq.avoider import AvoidanceInstance, AvoidanceResult, first_violation_pattern
from ecseq.core import (BIT_FILE_MAGIC, ExactProb, FiniteDistribution, RandomSource,
                        fold_bits, frac_to_str, pow2_at_most, pow2_floor)
from ecseq.forbidden import LevelFamily, Scanner, miss_probability_random_set, simple_counts
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


def scalar_take(rs: RandomSource, bit_count: int) -> int:
    """The low bit_count bits of the next ceil(bit_count / 64) words of rs,
    word k at bit 64*k: the draw RandomSource made before it mixed words in
    batches, one word_at call per word ORed into a growing int.  It moves
    rs._counter on and reads no other state, so rs is a source only the
    scalar_* oracles draw from."""
    value = got = 0
    while got < bit_count:
        value |= rs.word_at(rs._counter) << got
        rs._counter += 1
        got += 64
    return value & ((1 << bit_count) - 1)


def scalar_below(rs: RandomSource, bound: int) -> int:
    """RandomSource.below over scalar_take: rejection on (bound - 1).bit_length() bits."""
    width, value = (bound - 1).bit_length(), bound
    while value >= bound:
        value = scalar_take(rs, width)
    return value


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


def level_records(alloc: Allocation) -> list:
    """(level, count, source_base, assigned first-term pairs) of each level
    built so far, read from the allocation's export."""
    return [(lv["level"], lv["count"], lv["source_base"], [tuple(p) for p in lv["assigned"]])
            for lv in alloc.export()["levels"]]


def level_counts(alloc: Allocation) -> dict:
    """Source bits placed at each level built so far."""
    return {level: count for level, count, _, _ in level_records(alloc)}


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
    return distribution(len(x), {x: ExactProb(1)})


def scaled_to_deficit(dist: FiniteDistribution, new_deficit) -> FiniteDistribution:
    """Rescale the enumerated part proportionally to leave the given deficit."""
    new_deficit = ExactProb(new_deficit)
    old_mass = 1 - Fraction(dist.deficit)
    if old_mass == 0:
        raise ValueError("cannot rescale an all-deficit distribution")
    factor = (1 - Fraction(new_deficit)) / old_mass
    masses = {x: ExactProb(Fraction(m) * factor) for x, m in support_masses(dist)}
    return distribution(dist.string_length, masses, new_deficit)


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


def _probability_terms(value) -> tuple:
    """(numerator, denominator) in lowest terms of a probability.  A string
    "a/b" of ASCII digits with 0 < b and a <= b is read with int and one gcd;
    any other value is read by ExactProb, with its forms and its errors."""
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if slash and num.isdigit() and den.isdigit():
            num, den = int(num), int(den)
            if 0 < den and num <= den:
                g = math.gcd(num, den)
                return num // g, den // g
    value = ExactProb(value)
    return value.numerator, value.denominator


class PerMassDistribution(FiniteDistribution):
    """A distribution read one mass at a time, in any form the reader once
    took: each key folded unless it is 0/1 text, each mass and the deficit
    a Fraction or any form ExactProb reads, reduced by its own gcd, and zero
    masses left out.  FiniteDistribution.from_json reads a document exactly
    when this reads it and writes it back unchanged."""

    def __init__(self, string_length: int, masses, deficit=ExactProb(0)):
        if string_length < 0:
            raise ValueError("string length must be non-negative")
        clean = {}  # support numeral -> (numerator, denominator) in lowest terms
        for key, mass in masses.items():
            if key.strip("01"):  # only 0/1 text skips folding
                key = fold_bits(key)
            if len(key) != string_length:
                raise ValueError(
                    f"support string of length {len(key)} in a length-{string_length} "
                    f"distribution")
            num, den = _probability_terms(mass)
            if not num:
                continue
            numeral = int(key, 2) if key else 0
            if numeral in clean:
                raise ValueError(f"duplicate support string {key}")
            clean[numeral] = num, den
        deficit_num, deficit_den = _probability_terms(deficit)
        denominator = math.lcm(deficit_den, *(den for _, den in clean.values()))
        weights = tuple([num * (denominator // den) for num, den in clean.values()])
        deficit_weight = deficit_num * (denominator // deficit_den)
        super().__init__(string_length, tuple(clean), weights, deficit_weight, denominator)


def distribution(length: int, masses: dict, deficit=0) -> FiniteDistribution:
    """The distribution of masses keyed by bit text, each mass and the deficit
    a Fraction or any form ExactProb reads, built from the columns that
    PerMassDistribution reads."""
    per_mass = PerMassDistribution(length, masses, deficit)
    return FiniteDistribution(length, per_mass.numerals, per_mass.weights,
                              per_mass.deficit_weight, per_mass.denominator)


def json_dump_text(doc) -> str:
    """The text json.dump(doc, fh, indent=2, sort_keys=True) and a newline
    write, which every JSON file ecseq writes holds byte for byte.  The
    writer once made it with this call, which runs json's pure-Python
    encoder."""
    out = io.StringIO()
    json.dump(doc, out, indent=2, sort_keys=True)
    return out.getvalue() + "\n"


def oracle_differing_keys(doc: dict, written: dict) -> list:
    """The keys, sorted, at which two JSON objects differ, each pair of
    values compared as the text json.dumps(sort_keys=True) writes."""
    def dump(value):
        return json.dumps(value, sort_keys=True)
    return [key for key in sorted(doc.keys() | written.keys())
            if key not in doc or key not in written or dump(doc[key]) != dump(written[key])]


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
    records = level_records(alloc)
    out = []
    for p in range(start, start + length):
        index = _residue_source(records, p)
        if index is None:
            raise AssertionError(f"position {p} not covered")
        out.append(index)
    return out


def oracle_disagreements(alloc, bits, length):
    """Each position in [0, length) compared with the first position that
    carries the same source index; when more than half of a source index's
    copies differ from its first, the copies that agree are listed instead,
    against the first that differs.  Each as (position, source_bit,
    disagrees_with_position)."""
    copies, out = {}, []
    for p, j in enumerate(oracle_source_map(alloc, 0, length)):
        copies.setdefault(j, []).append(p)
    for j, ps in copies.items():
        differ = [p for p in ps if bits[p] != bits[ps[0]]]
        if 2 * len(differ) > len(ps):
            out += [(p, j, differ[0]) for p in ps if p not in differ]
        else:
            out += [(p, j, ps[0]) for p in differ]
    return sorted(out)


def oracle_window_tally(alloc: Allocation, usable: int, top: int) -> list:
    """Tally the source indices of every window [k, k + 2**m) inside
    [0, usable), for each level m from the start level to top: every index
    placed at levels up to m must occur, and each one of level m exactly
    once.  Positions come from the residue loop, and one that no level holds
    tallies as -1.  Returns a violation per failing window."""
    records = level_records(alloc)
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


class OracleIntervals:
    """The interval list spreader._Intervals was before it worked on whole
    lists: built from (lo, hi) pairs, summed and split one interval at a
    time."""

    __slots__ = ("los", "his", "cum")

    def __init__(self, pairs=()):
        los, his = [], []
        for lo, hi in pairs:
            if hi > lo:
                los.append(lo)
                his.append(hi)
        cum = [0]
        for lo, hi in zip(los, his):
            cum.append(cum[-1] + (hi - lo))
        self.los, self.his, self.cum = los, his, cum

    @property
    def total(self) -> int:
        return self.cum[-1]

    def first(self):
        return self.los[0] if self.los else None

    def pairs(self):
        return list(zip(self.los, self.his))

    def take_prefix(self, k: int):
        if k >= self.total:
            return self, OracleIntervals(())
        j = bisect.bisect_right(self.cum, k) - 1
        cut = self.los[j] + (k - self.cum[j])
        taken = list(zip(self.los[:j], self.his[:j]))
        rest = []
        if cut > self.los[j]:
            taken.append((self.los[j], cut))
        if cut < self.his[j]:
            rest.append((cut, self.his[j]))
        rest.extend(zip(self.los[j + 1:], self.his[j + 1:]))
        return OracleIntervals(taken), OracleIntervals(rest)


class OracleAllocation(Allocation):
    """An Allocation whose pool is an OracleIntervals, split into the next
    level's pool one (lo, hi) pair at a time: the oracle of the list-sliced
    pool split in Allocation._build_next."""

    def _reset(self):
        super()._reset()
        self._pool = OracleIntervals(self._pool.pairs())

    def _build_next(self) -> bool:
        m = self.start_level + len(self._levels)
        if m > self.max_level:
            return False
        count = self._count_for(m)
        if count < 0:
            raise ValueError(f"negative progression count at level {m}")
        if count > self._pool_total:
            raise spreader.CertificateError(
                f"level {m} needs {count} progressions but only {self._pool_total} remain")
        taken, rest = self._pool.take_prefix(count)
        self._levels.append(spreader._Level(m, count, taken, self._source_total))
        self._source_total += count
        remaining = self._pool_total - count
        if remaining == 0:
            self._least_uncovered = None
            self._pool = OracleIntervals(())
            self._pool_total = 0
        else:
            first = rest.first()
            self._least_uncovered = first if first is not None else self._cap
            step = 1 << m
            pairs = rest.pairs()
            shifted = [(lo + step, min(hi + step, self._cap))
                       for lo, hi in pairs if lo + step < self._cap]
            self._pool = OracleIntervals(pairs + shifted)
            self._pool_total = 2 * remaining
        return True


def oracle_plan(weights: spreader.WeightSeries, start_level: int) -> OracleAllocation:
    """plan_allocation's allocation, built by OracleAllocation."""
    return OracleAllocation(start_level, 64, lambda m: spreader.boosted_count(weights, m))


def oracle_fill(out, hole, runs, source):
    """out with source[index:index + width] written at each repetition of each
    run (offset, step, index, width) from Allocation._runs, clipped at the end
    of out: one slice per repetition, where spreader._fill doubles a period.
    AssertionError if a position still holds hole afterwards."""
    length = len(out)
    for offset, step, index, width in runs:
        for a in range(offset, length, step):
            b = min(a + width, length)
            out[a:b] = source[index:index + b - a]
    if hole in out:
        raise AssertionError("progression partition left a hole")
    return out


def oracle_fill_source_map(alloc: Allocation, start: int, length: int) -> list:
    """Allocation.source_map by the per-repetition fill of [0, start + length),
    sliced to [start, start + length)."""
    end = start + length
    return oracle_fill([-1] * end, -1, alloc._covered_runs(end),
                       range(alloc._source_total))[start:]


def oracle_spread_random(alloc: Allocation, rs: RandomSource, length: int):
    """spread_random by the per-repetition fill."""
    runs = alloc._covered_runs(length)
    source_bits = rs.bits(max((index + width for _, _, index, width in runs), default=0))
    return oracle_fill(bytearray(length), 0, runs, source_bits.encode()).decode(), source_bits


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


def oracle_build_avoiding_string(inst: AvoidanceInstance) -> AvoidanceResult:
    """avoider.build_avoiding_string as it was with one RandomSource.bits call
    per redraw, kept as the oracle of the redraws that the library cuts from
    RandomSource.draws' batches."""
    pattern = first_violation_pattern(inst.family)
    longest = max((n for n, strings in inst.family.levels.items() if strings), default=0)
    rs = inst.source
    text = bytearray(rs.bits(inst.length), "ascii")
    resamples = 0
    scan_from = 0
    while True:
        hit = pattern.search(text, scan_from)
        if hit is None:
            return AvoidanceResult(True, text.decode(), resamples, 0)
        if resamples >= inst.max_resamples:
            residual = sum(1 for _ in Scanner(inst.family.levels).occurrences(text))
            return AvoidanceResult(False, None, resamples, residual)
        k, end = hit.span()
        text[k:end] = rs.bits(end - k).encode()
        resamples += 1
        scan_from = max(0, k - longest + 1)


def oracle_top_blocks(alpha: Fraction, n: int, threshold: int) -> tuple:
    """(blocks, cardinality) of the simple top two_level_family once chose:
    the carried count of each block count in turn, until pow2_at_most admits
    it against the Fraction exponent alpha*n*blocks."""
    for blocks, cardinality in enumerate(simple_counts(n, threshold), start=1):
        if pow2_at_most(cardinality, alpha * n * blocks):
            return blocks, cardinality


def recount_search(dist: FiniteDistribution, window_length: int, epsilon) -> tuple:
    """(targets, certificate) of the pruned first-lex search as
    positional_family_search once ran it: every node tallies its survivors
    afresh at every remaining position to bound what the rest can remove."""
    n, N = window_length, dist.string_length - window_length + 1
    limit = -(-epsilon.numerator * dist.denominator // epsilon.denominator)
    base = dist.deficit_weight
    rows = dist.windows(n)
    weights = [w for _, _, w in rows]
    columns = list(zip(*(windows for _, windows, _ in rows))) or [()] * N

    def options(p: int, alive: list, total: int):
        tallies = []
        for column in columns[p:]:
            tally = {}
            for i in alive:
                tally[column[i]] = tally.get(column[i], 0) + weights[i]
            tallies.append(tally)
        here = tallies[0]
        least = base + total - sum(max(t.values(), default=0) for t in tallies[1:])
        column, walked_unchanged = columns[p], False
        for v in range(1 << n):
            removed = here.get(v, 0)
            if least - removed >= limit:
                continue
            if not removed:
                if walked_unchanged:
                    continue
                walked_unchanged = True
                yield v, alive, total
            elif p == N - 1:
                yield v, None, total - removed
            else:
                yield v, [i for i in alive if column[i] != v], total - removed

    prefix = []
    alive, total = list(range(len(weights))), sum(weights)
    walk = [options(0, alive, total)]
    while len(prefix) < N and base + total >= limit:
        step = next(walk[-1], None)
        if step is None:
            walk.pop()
            prefix.pop()
        else:
            v, alive, total = step
            prefix.append(v)
            walk.append(options(len(prefix), alive, total))
    if len(prefix) < N:
        rest = columns[len(prefix):]
        total = sum(weights[i] for i in alive if all(column[i] for column in rest))
        prefix += [0] * len(rest)
    return tuple(prefix), ExactProb(base + total, dist.denominator)
