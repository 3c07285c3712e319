"""Foundational value types shared by every subsystem.

Everything here is exact and deterministic: bit strings, big-rational
probabilities, integer counting helpers, and a counter-based random source
whose output is a pure function of (seed, stream, draw index).  No floating
point is used anywhere in this module.
"""

import functools
import itertools
import json
import math
import operator
import re
import struct
import sys
from fractions import Fraction
from typing import Callable

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x5851F42D4C957F2D

BIT_FILE_MAGIC = b"ECS1"
SIZE_LIMIT_BITS = 24  # at most 2**24 uniform or sampled strings, or bits of a power
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")  # text bytes -> bit values


class CertificateError(RuntimeError):
    """An exact-arithmetic certificate failed to hold."""


def floor_root(value: int, degree: int) -> int:
    """Exact floor of the degree-th root of a non-negative integer."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if degree <= 0:
        raise ValueError("degree must be positive")
    if degree == 1 or value in (0, 1):
        return value
    if value.bit_length() <= degree:  # 1 <= value < 2**degree
        return 1
    # Newton iteration starting above the root, then clamp exactly.
    root = 1 << -(-value.bit_length() // degree)
    while True:
        nxt = ((degree - 1) * root + value // root ** (degree - 1)) // degree
        if nxt >= root:
            break
        root = nxt
    while root ** degree > value:
        root -= 1
    while (root + 1) ** degree <= value:
        root += 1
    return root


def pow2_floor(exponent: Fraction) -> int:
    """Exact floor(2**exponent) for a non-negative rational exponent."""
    exponent = Fraction(exponent)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    num, den = exponent.numerator, exponent.denominator
    if den == 1:
        return 1 << num
    return floor_root(1 << num, den)


def pow2_at_most(count: int, exponent: Fraction) -> bool:
    """Whether a non-negative count is at most floor(2**exponent), decided as
    count**q <= 2**p for the exponent p/q in lowest terms, with no root taken.
    A count of b bits lies in [2**(b - 1), 2**b), so one with b*q <= p holds,
    one with (b - 1)*q > p fails, and a power of two, 2**(b - 1), holds exactly
    when (b - 1)*q <= p: none of these builds a power.  Any other count whose
    power may pass 2**SIZE_LIMIT_BITS bits is refused with ValueError."""
    exponent = Fraction(exponent)
    p, q, b = exponent.numerator, exponent.denominator, count.bit_length()
    if b * q <= p or (b - 1) * q > p or not count & (count - 1):
        return (b - 1) * q <= p
    if b * q > 1 << SIZE_LIMIT_BITS:
        raise ValueError(f"a count of {b} bits against 2**({frac_to_str(exponent)}) needs a "
                         f"power above 2**{SIZE_LIMIT_BITS} bits")
    return count ** q <= 1 << p


def json_exact(value, kind: type):
    """value, if JSON gave it as exactly a kind, so that a bool is no int.  A
    rational is read from a string such as "3/10": a JSON number is a float."""
    if type(value) is not kind:
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


_ARRAYS = frozenset((list, tuple))
_PLAIN = frozenset((str, int, bool, type(None)))  # compared by ==, once the types agree


def _same_json(a, b) -> bool:
    """Whether a and b are one JSON value with the same type at every node: a
    dict with str keys, a list (a tuple counts as one), a str, an int, a float
    (compared by repr), a bool or None.  Equal values pass; any other pair,
    whether or not its JSON texts agree, fails."""
    ta, tb = type(a), type(b)
    if ta is dict:
        return (tb is dict and a.keys() == b.keys() and set(map(type, a)) <= {str}
                and _same_items(list(a.values()), list(map(b.__getitem__, a))))
    if ta in _ARRAYS:
        return tb in _ARRAYS and len(a) == len(b) and _same_items(a, b)
    if ta is float:
        return tb is float and repr(a) == repr(b)
    return ta is tb and ta in _PLAIN and a == b


def _same_items(a, b) -> bool:
    """_same_json of the items of two sequences of one length, in turn.  When
    every item on both sides is of one type in _PLAIN, such as the masses of
    a distribution, the two compare as lists, at C speed; when every item is
    an array, such as an allocation's [first, last] pairs, arrays of the same
    lengths compare as their items run together; and when every item is a
    dict with the first one's str keys, such as a profile's rows, the dicts
    compare as their values run together, read in the first one's key order."""
    kinds, other = set(map(type, a)), set(map(type, b))
    if len(kinds) == 1 and kinds <= _PLAIN and other == kinds:
        return list(a) == list(b)
    if kinds and kinds | other <= _ARRAYS and list(map(len, a)) == list(map(len, b)):
        return _same_items([*itertools.chain.from_iterable(a)],
                           [*itertools.chain.from_iterable(b)])
    if kinds == other == {dict} and set(map(type, keys := [*a[0]])) <= {str}:
        values, others = row_values(a, keys), row_values(b, keys)
        if values is not None and others is not None:
            return _same_items(values, others)
    return all(map(_same_json, a, b))


def row_values(rows, keys: list):
    """The values of rows, dicts that each hold exactly the keys given, row
    after row and each in the order of keys; None when there are no keys or
    some row does not hold exactly those keys."""
    if not keys or set(map(len, rows)) != {len(keys)}:
        return None
    try:
        values = list(map(operator.itemgetter(*keys), rows))
    except KeyError:
        return None
    return values if len(keys) == 1 else [*itertools.chain.from_iterable(values)]


def differing_keys(doc: dict, written: dict) -> list:
    """The keys, sorted, at which two JSON objects differ: keys one of them
    lacks, and keys whose values differ in canonical JSON (sorted keys).  A
    value is dumped only when the type-strict walk _same_json fails on it."""
    dump = functools.partial(json.dumps, sort_keys=True)
    return [key for key in sorted(doc.keys() | written.keys())
            if key not in doc or key not in written or not (
                _same_json(doc[key], written[key]) or dump(doc[key]) == dump(written[key]))]


def check_rewrite(doc: dict, written: dict, what: str) -> None:
    """The read-back rule for a file that ecseq writes: ValueError unless
    `written`, the JSON ecseq writes for what a reader built from doc, is doc
    in canonical JSON, where 68.0, true and "68" each differ from 68.  The
    message names the first field that differs, such as levels.2.count."""
    path = []
    while isinstance(doc, dict) and isinstance(written, dict) and (
            keys := differing_keys(doc, written)):
        path.append(str(keys[0]))
        doc, written = doc.get(keys[0]), written.get(keys[0])
        if isinstance(doc, list) and isinstance(written, list) and len(doc) == len(written):
            doc, written = dict(enumerate(doc)), dict(enumerate(written))
    if path:
        raise ValueError(f"{what} is not as ecseq writes it: {'.'.join(path)} differs")


def read_back(doc: dict, parse: Callable, write: Callable, what: str):
    """What parse builds from doc, a file ecseq writes, under the read-back
    rule: an error that means doc has the wrong shape (a missing key, a value
    of another type, a zero denominator) becomes ValueError("malformed what
    (...)"), and check_rewrite then compares write(built) with doc."""
    try:
        built = parse(doc)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {what} ({type(exc).__name__}: {exc})") from exc
    check_rewrite(doc, write(built), what)
    return built


def frac_to_str(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class ExactProb(Fraction):
    """Exact probability: a Fraction constrained to [0, 1].

    Arithmetic falls back to plain Fraction (unbounded); wrap results back
    into ExactProb at certificate boundaries so range violations surface.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if not 0 <= self.numerator <= self.denominator:  # the denominator is positive
            raise ValueError(f"probability out of [0, 1]: {str(self)}")
        return self


def fold_bits(text: str) -> str:
    """The text with all whitespace removed; ValueError unless only '0' and
    '1' are left.  Bit i of a bit string is character i of its text."""
    compact = "".join(text.split())
    if compact.strip("01"):
        raise ValueError("bit text may contain only '0' and '1'")
    return compact


def pack_bits(bits: str) -> bytes:
    """The packed payload of a bit text: bit i at bit i % 8 of byte i // 8."""
    return int(bits[::-1] or "0", 2).to_bytes((len(bits) + 7) // 8, "little")


def unpack_bits(value: int, bit_count: int) -> str:
    """The text of a packed value below 2**bit_count, which holds bit i at
    integer bit position i."""
    return bin(value | 1 << bit_count)[:2:-1]  # the leading 1 keeps the high zeros


class BitString(str):
    """A '0'/'1' text.  Bits are a plain str everywhere and no ecseq code
    calls these two methods: they are kept only because the benchmark's
    tracer (perfbench/tracing.py) patches them by name."""

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        return cls("".join("1" if b else "0" for b in bits))

    def to_bits(self) -> list:
        return list(self.encode().translate(_BIT_VALUES))


def write_bit_file(path, bits: str, fmt: str = "packed") -> None:
    if fmt == "ascii":
        lines = [bits[i:i + 64] for i in range(0, len(bits), 64)] or [""]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "packed":
        with open(path, "wb") as fh:
            fh.write(BIT_FILE_MAGIC)
            fh.write(len(bits).to_bytes(8, "little"))
            fh.write(pack_bits(bits))
    else:
        raise ValueError(f"unknown bit file format: {fmt}")


def read_bit_file(path) -> str:
    """The bits of a file that write_bit_file wrote: ascii text, whose
    whitespace is ignored, or a packed file of exactly the header and
    ceil(count / 8) payload bytes with no bit set at or above count."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BIT_FILE_MAGIC:
        return fold_bits(blob.decode("ascii"))
    bit_count, payload = int.from_bytes(blob[4:12], "little"), blob[12:]
    extra = len(payload) - (bit_count + 7) // 8
    if len(blob) < 12 or extra < 0:
        raise ValueError("packed bit file truncated")
    if extra:
        raise ValueError(f"packed bit file has {extra} bytes after its {bit_count} bits")
    value = int.from_bytes(payload, "little")
    if value >> bit_count:
        raise ValueError(f"packed bit file sets bits beyond its {bit_count} bits")
    return unpack_bits(value, bit_count)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# _mix64 of a batch of words at once: word j sits in the low half of the j-th
# 128-bit lane of one int, so each shift, xor, mask and 64-bit multiply acts on
# every word and no product reaches the next lane.
_LANE_BYTES = 16
_LANES = 512  # words a long draw mixes per batch
_REFILL = 16  # words a short draw's buffer is refilled with


def _lanes(values) -> int:
    """The int whose j-th 128-bit lane holds the j-th of values, each below 2**64."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little") for v in values), "little")


def _lane_constants(count: int) -> tuple:
    """(ones, steps, mask) over count lanes: lane j holds 1, j*GAMMA mod 2**64
    and 2**64 - 1."""
    return (_lanes([1] * count), _lanes(j * _GAMMA & _MASK64 for j in range(count)),
            _lanes([_MASK64] * count))


_BATCH = _lane_constants(_LANES)
_REFILL_BATCH = _lane_constants(_REFILL)
# the refill's words from its big-endian bytes, last lane first, so pop() yields them in order
_REFILL_WORDS = struct.Struct(">" + "8xQ" * _REFILL)


def _mix_lanes(base: int, ones: int, steps: int, mask: int) -> int:
    """_mix64(base + j*GAMMA) in lane j of the lanes that mask keeps."""
    z = (base * ones + steps) & mask
    z = (z ^ (z >> 30)) & mask
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z = (z ^ (z >> 27)) & mask
    z = (z * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


class RandomSource:
    """Counter-based deterministic bit source.

    Word i of a source is a pure function of (seed, stream, i), so identical
    draw sequences reproduce bit-exactly on every platform and substreams
    never interact.  Words are mixed in batches: a draw of more than 64 bits
    takes its words from lane batches, and a draw of 1 to 64 bits takes the
    next word from a small buffer of upcoming words.  Every draw, however
    short, starts at a fresh word, and _counter is the index of the next one.
    Not cryptographic.
    """

    __slots__ = ("seed", "stream", "_key", "_counter", "_buffer")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._key = _mix64(self.seed ^ _mix64(self.stream ^ _STREAM_SALT))
        self._counter = 0
        self._buffer = []  # words _counter, _counter + 1, ... in pop() order

    def _input(self, index: int) -> int:
        """What _mix64 turns into word index."""
        return (self._key + (index + 1) * _GAMMA) & _MASK64

    def word_at(self, index: int) -> int:
        return _mix64(self._input(index))

    def next_word(self) -> int:
        buffer = self._buffer
        if not buffer:
            buffer += _REFILL_WORDS.unpack(_mix_lanes(self._input(self._counter), *_REFILL_BATCH)
                                           .to_bytes(_REFILL * _LANE_BYTES, "big"))
        self._counter += 1
        return buffer.pop()

    def _words(self, count: int) -> bytes:
        """The next count words, little-endian, word by word, from lane
        batches; the buffer is dropped, as its words are among them."""
        start, self._counter = self._counter, self._counter + count
        self._buffer.clear()
        ones, steps, mask = _BATCH
        chunks = []
        for first in range(start, start + count, _LANES):
            lanes = min(_LANES, start + count - first)
            if lanes < _LANES:  # the last batch: the mask keeps its lanes only
                drop = (_LANES - lanes) * _LANE_BYTES * 8
                ones, mask = ones >> drop, mask >> drop
            z = _mix_lanes(self._input(first), ones, steps, mask)
            # the low 8 bytes of each 16-byte lane
            chunks.append(memoryview(z.to_bytes(lanes * _LANE_BYTES, "little")).cast("Q")[::2]
                          .tobytes())
        return b"".join(chunks)

    def _take(self, bit_count: int) -> int:
        if bit_count > 64:
            value = int.from_bytes(self._words(-(-bit_count // 64)), "little")
        elif bit_count:
            value = self.next_word()
        else:
            return 0
        return value & ((1 << bit_count) - 1)

    def bits(self, count: int) -> str:
        if count < 0:
            raise ValueError("bit count must be non-negative")
        return unpack_bits(self._take(count), count)

    def draws(self) -> Callable[[int], str]:
        """A function draw(n) that returns what bits(n) would, for n >= 1:
        the next ceil(n/64) words' 64-character texts, joined and cut to n
        characters, with _counter left after those words.  It cuts them from
        a text drawn through bits, 16 words at first and twice as many at
        each refill up to 512, so a short draw costs one slice.  Words are a
        function of their index, so other draws may come between its calls."""
        text, first, size = "", 0, _REFILL

        def draw(count: int) -> str:
            nonlocal text, first, size
            start = (self._counter - first) << 6
            end = start + count
            if self._buffer or not 0 <= start <= len(text) - count:
                first = self._counter
                text = self.bits(max(size << 6, count))
                size = min(size << 1, _LANES)
                start, end = 0, count
            self._counter = first + ((end + 63) >> 6)
            return text[start:end]
        return draw

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        while True:
            value = self._take(width)
            if value < bound:
                return value

    def substream(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, _mix64((self.stream + (index + 1) * _GAMMA) & _MASK64))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed:#x}, stream={self.stream:#x})"


# "a/b" texts of ASCII digits, no leading zeros, joined by commas: \d takes other digits
_RATIO = "(?:0|[1-9][0-9]*)/[1-9][0-9]*"
_RATIO_LIST = re.compile(f"{_RATIO}(?:,{_RATIO})*")


def _columns(length, masses, deficit):
    """(numerals, weights, deficit weight, denominator) of a distribution in
    the form to_json writes, or None.  The keys and the distinct texts are
    each checked in one pass; masses repeat as weights do, so each distinct
    text is parsed once.  Every text is in lowest terms, so the lcm of their
    denominators is the common denominator in lowest terms."""
    try:
        keys, texts = "".join(masses), [deficit, *{*masses.values()}]
        text = ",".join(texts)
    except (TypeError, AttributeError):  # a key or mass that is not a str, or no object
        return None
    # a text holding a comma would add a "/" to the count
    if not (type(length) is int and length >= 0 and set(map(len, masses)) <= {length}
            and keys.isascii() and not keys.encode().translate(None, b"01")
            and _RATIO_LIST.fullmatch(text) and text.count("/") == len(texts)):
        return None
    try:
        terms = list(map(int, text.replace(",", "/").split("/")))
    except ValueError:  # a number past int's digit limit
        return None
    nums, dens = terms[0::2], terms[1::2]
    # every mass positive, every text at most 1 and in lowest terms
    if not (all(nums[1:]) and all(map(int.__le__, nums, dens))
            and set(map(math.gcd, nums, dens)) == {1}):
        return None
    denominator = math.lcm(*dens)
    weight_of = {t: num * (denominator // den) for t, num, den in zip(texts, nums, dens)}
    numerals = tuple(map(int, masses, itertools.repeat(2))) if length else (0,) * len(masses)
    return (numerals, tuple(map(weight_of.__getitem__, masses.values())), weight_of[deficit],
            denominator)


def _form_fault(length, masses, deficit) -> str:
    """The one line naming the first field at which _columns refuses a
    distribution, found by asking it about each field alone."""
    if _columns(length, {}, "1/1") is None:
        return f"distribution length must be a non-negative integer, got {length!r}"
    if type(masses) is not dict:
        return f"distribution masses must be a JSON object, got {type(masses).__name__}"
    for key, text in masses.items():
        if _columns(length, {key: "1/1"}, "0/1") is None:
            return f"distribution masses key {key!r} is not 0/1 text of length {length}"
        if _columns(length, {key: text}, "0/1") is None:
            return (f'distribution masses.{key} must be "a/b" in lowest terms with '
                    f"0 < a <= b, got {text!r}")
    return f'distribution deficit must be "a/b" in lowest terms with 0 <= a <= b, got {deficit!r}'


def _ratio_text(weight: int, denominator: int) -> str:
    """weight / denominator as "num/den" in lowest terms."""
    g = math.gcd(weight, denominator)
    return f"{weight // g}/{denominator // g}"


def _window_columns(numerals, string_length: int, length: int) -> list:
    """The numerals of the windows of the given length of strings of
    string_length bits, one list per position, first position first.

    The numerals are packed once into one int, string i in lane i of whole
    64-bit words; a position's column is that int shifted and masked in every
    lane at once, read back a word per lane.  A window wider than 64 bits ORs
    the words of its lane together."""
    order, words = sys.byteorder, -(-string_length // 64)
    lane, count = 8 * words, len(numerals)  # lane in bytes
    packed = int.from_bytes(b"".join(map(int.to_bytes, numerals, itertools.repeat(lane),
                                         itertools.repeat(order))), order)
    lane_masks = int.from_bytes(((1 << length) - 1).to_bytes(lane, order) * count, order)
    # the word of significance k in each lane: a lane's bytes keep their order
    offsets = range(words) if order == "little" else range(words - 1, -1, -1)
    columns = []
    for shift in range(string_length - length, -1, -1):
        cells = memoryview(((packed >> shift) & lane_masks).to_bytes(lane * count, order)).cast("Q")
        column = cells[offsets[0]::words].tolist()
        for k in range(1, -(-length // 64)):
            column = list(map(operator.or_, column, map(operator.lshift, cells[offsets[k]::words]
                                                       .tolist(), itertools.repeat(64 * k))))
        columns.append(column)
    return columns


class FiniteDistribution:
    """Explicit (sub)probability distribution over fixed-length bit strings.

    The support is two read-only columns in support order: `numerals`, each
    string read most significant bit first, and integer `weights` over one
    common `denominator`, so every certificate sums integers and divides
    once.  The deficit is the mass assigned to "no output"; masses plus
    deficit must sum to exactly 1.  The constructor takes these columns
    and checks that sum; from_json is the one reader of text.
    """

    __slots__ = ("string_length", "denominator", "numerals", "weights", "deficit_weight",
                 "_table")

    def __init__(self, string_length: int, numerals, weights: tuple, deficit_weight: int,
                 denominator: int):
        total = sum(weights) + deficit_weight
        if total != denominator:
            raise ValueError(f"masses plus deficit must equal 1, got "
                             f"{frac_to_str(Fraction(total, denominator))}")
        self.string_length = string_length
        self.denominator = denominator
        self.numerals = numerals
        self.weights = weights
        self.deficit_weight = deficit_weight
        self._table = (None, ())  # (window length, rows) of the last windows call

    @classmethod
    def uniform(cls, string_length: int) -> "FiniteDistribution":
        """Weight 1 on each of the 2**L strings, over denominator 2**L."""
        if string_length > SIZE_LIMIT_BITS:
            raise ValueError("uniform support too large to enumerate")
        size = 1 << string_length
        return cls(string_length, range(size), (1,) * size, 0, size)

    @property
    def deficit(self) -> ExactProb:
        return ExactProb(self.deficit_weight, self.denominator)

    def windows(self, length: int) -> tuple:
        """(numeral, window numerals, weight) for each support string, in
        support order: the string's numeral, the numerals of its windows of
        the given length in order of position, and its integer weight.

        The rows of the last length asked for are kept, so the certificates
        that read one window length over and over read each string once; a
        new length replaces them."""
        cached_length, rows = self._table
        if length != cached_length:
            if not 0 < length <= self.string_length:
                raise ValueError(f"window length {length} out of range")
            # one column of window numerals per position, turned into rows by zip
            columns = _window_columns(self.numerals, self.string_length, length)
            rows = tuple(zip(self.numerals, zip(*columns), self.weights))
            self._table = (length, rows)
        return rows

    def to_json(self) -> dict:
        denominator = self.denominator
        texts = {w: _ratio_text(w, denominator) for w in set(self.weights)}  # weights repeat
        weight_of = dict(zip(self.numerals, self.weights))
        # a leading 1 keeps the zeros that bin would drop; an empty support builds none
        lead = 1 << self.string_length if weight_of else 0
        return {
            "length": self.string_length,
            "masses": {bin(lead | v)[3:]: texts[weight_of[v]] for v in sorted(weight_of)},
            "deficit": _ratio_text(self.deficit_weight, denominator),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteDistribution":
        """Read a distribution in exactly the form to_json writes: the keys
        length, masses and deficit; an int length; masses keyed by 0/1 text
        of that length, each "a/b" in lowest terms with 0 < a <= b; a deficit
        "a/b" in lowest terms with 0 <= a <= b; and all of them summing to 1.
        ValueError, in one line naming the field, on any other form."""
        if not (isinstance(doc, dict) and doc.keys() == {"deficit", "length", "masses"}):
            raise ValueError(f"a distribution has exactly the keys deficit, length and masses, "
                             f"got {list(doc) if isinstance(doc, dict) else type(doc).__name__}")
        length, masses, deficit = doc["length"], doc["masses"], doc["deficit"]
        columns = _columns(length, masses, deficit)
        if columns is None:
            raise ValueError(_form_fault(length, masses, deficit))
        return cls(length, *columns)

    def __repr__(self) -> str:
        return (f"FiniteDistribution(length={self.string_length}, "
                f"support={len(self.numerals)}, deficit={frac_to_str(self.deficit)})")
