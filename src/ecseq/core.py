"""Foundational value types shared by every subsystem.

Everything here is exact and deterministic: bit strings, big-rational
probabilities, integer counting helpers, and a counter-based random source
whose output is a pure function of (seed, stream, draw index).  No floating
point is used anywhere in this module.
"""

import itertools
import math
from fractions import Fraction

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


class RandomSource:
    """Counter-based deterministic bit source.

    Word i of a source is a pure function of (seed, stream, i), so identical
    draw sequences reproduce bit-exactly on every platform and substreams
    never interact.  Not cryptographic.
    """

    __slots__ = ("seed", "stream", "_key", "_counter")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._key = _mix64(self.seed ^ _mix64(self.stream ^ _STREAM_SALT))
        self._counter = 0

    def word_at(self, index: int) -> int:
        return _mix64((self._key + (index + 1) * _GAMMA) & _MASK64)

    def next_word(self) -> int:
        word = self.word_at(self._counter)
        self._counter += 1
        return word

    def _take(self, bit_count: int) -> int:
        value = 0
        got = 0
        while got < bit_count:
            value |= self.next_word() << got
            got += 64
        return value & ((1 << bit_count) - 1)

    def bits(self, count: int) -> str:
        if count < 0:
            raise ValueError("bit count must be non-negative")
        return unpack_bits(self._take(count), count)

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


def _ratio_text(weight: int, denominator: int) -> str:
    """weight / denominator as "num/den" in lowest terms."""
    g = math.gcd(weight, denominator)
    return f"{weight // g}/{denominator // g}"


class FiniteDistribution:
    """Explicit (sub)probability distribution over fixed-length bit strings.

    The support is two read-only columns in support order: `numerals`, each
    string read most significant bit first, and integer `weights` over one
    common `denominator`, so every certificate sums integers and divides
    once.  The deficit is the mass assigned to "no output"; masses plus
    deficit must sum to exactly 1.
    """

    __slots__ = ("string_length", "denominator", "numerals", "weights", "deficit_weight",
                 "_table")

    def __init__(self, string_length: int, masses, deficit=ExactProb(0)):
        if string_length < 0:
            raise ValueError("string length must be non-negative")
        clean = {}  # support numeral -> (numerator, denominator) in lowest terms
        for key, mass in masses.items():
            if key.strip("01"):  # only 0/1 text skips folding
                key = fold_bits(key)
            if len(key) != string_length:
                raise ValueError(
                    f"support string of length {len(key)} in a length-{string_length} distribution"
                )
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
        total = sum(weights) + deficit_weight
        if total != denominator:
            raise ValueError(f"masses plus deficit must equal 1, got "
                             f"{frac_to_str(Fraction(total, denominator))}")
        self._set(string_length, denominator, tuple(clean), weights, deficit_weight)

    def _set(self, string_length: int, denominator: int, numerals, weights: tuple,
             deficit_weight: int) -> None:
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
        self = object.__new__(cls)
        size = 1 << string_length
        self._set(string_length, size, range(size), (1,) * size, 0)
        return self

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
            mask = (1 << length) - 1
            numerals = self.numerals
            # one column of window numerals per position, turned into rows by zip
            columns = [[(v >> s) & mask for v in numerals]
                       for s in range(self.string_length - length, -1, -1)]
            rows = tuple(zip(numerals, zip(*columns), self.weights))
            self._table = (length, rows)
        return rows

    def to_json(self) -> dict:
        denominator = self.denominator
        texts = {w: _ratio_text(w, denominator) for w in set(self.weights)}  # weights repeat
        weight_of = dict(zip(self.numerals, self.weights))
        lead = 1 << self.string_length  # a leading 1 keeps the zeros that bin would drop
        return {
            "length": self.string_length,
            "masses": {bin(lead | v)[3:]: texts[weight_of[v]] for v in sorted(weight_of)},
            "deficit": _ratio_text(self.deficit_weight, denominator),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteDistribution":
        """Parse a distribution written by to_json: an integer length, and
        masses and a deficit given as strings.  A string mass is read as
        "num/den" or in any other form ExactProb reads (a decimal, a sign,
        surrounding whitespace); ValueError on any other shape."""
        try:
            length, masses, deficit = doc["length"], doc["masses"], doc.get("deficit", "0/1")
            if type(length) is not int:
                raise ValueError(f"distribution length must be an integer, got {length!r}")
            for mass in itertools.chain(masses.values(), (deficit,)):
                if type(mass) is not str:
                    raise ValueError(f'distribution masses and deficit must be "num/den" '
                                     f"strings, got {mass!r}")
            return cls(length, masses, deficit)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(
                f"malformed distribution JSON ({type(exc).__name__}: {exc})") from exc

    def __repr__(self) -> str:
        return (f"FiniteDistribution(length={self.string_length}, "
                f"support={len(self.numerals)}, deficit={frac_to_str(self.deficit)})")
