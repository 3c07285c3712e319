"""Foundational value types shared by every subsystem.

Everything here is exact and deterministic: packed bit strings, big-rational
probabilities, integer counting helpers, and a counter-based random source
whose output is a pure function of (seed, stream, draw index).  No floating
point is used anywhere in this module.
"""

import math
from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x5851F42D4C957F2D

BIT_FILE_MAGIC = b"ECS1"


class CertificateError(RuntimeError):
    """An exact-arithmetic certificate failed to hold."""


def binom(a: int, b: int) -> int:
    """C(a, b) as an exact integer; 0 when b > a."""
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be non-negative")
    return math.comb(a, b)


def floor_root(value: int, degree: int) -> int:
    """Exact floor of the degree-th root of a non-negative integer."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if degree <= 0:
        raise ValueError("degree must be positive")
    if degree == 1 or value in (0, 1):
        return value
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


def frac_to_str(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def frac_from_str(text: str) -> Fraction:
    return Fraction(text)


class ExactProb(Fraction):
    """Exact probability: a Fraction constrained to [0, 1].

    Arithmetic falls back to plain Fraction (unbounded); wrap results back
    into ExactProb at certificate boundaries so range violations surface.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self < 0 or self > 1:
            raise ValueError(f"probability out of [0, 1]: {str(self)}")
        return self

    def complement(self) -> "ExactProb":
        return ExactProb(1 - self)


class BitString:
    """Immutable finite bit string.

    Bit i is the i-th character of the text form; the payload packs bit i at
    integer bit position i (least significant bit first), which is also the
    byte-packing order of the binary file format.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError("payload does not fit declared length")
        self._value = value
        self._length = length

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        compact = "".join(text.split())
        if compact and set(compact) - {"0", "1"}:
            raise ValueError("bit text may contain only '0' and '1'")
        value = int(compact[::-1], 2) if compact else 0
        return cls(value, len(compact))

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        text = "".join("1" if b else "0" for b in bits)
        return cls.from_text(text)

    @classmethod
    def from_numeral(cls, numeral: int, length: int) -> "BitString":
        """Build from the most-significant-bit-first integer reading."""
        if numeral < 0 or numeral >> length:
            raise ValueError("numeral does not fit declared length")
        return cls.from_text(format(numeral, f"0{length}b") if length else "")

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls((1 << length) - 1, length)

    @property
    def value(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        return (self._value >> index) & 1

    def bits(self):
        value = self._value
        for _ in range(self._length):
            yield value & 1
            value >>= 1

    def to_bits(self) -> list:
        return list(self.bits())

    def window(self, start: int, length: int) -> "BitString":
        """The substring covering positions [start, start + length)."""
        if start < 0 or length < 0 or start + length > self._length:
            raise ValueError(
                f"window [{start}, {start + length}) overruns length {self._length}"
            )
        return BitString((self._value >> start) & ((1 << length) - 1), length)

    def to_text(self) -> str:
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")[::-1]

    def to_numeral(self) -> int:
        """Most-significant-bit-first integer reading (position 0 on top)."""
        if self._length == 0:
            return 0
        return int(self.to_text(), 2)

    def numeral_windows(self, length: int):
        """Yield the numeral of every window of the given length, in order."""
        if length <= 0 or length > self._length:
            raise ValueError(f"window length {length} out of range")
        bits = self.to_bits()
        value = 0
        for i in range(length):
            value = (value << 1) | bits[i]
        yield value
        low_mask = (1 << (length - 1)) - 1
        for i in range(length, self._length):
            value = ((value & low_mask) << 1) | bits[i]
            yield value

    def to_packed_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8, "little")

    @classmethod
    def from_packed_bytes(cls, payload: bytes, bit_count: int) -> "BitString":
        value = int.from_bytes(payload, "little") & ((1 << bit_count) - 1)
        return cls(value, bit_count)

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(self._value | (other._value << self._length),
                         self._length + other._length)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitString)
                and self._length == other._length
                and self._value == other._value)

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 40:
            text = text[:37] + "..."
        return f"BitString({text!r}, length={self._length})"

    def __str__(self) -> str:
        return self.to_text()


def write_bit_file(path, bits: BitString, fmt: str = "packed") -> None:
    if fmt == "ascii":
        text = bits.to_text()
        lines = [text[i:i + 64] for i in range(0, len(text), 64)] or [""]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "packed":
        with open(path, "wb") as fh:
            fh.write(BIT_FILE_MAGIC)
            fh.write(len(bits).to_bytes(8, "little"))
            fh.write(bits.to_packed_bytes())
    else:
        raise ValueError(f"unknown bit file format: {fmt}")


def read_bit_file(path) -> BitString:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == BIT_FILE_MAGIC:
        bit_count = int.from_bytes(blob[4:12], "little")
        payload = blob[12:]
        if len(payload) < (bit_count + 7) // 8:
            raise ValueError("packed bit file truncated")
        return BitString.from_packed_bytes(payload, bit_count)
    return BitString.from_text(blob.decode("ascii"))


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

    def bit(self) -> int:
        return self._take(1)

    def bits(self, count: int) -> BitString:
        if count < 0:
            raise ValueError("bit count must be non-negative")
        return BitString(self._take(count), count)

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


class FiniteDistribution:
    """Explicit (sub)probability distribution over fixed-length bit strings.

    The deficit is the mass assigned to "no output"; masses plus deficit must
    sum to exactly 1.
    """

    __slots__ = ("string_length", "_masses", "deficit")

    def __init__(self, string_length: int, masses, deficit=ExactProb(0)):
        if string_length < 0:
            raise ValueError("string length must be non-negative")
        clean = {}
        total = Fraction(0)
        for key, mass in masses.items():
            if not isinstance(key, BitString):
                key = BitString.from_text(key)
            if len(key) != string_length:
                raise ValueError(
                    f"support string of length {len(key)} in a length-{string_length} distribution"
                )
            mass = ExactProb(mass)
            if mass == 0:
                continue
            if key in clean:
                raise ValueError(f"duplicate support string {key}")
            clean[key] = mass
            total += mass
        deficit = ExactProb(deficit)
        if total + deficit != 1:
            raise ValueError(f"masses plus deficit must equal 1, got {frac_to_str(total + deficit)}")
        self.string_length = string_length
        self._masses = clean
        self.deficit = deficit

    @classmethod
    def uniform(cls, string_length: int) -> "FiniteDistribution":
        if string_length > 24:
            raise ValueError("uniform support too large to enumerate")
        share = ExactProb(1, 1 << string_length)
        return cls(string_length,
                   {BitString(v, string_length): share for v in range(1 << string_length)})

    @classmethod
    def point_mass(cls, x: BitString) -> "FiniteDistribution":
        return cls(len(x), {x: ExactProb(1)})

    def mass(self, x: BitString) -> ExactProb:
        return self._masses.get(x, ExactProb(0))

    def items(self):
        return self._masses.items()

    def support_size(self) -> int:
        return len(self._masses)

    def total_mass(self) -> Fraction:
        return 1 - Fraction(self.deficit)

    def scaled_to_deficit(self, new_deficit) -> "FiniteDistribution":
        """Rescale the enumerated part proportionally to leave the given deficit."""
        new_deficit = ExactProb(new_deficit)
        old_mass = self.total_mass()
        if old_mass == 0:
            raise ValueError("cannot rescale an all-deficit distribution")
        factor = (1 - Fraction(new_deficit)) / old_mass
        masses = {x: ExactProb(Fraction(m) * factor) for x, m in self.items()}
        return FiniteDistribution(self.string_length, masses, new_deficit)

    def to_json(self) -> dict:
        return {
            "length": self.string_length,
            "masses": {x.to_text(): frac_to_str(m) for x, m in sorted(
                self.items(), key=lambda kv: kv[0].to_numeral())},
            "deficit": frac_to_str(self.deficit),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteDistribution":
        """Parse a distribution written by to_json; ValueError on any other shape."""
        try:
            return cls(doc["length"], doc["masses"], doc.get("deficit", "0/1"))
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(
                f"malformed distribution JSON ({type(exc).__name__}: {exc})") from exc

    def __repr__(self) -> str:
        return (f"FiniteDistribution(length={self.string_length}, "
                f"support={len(self._masses)}, deficit={frac_to_str(self.deficit)})")
