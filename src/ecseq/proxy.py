"""Compression-based size proxy for bit strings.

A self-contained incremental dictionary parse: each phrase extends a
previously seen phrase by one bit and is emitted as (phrase index, bit).
The encoded size upper-bounds description length and is bit-exact across
platforms; it is a heuristic profile signal only and never feeds
certificates.
"""

from dataclasses import dataclass

from .core import BitString

LENGTH_HEADER_BITS = 32


def _emit(out: list, value: int, width: int):
    """Append the low `width` bits of value as text, least significant first."""
    if width:
        out.append(format(value, f"0{width}b")[::-1])


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


def compress_bits(x: BitString) -> BitString:
    """Encode x as a self-delimiting dictionary parse."""
    if len(x) >= (1 << LENGTH_HEADER_BITS):
        raise ValueError("string too long for the length header")
    out = []
    _emit(out, len(x), LENGTH_HEADER_BITS)
    trie = {}
    next_id = 1  # node 0 is the empty root
    node = 0
    for bit in x.to_text():
        key = (node, bit)
        if key in trie:
            node = trie[key]
            continue
        width = (next_id - 1).bit_length()
        _emit(out, node, width)
        out.append(bit)
        trie[key] = next_id
        next_id += 1
        node = 0
    if node != 0:
        # input ended mid-walk: emit the node, decoder truncates by the header
        _emit(out, node, (next_id - 1).bit_length())
    return BitString.from_text("".join(out))


def decompress_bits(stream: BitString) -> BitString:
    reader = _Reader(stream.to_text())
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
    return BitString.from_text("".join(out))


def compress_size(x: BitString) -> int:
    """Proxy size in bits (header included); deterministic in x."""
    return len(compress_bits(x))


@dataclass(frozen=True)
class ComplexityProfile:
    window_length: int
    stride: int
    offsets: tuple
    sizes: tuple

    @property
    def min_size(self) -> int:
        return min(self.sizes)

    @property
    def max_size(self) -> int:
        return max(self.sizes)

    @property
    def mean_size(self) -> float:
        return sum(self.sizes) / len(self.sizes)

    def to_json(self) -> dict:
        return {
            "window_length": self.window_length,
            "stride": self.stride,
            "rows": [{"offset": o, "bits": s} for o, s in zip(self.offsets, self.sizes)],
            "min_bits": self.min_size,
            "max_bits": self.max_size,
            "mean_bits": self.mean_size,
        }


def window_profile(x: BitString, window_length: int, stride: int = 1) -> ComplexityProfile:
    """Proxy size of every window at the given stride."""
    if window_length < 1:
        raise ValueError("window length must be positive")
    if window_length > len(x):
        raise ValueError("window longer than the string")
    if stride < 1:
        raise ValueError("stride must be positive")
    offsets = []
    sizes = []
    for offset in range(0, len(x) - window_length + 1, stride):
        offsets.append(offset)
        sizes.append(compress_size(x.window(offset, window_length)))
    return ComplexityProfile(window_length, stride, tuple(offsets), tuple(sizes))
