"""Compression-based size proxy for bit strings.

A self-contained incremental dictionary parse: each phrase extends a
previously seen phrase by one bit and is emitted as (phrase index, bit).
The encoded size upper-bounds description length and is bit-exact across
platforms; it is a heuristic profile signal only and never feeds
certificates.
"""

from dataclasses import dataclass

from .core import _BIT_VALUES

LENGTH_HEADER_BITS = 32


def _emit(out: list, value: int, width: int):
    """Append the low `width` bits of value as text, least significant first."""
    if width:
        out.append(format(value, f"0{width}b")[::-1])


def compress_bits(x: str) -> str:
    """Encode x as a self-delimiting dictionary parse."""
    if len(x) >= (1 << LENGTH_HEADER_BITS):
        raise ValueError("string too long for the length header")
    out = []
    _emit(out, len(x), LENGTH_HEADER_BITS)
    trie = {}
    next_id = 1  # node 0 is the empty root
    node = 0
    for bit in x:
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
    return "".join(out)


def index_bits(phrases: int) -> int:
    """Total width of the indices compress_bits writes for its first `phrases`
    phrases: the sum of k.bit_length() over k < phrases, which is
    phrases * w - 2**w + 1 for w = phrases.bit_length(), since for each
    j <= w the k at or above 2**(j - 1) add one bit each."""
    width = phrases.bit_length()
    return phrases * width - (1 << width) + 1


def _size(data: bytes) -> int:
    """len(compress_bits(x)) for the bit values of x, one per byte, by
    counting the phrases of the parse instead of writing them."""
    if len(data) >= (1 << LENGTH_HEADER_BITS):
        raise ValueError("string too long for the length header")
    seen = set()
    add = seen.add
    node = 1  # the bits of the current phrase under a leading 1
    for bit in data:
        node += node + bit
        if node in seen:
            continue
        add(node)
        node = 1
    phrases = len(seen)
    size = LENGTH_HEADER_BITS + phrases + index_bits(phrases)
    # input ended mid-walk: compress_bits writes one more index
    return size + phrases.bit_length() if node != 1 else size


def compress_size(x: str) -> int:
    """Proxy size in bits (header included); deterministic in x."""
    return _size(x.encode().translate(_BIT_VALUES))


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


def window_profile(x: str, window_length: int, stride: int = 1) -> ComplexityProfile:
    """Proxy size of every window at the given stride."""
    if window_length < 1:
        raise ValueError("window length must be positive")
    if window_length > len(x):
        raise ValueError("window longer than the string")
    if stride < 1:
        raise ValueError("stride must be positive")
    data = x.encode().translate(_BIT_VALUES)
    offsets = range(0, len(x) - window_length + 1, stride)
    sizes = [_size(data[offset:offset + window_length]) for offset in offsets]
    return ComplexityProfile(window_length, stride, tuple(offsets), tuple(sizes))
