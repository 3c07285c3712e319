import pytest

from ecseq.core import BitString, RandomSource
from ecseq import proxy
from ecseq.proxy import (LENGTH_HEADER_BITS, compress_bits, compress_size, index_bits,
                         window_profile)

from oracles import concat, decompress_bits


def bs(text):
    return BitString.from_text(text)


def test_empty_string_is_header_only():
    assert compress_size(BitString(0, 0)) == LENGTH_HEADER_BITS


def test_round_trip_random_strings():
    rs = RandomSource(31)
    for trial in range(1000):
        x = rs.bits(rs.below(220))
        assert decompress_bits(compress_bits(x)) == x


def test_round_trip_structured_strings():
    for text in ("0", "1", "01" * 40, "000" * 30, "0001011100", "1" * 257):
        x = bs(text)
        assert decompress_bits(compress_bits(x)) == x


def test_foreign_streams_decode_or_raise_value_error():
    rs = RandomSource(41)
    for trial in range(300):
        stream = rs.bits(rs.below(260))
        try:
            decompress_bits(stream)
        except ValueError:
            pass
    # the phrases are "", "1" and "10" when the third index is read, in two
    # bits: "11" names phrase 3, which does not exist
    header = format(10, f"0{LENGTH_HEADER_BITS}b")[::-1]
    with pytest.raises(ValueError):
        decompress_bits(bs(header + "1" + "10" + "11"))


def test_compress_size_deterministic():
    x = RandomSource(8).bits(500)
    assert compress_size(x) == compress_size(x) == len(compress_bits(x))


def test_compress_size_counts_what_compress_bits_writes():
    rs = RandomSource(19)
    for length in range(300):
        for x in (rs.bits(length), BitString(0, length), bs(("01" * length)[:length])):
            assert compress_size(x) == len(compress_bits(x)), x.to_text()
    for trial in range(3000):
        x = rs.bits(256)
        assert compress_size(x) == len(compress_bits(x)), x.to_text()


def test_index_bits_closed_form_matches_the_direct_sum():
    direct = 0
    for phrases in range(5001):
        assert index_bits(phrases) == direct, phrases
        direct += phrases.bit_length()


def test_profile_sizes_match_compress_bits_on_each_window():
    x = concat(RandomSource(21).bits(1500), BitString(0, 300), bs("01" * 150))
    profile = window_profile(x, 256, stride=37)
    text = x.to_text()
    assert profile.sizes == tuple(len(compress_bits(bs(text[o:o + 256]))) for o in profile.offsets)


def test_length_header_bounds_every_size(monkeypatch):
    monkeypatch.setattr(proxy, "LENGTH_HEADER_BITS", 4)
    x = RandomSource(2).bits(16)
    for size in (compress_bits, compress_size, lambda x: window_profile(x, 16)):
        with pytest.raises(ValueError, match="length header"):
            size(x)
    short = bs(x.to_text()[:15])
    assert compress_size(short) == len(compress_bits(short))


def test_zero_run_compresses_below_random():
    zeros = compress_size(BitString(0, 4096))
    wins = sum(1 for seed in range(100)
               if zeros < compress_size(RandomSource(seed).bits(4096)))
    assert wins >= 95


def test_subadditivity_on_random_pairs():
    rs = RandomSource(12)
    for trial in range(50):
        x = rs.bits(100 + rs.below(400))
        y = rs.bits(100 + rs.below(400))
        assert compress_size(concat(x, y)) <= (compress_size(x) + compress_size(y)
                                        + LENGTH_HEADER_BITS)


def test_profile_constant_string():
    profile = window_profile(BitString((1 << 256) - 1, 256), 64, stride=16)
    assert len(set(profile.sizes)) == 1
    assert profile.min_size == profile.max_size == profile.mean_size


def test_profile_single_window_matches_whole_string():
    x = RandomSource(3).bits(128)
    profile = window_profile(x, 128)
    assert profile.offsets == (0,)
    assert profile.sizes == (compress_size(x),)


def test_profile_summary_ordering():
    x = RandomSource(4).bits(2048)
    profile = window_profile(x, 256, stride=64)
    assert profile.min_size <= profile.mean_size <= profile.max_size


def test_profile_finds_embedded_zero_run():
    hits = 0
    for seed in range(20):
        rs = RandomSource(seed)
        x = concat(rs.bits(1024), BitString(0, 512), rs.bits(1024))
        profile = window_profile(x, 256, stride=32)
        best = profile.offsets[profile.sizes.index(profile.min_size)]
        if 1024 <= best and best + 256 <= 1024 + 512:
            hits += 1
    assert hits >= 19


def test_profile_argument_guards():
    with pytest.raises(ValueError):
        window_profile(bs("0101"), 8)
    with pytest.raises(ValueError):
        window_profile(bs("0101"), 2, stride=0)
