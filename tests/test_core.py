import math
from fractions import Fraction

import pytest

from ecseq.core import (BitString, ExactProb, FiniteDistribution, RandomSource,
                        binom, floor_root, frac_from_str, frac_to_str, pow2_floor,
                        read_bit_file, write_bit_file)


def bs(text):
    return BitString.from_text(text)


# ---------------------------------------------------------------- binom

def _pascal_rows(limit):
    rows = [[1]]
    for a in range(1, limit + 1):
        prev = rows[-1]
        row = [1]
        for b in range(1, a):
            row.append(prev[b - 1] + prev[b])
        row.append(1)
        rows.append(row)
    return rows


def test_binom_trivial():
    assert binom(5, 0) == 1
    assert binom(4, 2) == 6
    assert binom(3, 7) == 0


def test_binom_against_pascal_oracle():
    rows = _pascal_rows(64)
    assert rows[16][4] == 1820
    assert binom(16, 4) == 1820
    for a in range(65):
        for b in range(a + 1):
            assert binom(a, b) == rows[a][b]


def test_binom_pascal_identity_exhaustive():
    for a in range(1, 65):
        for b in range(1, 65):
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom(-1, 0)


# ---------------------------------------------------------------- windows

def test_window_examples():
    assert bs("0110").window(0, 4) == bs("0110")
    assert bs("0110").window(1, 2) == bs("11")
    with pytest.raises(ValueError):
        bs("0110").window(3, 2)


def test_window_identity_and_composition():
    rs = RandomSource(100)
    for _ in range(50):
        x = rs.bits(1 + rs.below(40))
        assert x.window(0, len(x)) == x
        k = rs.below(len(x) + 1)
        n = rs.below(len(x) - k + 1)
        inner = x.window(k, n)
        if n:
            j = rs.below(n)
            m = rs.below(n - j + 1)
            assert inner.window(j, m) == x.window(k + j, m)


def test_bitstring_representations():
    x = bs("0110")
    assert len(x) == 4
    assert [x[i] for i in range(4)] == [0, 1, 1, 0]
    assert x.to_numeral() == 0b0110
    assert BitString.from_numeral(0b0110, 4) == x
    assert x.to_text() == "0110"
    assert BitString.from_packed_bytes(x.to_packed_bytes(), 4) == x
    assert bs("01") + bs("10") == bs("0110")
    with pytest.raises(IndexError):
        x[4]
    with pytest.raises(ValueError):
        BitString(4, 2)


def test_numeral_windows_against_naive():
    rs = RandomSource(5)
    for _ in range(30):
        x = rs.bits(3 + rs.below(60))
        n = 1 + rs.below(len(x))
        got = list(x.numeral_windows(n))
        naive = [x.window(k, n).to_numeral() for k in range(len(x) - n + 1)]
        assert got == naive


def test_bit_file_round_trip(tmp_path):
    x = RandomSource(9).bits(777)
    packed = tmp_path / "x.bits"
    ascii_path = tmp_path / "x.txt"
    write_bit_file(packed, x, fmt="packed")
    write_bit_file(ascii_path, x, fmt="ascii")
    assert read_bit_file(packed) == x
    assert read_bit_file(ascii_path) == x


# ---------------------------------------------------------------- exact rationals

def _gcd_reduce(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


def test_exact_prob_against_integer_oracle():
    # cross-multiplication oracle, reduced by explicit gcd
    rs = RandomSource(42)
    for _ in range(1000):
        a, c = rs.below(100), rs.below(100)
        b, d = 100 + rs.below(100), 100 + rs.below(100)
        p, q = ExactProb(a, b), ExactProb(c, d)
        prod = p * q
        num, den = _gcd_reduce(a * c, b * d)
        assert (prod.numerator, prod.denominator) == (num, den)
        s = Fraction(p) + Fraction(q)
        num, den = _gcd_reduce(a * d + c * b, b * d)
        assert (s.numerator, s.denominator) == (num, den)
        assert p.complement() == ExactProb(b - a, b)
        assert (p < q) == (a * d < c * b)


def test_exact_prob_range():
    with pytest.raises(ValueError):
        ExactProb(3, 2)
    with pytest.raises(ValueError):
        ExactProb(-1, 2)
    assert frac_to_str(ExactProb(2, 4)) == "1/2"
    assert frac_from_str("7/16") == Fraction(7, 16)


def test_floor_root_exact():
    rs = RandomSource(77)
    for _ in range(200):
        value = rs.below(1 << 40)
        degree = 1 + rs.below(6)
        r = floor_root(value, degree)
        assert r ** degree <= value < (r + 1) ** degree


def test_pow2_floor():
    assert pow2_floor(Fraction(10)) == 1024
    assert pow2_floor(Fraction(24, 5)) == 27       # floor(2**4.8)
    assert pow2_floor(Fraction(3, 5) * 8) == 27
    assert pow2_floor(Fraction(1, 2)) == 1
    assert 27 ** 5 <= 2 ** 24 < 28 ** 5


# ---------------------------------------------------------------- random source

def test_random_source_reproducible_megabit():
    a = RandomSource(1234).bits(10 ** 6)
    b = RandomSource(1234).bits(10 ** 6)
    assert a == b
    assert a != RandomSource(1235).bits(10 ** 6)


def test_random_source_substreams_independent():
    base = RandomSource(7)
    sub0 = base.substream(0)
    sub1 = base.substream(1)
    first = sub0.bits(256)
    # drawing from one substream does not disturb another
    assert base.substream(0).bits(256) == first
    assert sub1.bits(256) != first


def test_random_source_counter_is_stateless():
    rs = RandomSource(3)
    words = [rs.next_word() for _ in range(10)]
    assert words == [RandomSource(3).word_at(i) for i in range(10)]


def test_below_is_exact_and_deterministic():
    rs = RandomSource(11)
    values = [rs.below(7) for _ in range(2000)]
    assert set(values) <= set(range(7))
    assert len(set(values)) == 7
    again = RandomSource(11)
    assert values == [again.below(7) for _ in range(2000)]


# ---------------------------------------------------------------- distributions

def test_distribution_invariants():
    d = FiniteDistribution.uniform(3)
    assert d.support_size() == 8
    assert sum(Fraction(m) for _, m in d.items()) + d.deficit == 1
    with pytest.raises(ValueError):
        FiniteDistribution(2, {bs("01"): ExactProb(1, 2)})
    with pytest.raises(ValueError):
        FiniteDistribution(2, {bs("011"): ExactProb(1)})


def test_distribution_json_round_trip():
    d = FiniteDistribution(2, {bs("01"): ExactProb(1, 4), bs("10"): ExactProb(5, 8)},
                           deficit=ExactProb(1, 8))
    back = FiniteDistribution.from_json(d.to_json())
    assert back.string_length == 2
    assert back.mass(bs("01")) == Fraction(1, 4)
    assert back.deficit == Fraction(1, 8)


@pytest.mark.parametrize("doc", [
    {"length": 1, "masses": {"0": "1/0", "1": "1/1"}},
    {"length": 1, "masses": {"0": "1/1"}, "deficit": "1/0"},
    {"length": 1, "masses": {"0": "one"}},
    {"length": 1, "masses": {"01": "1/1"}},
    {"length": 1, "masses": ["0"]},
    {"masses": {"0": "1/1"}},
])
def test_distribution_from_json_rejects_malformed_input(doc):
    with pytest.raises(ValueError):
        FiniteDistribution.from_json(doc)


def test_distribution_rescaling():
    d = FiniteDistribution.uniform(4).scaled_to_deficit(ExactProb(1, 8))
    assert d.deficit == Fraction(1, 8)
    assert d.mass(bs("0000")) == Fraction(7, 8) / 16
    assert sum(Fraction(m) for _, m in d.items()) == Fraction(7, 8)
