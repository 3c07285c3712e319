import math
from fractions import Fraction

import pytest

from ecseq import core
from ecseq.core import (BitString, ExactProb, FiniteDistribution, RandomSource, floor_root,
                        fold_bits, frac_to_str, pack_bits, pow2_at_most, pow2_floor,
                        read_bit_file, unpack_bits, write_bit_file)

from oracles import (OracleBitString, PackedReference, numeral_windows, oracle_bit_file_bytes,
                     oracle_distribution_json, oracle_distribution_weights, oracle_window_rows,
                     scaled_to_deficit, support_masses, support_weights)


def test_bitstring_representations():
    x = OracleBitString.from_text("0110")
    assert len(x) == 4
    assert x.to_text() == "0110"
    assert OracleBitString.from_packed_bytes(x.to_packed_bytes(), 4) == x
    assert pack_bits("0110") == x.to_packed_bytes() == b"\x06"
    assert unpack_bits(6, 4) == "0110" and unpack_bits(0, 0) == ""
    with pytest.raises(ValueError):
        OracleBitString(4, 2)


def test_numeral_windows_against_naive():
    rs = RandomSource(5)
    for _ in range(30):
        x = rs.bits(3 + rs.below(60))
        n = 1 + rs.below(len(x))
        got = list(numeral_windows(x, n))
        naive = [int(x[k:k + n], 2) for k in range(len(x) - n + 1)]
        assert got == naive


def _agrees(x, ref):
    assert len(x) == ref.length
    assert [int(c) for c in x] == list(ref.bits_reference())
    assert pack_bits(x) == ref.to_packed_bytes()


def test_bitstring_agrees_with_packed_reference():
    rs = RandomSource(2024)
    lengths = [0, 1, 7, 8, 9, 63, 64, 65] + [rs.below(301) for _ in range(40)]
    for length in lengths:
        value = rs.below(1 << length) if length else 0
        x, ref = unpack_bits(value, length), PackedReference(value, length)
        _agrees(x, ref)
        assert OracleBitString(value, length).to_text() == x
        # the oracle's packed round trip ignores payload bits beyond the bit count
        padded = bytearray(ref.to_packed_bytes() + b"\xff")
        if length % 8:
            padded[-2] |= (0xFF << (length % 8)) & 0xFF
        assert OracleBitString.from_packed_bytes(bytes(padded), length).to_text() == x
        for _ in range(5):
            start = rs.below(length + 1)
            size = rs.below(length - start + 1)
            _agrees(x[start:start + size], ref.window(start, size))
        for n in (1, 2, 12, length, 1 + rs.below(length or 1)):
            if 1 <= n <= length:
                assert list(numeral_windows(x, n)) == list(ref.numeral_windows(n))
        tail_length = rs.below(70)
        tail_value = rs.below(1 << tail_length) if tail_length else 0
        _agrees(x + unpack_bits(tail_value, tail_length),
                ref + PackedReference(tail_value, tail_length))
        # the two names the benchmark's tracer times
        twin = BitString.from_bits(ref.bits_reference())
        assert twin == x and twin.to_bits() == list(ref.bits_reference())


def test_bit_file_round_trip(tmp_path):
    x = RandomSource(9).bits(777)
    packed = tmp_path / "x.bits"
    ascii_path = tmp_path / "x.txt"
    write_bit_file(packed, x, fmt="packed")
    write_bit_file(ascii_path, x, fmt="ascii")
    assert read_bit_file(packed) == x
    assert read_bit_file(ascii_path) == x


FOLD_INPUTS = ["", " ", "0", "1", "0110", " 0 1\n", "01\r\n10\t", "\u20030\u00a01",
               "012", "0b1", "ab", " x ", "\u0660", "0\x001", "1.0", "-1", "0,1"]


def test_bit_layer_agrees_with_the_oracle_bit_string(tmp_path):
    path = tmp_path / "x.bits"
    rs = RandomSource(31)
    for seed in (0, 1, 7, (1 << 64) - 1):
        drawn, oracle = RandomSource(seed, seed % 5), RandomSource(seed, seed % 5)
        for length in range(201):
            x = drawn.bits(length)
            assert x == OracleBitString(oracle._take(length), length).to_text()
            if length % 23 and length not in (0, 1, 8, 9, 64, 65, 200):
                continue
            for fmt in ("packed", "ascii"):
                write_bit_file(path, x, fmt=fmt)
                blob = path.read_bytes()
                assert blob == oracle_bit_file_bytes(OracleBitString.from_text(x), fmt)
                expected = (OracleBitString.from_packed_bytes(blob[12:], length)
                            if fmt == "packed" else OracleBitString.from_text(blob.decode()))
                assert read_bit_file(path) == expected.to_text() == x
            # ascii text with whitespace anywhere
            spaced = "".join(c + (" ", "\n", "\t", "\r\n", "")[rs.below(5)] for c in x)
            path.write_text("\n " + spaced)
            assert read_bit_file(path) == OracleBitString.from_text(spaced).to_text() == x
    for text in FOLD_INPUTS:
        assert _outcome(lambda: fold_bits(text)) == \
            _outcome(lambda: OracleBitString.from_text(text).to_text()), text


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
        assert ExactProb(1 - p) == ExactProb(b - a, b)
        assert (p < q) == (a * d < c * b)


def test_exact_prob_range():
    with pytest.raises(ValueError):
        ExactProb(3, 2)
    with pytest.raises(ValueError):
        ExactProb(-1, 2)
    assert frac_to_str(ExactProb(2, 4)) == "1/2"
    assert Fraction(frac_to_str(Fraction(7, 16))) == Fraction(7, 16)


def test_floor_root_exact():
    rs = RandomSource(77)
    for _ in range(200):
        value = rs.below(1 << 40)
        degree = 1 + rs.below(6)
        r = floor_root(value, degree)
        assert r ** degree <= value < (r + 1) ** degree


def test_floor_root_of_a_value_below_two_to_the_degree_is_one():
    # the Newton step would raise its start value to the power degree - 1
    assert floor_root(2, 10 ** 300) == 1
    assert pow2_floor(Fraction(1, 10 ** 300)) == 1
    for degree in range(2, 70):
        for value in (2, (1 << degree) - 1, 1 << degree, (1 << degree) + 1):
            r = floor_root(value, degree)
            assert r ** degree <= value < (r + 1) ** degree


def test_pow2_floor():
    assert pow2_floor(Fraction(10)) == 1024
    assert pow2_floor(Fraction(24, 5)) == 27       # floor(2**4.8)
    assert pow2_floor(Fraction(3, 5) * 8) == 27
    assert pow2_floor(Fraction(1, 2)) == 1
    assert 27 ** 5 <= 2 ** 24 < 28 ** 5


def test_pow2_at_most_agrees_with_pow2_floor():
    for exponent in {Fraction(p, q) for p in range(0, 60) for q in range(1, 8)}:
        bound = pow2_floor(exponent)
        counts = {0, 1, bound - 1, bound, bound + 1, 2 * bound, bound * bound}
        for count in counts | {1 << k for k in range(64)}:
            assert pow2_at_most(count, exponent) == (count <= bound), (count, exponent)


def test_pow2_at_most_decides_a_power_of_two_unbuilt_and_refuses_a_huge_power():
    exponent = Fraction(3 * 10 ** 12 + 1, 10 ** 12)  # floor(2**exponent) is 8
    assert pow2_at_most(7, exponent) and pow2_at_most(8, exponent)
    assert not pow2_at_most(16, exponent)
    with pytest.raises(ValueError, match=r"power above 2\*\*24 bits"):
        pow2_at_most(9, exponent)  # 9**(10**12) against 2**(3 * 10**12 + 1)


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
    assert len(dict(support_masses(d))) == 8
    assert sum(Fraction(m) for _, m in support_masses(d)) + d.deficit == 1
    with pytest.raises(ValueError):
        FiniteDistribution(2, {"01": ExactProb(1, 2)})
    with pytest.raises(ValueError):
        FiniteDistribution(2, {"011": ExactProb(1)})


def test_distribution_json_round_trip():
    d = FiniteDistribution(2, {"01": ExactProb(1, 4), "10": ExactProb(5, 8)},
                           deficit=ExactProb(1, 8))
    back = FiniteDistribution.from_json(d.to_json())
    assert back.string_length == 2
    assert dict(support_masses(back))["01"] == Fraction(1, 4)
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
    d = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(1, 8))
    assert d.deficit == Fraction(1, 8)
    assert dict(support_masses(d))["0000"] == Fraction(7, 8) / 16
    assert sum(Fraction(m) for _, m in support_masses(d)) == Fraction(7, 8)


def test_distribution_weights_share_one_denominator():
    d = FiniteDistribution(2, {"00": ExactProb(1, 3), "01": ExactProb(1, 6),
                               "10": ExactProb(1, 2)})
    assert d.denominator == 6
    assert dict(support_weights(d)) == {"00": 2, "01": 1, "10": 3}
    assert d.deficit_weight == 0 and d.deficit == 0
    assert dict(support_masses(d)) == {"00": Fraction(1, 3), "01": Fraction(1, 6),
                               "10": Fraction(1, 2)}
    assert d.to_json()["masses"] == {"00": "1/3", "01": "1/6", "10": "1/2"}


def test_distribution_deficit_only():
    d = FiniteDistribution(3, {}, deficit=ExactProb(1))
    assert (d.denominator, d.deficit_weight, dict(support_weights(d))) == (1, 1, {})
    assert d.to_json() == {"length": 3, "masses": {}, "deficit": "1/1"}


def test_distribution_drops_zero_masses():
    d = FiniteDistribution(2, {"00": "0/1", "11": "3/4"}, deficit="1/4")
    assert dict(support_weights(d)) == {"11": 3}
    assert (d.denominator, d.deficit_weight) == (4, 1)
    assert d.to_json()["masses"] == {"11": "3/4"}


@pytest.mark.parametrize("length", [0, 1, 2, 5])
def test_uniform_equals_the_validating_constructor(length):
    fast = FiniteDistribution.uniform(length)
    checked = FiniteDistribution(length, {format(v, f"0{length}b") if length else "":
                                          Fraction(1, 1 << length) for v in range(1 << length)})
    assert dict(support_weights(fast)) == dict(support_weights(checked))
    assert (fast.denominator, fast.deficit_weight) == (checked.denominator, checked.deficit_weight)
    assert fast.to_json() == checked.to_json()


def test_window_table_matches_numeral_windows_at_alternating_lengths():
    rs = RandomSource(31)
    for trial in range(60):
        length = 1 + rs.below(14)
        numerals = {rs.below(1 << length) for _ in range(rs.below(30))}
        weights = {format(v, f"0{length}b"): 1 + rs.below(9) for v in numerals}
        deficit = 1 + rs.below(4) if trial % 2 or not weights else 0
        total = sum(weights.values()) + deficit
        dist = FiniteDistribution(length, {x: Fraction(w, total) for x, w in weights.items()},
                                  Fraction(deficit, total))
        # one object asked for lengths in turn, repeats included
        for n in [1 + rs.below(length) for _ in range(6)]:
            assert dist.windows(n) == tuple(
                (int(x, 2), tuple(numeral_windows(x, n)), w)
                for x, w in support_weights(dist))
            assert dist.windows(n) == oracle_window_rows(dist, n)
        for bad in (0, length + 1):
            with pytest.raises(ValueError, match="out of range"):
                dist.windows(bad)
    assert FiniteDistribution.uniform(2).windows(1) == (
        (0, (0, 0), 1), (1, (0, 1), 1), (2, (1, 0), 1), (3, (1, 1), 1))


def test_a_distribution_builds_no_bit_string(monkeypatch):
    keys = [format(v * 0x9E3779B1 % (1 << 32), "032b") for v in range(1024)]  # all distinct
    doc = {"length": 32, "masses": {key: "1/2048" for key in keys}, "deficit": "1/2"}
    folded, fold = [], core.fold_bits
    monkeypatch.setattr(core, "fold_bits", lambda text: folded.append(text) or fold(text))
    uniform = FiniteDistribution.uniform(12)
    parsed = FiniteDistribution.from_json(doc)
    for dist, n in ((uniform, 5), (parsed, 9)):
        dist.windows(n)
        written = dist.to_json()
    assert folded == []  # '0'/'1' keys are read as they are
    assert all(type(v) is int for v in parsed.numerals)
    assert written == {"length": 32, "masses": {key: "1/2048" for key in sorted(keys)},
                       "deficit": "1/2"}
    FiniteDistribution(2, {" 01": "1/1"})  # the counter does count
    assert folded == [" 01"]


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def _mass_text(rs, mass: Fraction):
    """One of the forms a mass may be given in, chosen by rs.  All but the
    last few name the mass; those are malformed or out of range."""
    a, b = mass.numerator, mass.denominator
    k = 2 + rs.below(4)
    decimal = f"{a}/{b}"
    places = next((p for p in range(1, 8) if 10 ** p % b == 0), None)
    if places is not None:  # the mass has an exact decimal form
        digits = a * (10 ** places // b)
        decimal = f"{digits // 10 ** places}.{digits % 10 ** places:0{places}d}"
    forms = [f"{k * a}/{k * b}", f" {a}/{b} ", f"+{a}/{b}", f"{a}_0/{b * 10}",
             f"{a}/{b}".translate(ARABIC_INDIC), Fraction(a, b), ExactProb(a, b), decimal,
             "1/0", "3/2", "\u00b2/4", "1/", "-1/4", "0.25"]
    choice = rs.below(3 * len(forms))
    return forms[choice] if choice < len(forms) else f"{a}/{b}"


def _outcome(read):
    try:
        return read()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_distribution_constructor_agrees_with_the_exact_prob_oracle():
    def read_fast():
        d = FiniteDistribution(length, masses, deficit_mass)
        return d.denominator, list(support_weights(d)), d.deficit_weight

    def read_slow():
        denominator, weights, deficit_weight = oracle_distribution_weights(
            length, masses, deficit_mass)
        return denominator, list(weights.items()), deficit_weight

    rs = RandomSource(47)
    kinds = set()
    for trial in range(300):
        length = 1 + rs.below(6)
        numerals = sorted({rs.below(1 << length) for _ in range(1 + rs.below(6))})
        weights = [1 + rs.below(9) for _ in numerals]
        deficit = rs.below(4) if trial % 2 else 0
        total = sum(weights) + deficit
        if trial % 3 == 0:  # a denominator whose masses have exact decimal forms
            total = next(t for t in (10, 20, 25, 40, 50, 80, 100) if t >= total)
            weights[0] += total - sum(weights) - deficit
        masses = {}
        for v, w in zip(numerals, weights):
            text = format(v, f"0{length}b")
            key = (text, f"{text}\n", " ".join(text), f" {text}\n")[rs.below(4)]
            masses[key] = _mass_text(rs, Fraction(w, total))
        if rs.below(5) == 0:  # a zero mass, dropped before the duplicate check
            masses[format(rs.below(1 << length), f"0{length}b") + " "] = "0/7"
        if rs.below(6) == 0:  # the first string again after whitespace folding
            text = format(numerals[0], f"0{length}b")
            masses[text if text not in masses else " ".join(text)] = "1/4"
        if rs.below(12) == 0:  # a string of another length
            masses["0" * (length + 1)] = "1/2"
        deficit_mass = _mass_text(rs, Fraction(deficit, total))
        fast = _outcome(read_fast)
        assert fast == _outcome(read_slow), (length, masses, deficit_mass)
        kinds.add(fast[0] if len(fast) == 2 else "deficit" if fast[2] else "no deficit")
    assert kinds == {"deficit", "no deficit", ValueError, ZeroDivisionError}


def test_to_json_agrees_with_the_fraction_writer_and_round_trips():
    rs = RandomSource(53)
    for _ in range(200):
        length = 1 + rs.below(10)
        weights = {rs.below(1 << length): 1 + rs.below(30) for _ in range(rs.below(40))}
        deficit = 1 + rs.below(20)
        total = sum(weights.values()) + deficit
        dist = FiniteDistribution(
            length, {format(v, f"0{length}b"): Fraction(w, total) for v, w in weights.items()},
            Fraction(deficit, total))
        doc = dist.to_json()
        expected = oracle_distribution_json(dist)
        assert doc == expected
        assert list(doc["masses"]) == list(expected["masses"])  # sorted the same way
        back = FiniteDistribution.from_json(doc)
        assert dict(support_weights(back)) == dict(support_weights(dist))
        assert (back.denominator, back.deficit_weight) == (dist.denominator, dist.deficit_weight)


@pytest.mark.parametrize("doc, message", [
    ({"length": 2.0, "masses": {"00": "1/1"}}, "distribution length must be an integer, got 2.0"),
    ({"length": True, "masses": {"0": "1/1"}}, "distribution length must be an integer, got True"),
    ({"length": "2", "masses": {"00": "1/1"}},
     "distribution length must be an integer, got '2'"),
    ({"length": 2, "masses": {"00": 0.5, "11": 0.5}},
     'distribution masses and deficit must be "num/den" strings, got 0.5'),
    ({"length": 1, "masses": {"0": 1}},
     'distribution masses and deficit must be "num/den" strings, got 1'),
    ({"length": 2, "masses": {"00": "1/2", "11": "1/2"}, "deficit": 0},
     'distribution masses and deficit must be "num/den" strings, got 0'),
    ({"length": 2, "masses": {"00": "1/2"}, "deficit": None},
     'distribution masses and deficit must be "num/den" strings, got None'),
])
def test_distribution_from_json_needs_an_integer_length_and_string_masses(doc, message):
    with pytest.raises(ValueError) as caught:
        FiniteDistribution.from_json(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize("masses, deficit, message", [
    ({"01": "1/4", "10": "1/4"}, "0/1", "masses plus deficit must equal 1, got 1/2"),
    ({"01": "1/3", "10": "1/2"}, "1/3", "masses plus deficit must equal 1, got 7/6"),
    ({"01": "1/2", "0 1": "1/2"}, "0/1", "duplicate support string 01"),
    ({"01": "3/2"}, "0/1", "probability out of [0, 1]: 3/2"),
    ({"01": "-1/2", "10": "3/2"}, "0/1", "probability out of [0, 1]: -1/2"),
    ({"01": "1/2"}, "-1/2", "probability out of [0, 1]: -1/2"),
])
def test_distribution_error_messages(masses, deficit, message):
    with pytest.raises(ValueError) as caught:
        FiniteDistribution(2, masses, deficit)
    assert str(caught.value) == message
