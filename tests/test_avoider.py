from fractions import Fraction

import pytest

from ecseq.avoider import (AvoidanceInstance, brute_force_avoider,
                           build_avoiding_string, scan_violations)
from ecseq.core import BitString, RandomSource
from ecseq.forbidden import LevelFamily, SampledLevel, two_level_family


def bs(text):
    return BitString.from_text(text)


def explicit_family(alpha, sets):
    levels = [SampledLevel(n, frozenset(bs(t).to_numeral() for t in texts), (), 1 << n)
              for n, texts in sets.items()]
    return LevelFamily(Fraction(alpha), levels)


def naive_scan(x, family):
    # independent double-loop scanner
    out = []
    for k in range(len(x)):
        for n in family.level_lengths():
            if k + n <= len(x) and family.membership(n, x.window(k, n).to_numeral()):
                out.append((k, n))
    return sorted(out)


EMPTY = LevelFamily(Fraction(1, 2), [])
TRIPLES = explicit_family(1, {3: ["000", "111"]})
UNSAT = explicit_family(1, {1: ["0", "1"]})


# ---------------------------------------------------------------- scanning

def test_scan_empty_family():
    assert scan_violations(RandomSource(0).bits(50), EMPTY) == []


def test_scan_hand_example():
    assert scan_violations(bs("0001110"), TRIPLES) == [(0, 3), (3, 3)]


def test_scan_agrees_with_naive_oracle():
    rs = RandomSource(17)
    for trial in range(100):
        x = rs.bits(8 + rs.below(40))
        sets = {}
        for n in (2, 3, 5):
            members = {rs.below(1 << n) for _ in range(1 + rs.below(3))}
            sets[n] = [BitString.from_numeral(v, n).to_text() for v in members]
        family = explicit_family(1, sets)
        assert scan_violations(x, family) == naive_scan(x, family)


def test_first_agrees_with_naive_oracle():
    rs = RandomSource(29)
    for trial in range(200):
        x = rs.bits(4 + rs.below(40))
        sets = {}
        for n in range(2, 8):
            if rs.below(2):
                members = {rs.below(1 << n) for _ in range(1 + rs.below(4))}
                sets[n] = [BitString.from_numeral(v, n).to_text() for v in members]
        family = explicit_family(1, sets)
        start = rs.below(len(x) + 1)
        expected = min((hit for hit in naive_scan(x, family) if hit[0] >= start), default=None)
        assert family.scanner().first(x.to_bits(), start) == expected


def test_first_looks_ahead_past_the_first_match():
    # "10001" starts at 2, but the first match to end is "00" at 3
    family = explicit_family(1, {2: ["00"], 5: ["10001"]})
    bits = bs("0110001").to_bits()
    assert family.scanner().first(bits) == (2, 5)
    assert family.scanner().first(bits, 3) == (3, 2)


def test_scan_rejects_implicit_levels():
    family, _ = two_level_family(Fraction(3, 5), Fraction(1, 2), 2, RandomSource(3))
    with pytest.raises(ValueError):
        scan_violations(RandomSource(0).bits(family.string_length), family)


# ---------------------------------------------------------------- building

def test_empty_family_accepts_first_draw():
    inst = AvoidanceInstance(EMPTY, 32, 10, RandomSource(4))
    result = build_avoiding_string(inst)
    assert result.succeeded and result.resamples == 0
    assert result.string == RandomSource(4).bits(32)


def test_triples_toy_succeeds():
    # a witness exists ("0101010101"), so the builder should find one too
    assert scan_violations(bs("0101010101"), TRIPLES) == []
    inst = AvoidanceInstance(TRIPLES, 10, 10 ** 4, RandomSource(2))
    result = build_avoiding_string(inst)
    assert result.succeeded
    assert scan_violations(result.string, TRIPLES) == []
    assert naive_scan(result.string, TRIPLES) == []


def test_unsatisfiable_exhausts_budget():
    inst = AvoidanceInstance(UNSAT, 6, 200, RandomSource(0))
    result = build_avoiding_string(inst)
    assert not result.succeeded
    assert result.resamples == 200
    assert result.residual_violations > 0
    assert result.string is None


def test_density_guard_rejects_oversized_level():
    from ecseq.core import CertificateError
    from ecseq.forbidden import LevelFamily, SampledLevel
    oversized = [SampledLevel(2, frozenset({0, 1, 2}), (), 4)]
    with pytest.raises(CertificateError):
        LevelFamily(Fraction(1, 2), oversized)
    family = LevelFamily(Fraction(1, 2), oversized, enforce_bounds=False)
    with pytest.raises(ValueError):
        AvoidanceInstance(family, 10, 10, RandomSource(0))


def test_instance_rejects_levels_beyond_length():
    with pytest.raises(ValueError):
        AvoidanceInstance(TRIPLES, 2, 10, RandomSource(0))


def test_build_is_deterministic():
    first = build_avoiding_string(AvoidanceInstance(TRIPLES, 64, 10 ** 4, RandomSource(9)))
    second = build_avoiding_string(AvoidanceInstance(TRIPLES, 64, 10 ** 4, RandomSource(9)))
    assert first.string == second.string
    assert first.resamples == second.resamples


# ---------------------------------------------------------------- brute force

def test_brute_force_examples():
    assert brute_force_avoider(EMPTY, 3) == bs("000")
    got = brute_force_avoider(explicit_family(1, {2: ["00"]}), 4)
    assert got == bs("0101")
    assert brute_force_avoider(UNSAT, 5) is None
    with pytest.raises(ValueError):
        brute_force_avoider(EMPTY, 30)


def test_brute_force_agrees_with_plain_enumeration():
    rs = RandomSource(23)
    for trial in range(30):
        sets = {2: [], 3: []}
        for n in (2, 3):
            members = {rs.below(1 << n) for _ in range(rs.below(4))}
            sets[n] = [BitString.from_numeral(v, n).to_text() for v in members]
        family = explicit_family(1, sets)
        length = 4 + rs.below(6)
        expected = None
        for v in range(1 << length):
            x = BitString.from_numeral(v, length)
            if not naive_scan(x, family):
                expected = x
                break
        assert brute_force_avoider(family, length) == expected


def test_oracle_agreement_on_unsat_and_witness_instances():
    # unsatisfiable: brute says none, builder exhausts its budget
    assert brute_force_avoider(UNSAT, 8) is None
    result = build_avoiding_string(AvoidanceInstance(UNSAT, 8, 100, RandomSource(5)))
    assert not result.succeeded
    # witness exists: both find one
    assert brute_force_avoider(TRIPLES, 16) is not None
    result = build_avoiding_string(AvoidanceInstance(TRIPLES, 16, 10 ** 4, RandomSource(5)))
    assert result.succeeded
