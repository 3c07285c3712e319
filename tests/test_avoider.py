import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ecseq
from ecseq import cli
from ecseq.avoider import (AvoidanceInstance, build_avoiding_string,
                           first_violation_pattern, scan_violations)
from ecseq.core import RandomSource
from ecseq.forbidden import LevelFamily, Scanner, random_level_family, two_level_family

from oracles import brute_force_avoider, membership, oracle_build_avoiding_string, scanner_first


def explicit_family(alpha, sets):
    levels = {n: [int(t, 2) for t in texts] for n, texts in sets.items()}
    return LevelFamily(Fraction(alpha), levels)


def naive_scan(x, family):
    # independent double-loop scanner
    out = []
    for k in range(len(x)):
        for n in family.levels:
            if k + n <= len(x) and membership(family, n, int(x[k:k + n], 2)):
                out.append((k, n))
    return sorted(out)


EMPTY = LevelFamily(Fraction(1, 2), {})
TRIPLES = explicit_family(1, {3: ["000", "111"]})
UNSAT = explicit_family(1, {1: ["0", "1"]})


# ---------------------------------------------------------------- scanning

def test_scan_empty_family():
    assert scan_violations(RandomSource(0).bits(50), EMPTY) == []


def test_scan_hand_example():
    assert scan_violations("0001110", TRIPLES) == [(0, 3), (3, 3)]


def test_scan_agrees_with_naive_oracle():
    rs = RandomSource(17)
    for trial in range(100):
        x = rs.bits(8 + rs.below(40))
        sets = {}
        for n in (2, 3, 5):
            members = {rs.below(1 << n) for _ in range(1 + rs.below(3))}
            sets[n] = [format(v, f"0{n}b") for v in members]
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
                sets[n] = [format(v, f"0{n}b") for v in members]
        family = explicit_family(1, sets)
        start = rs.below(len(x) + 1)
        expected = min((hit for hit in naive_scan(x, family) if hit[0] >= start), default=None)
        assert scanner_first(Scanner(family.levels), list(map(int, x)), start) == expected


def test_first_looks_ahead_past_the_first_match():
    # "10001" starts at 2, but the first match to end is "00" at 3
    family = explicit_family(1, {2: ["00"], 5: ["10001"]})
    bits = list(map(int, "0110001"))
    assert scanner_first(Scanner(family.levels), bits) == (2, 5)
    assert scanner_first(Scanner(family.levels), bits, 3) == (3, 2)


# ---------------------------------------------------------------- compiled search

def compiled_first(pattern, text, start=0):
    hit = pattern.search(text, start)
    return None if hit is None else (hit.start(), hit.end() - hit.start())


def assert_search_agrees(family, x, starts=None, pattern=None):
    pattern = pattern or first_violation_pattern(family)
    text, scanner = x.encode(), Scanner(family.levels)
    for start in range(len(text) + 1) if starts is None else starts:
        assert compiled_first(pattern, text, start) == scanner_first(scanner, text, start), \
            (family.to_json(), x, start)


def test_compiled_search_agrees_on_shared_prefixes():
    # each level extends a few stems, so strings overlap and share prefixes
    rs = RandomSource(37)
    for trial in range(150):
        stems = [format(rs.below(8), "03b") for _ in range(3)]
        sets = {}
        for n in range(2, 10):
            if rs.below(2):
                stem = stems[rs.below(3)][:min(3, n - 1)]
                rest = n - len(stem)
                sets[n] = {stem + format(rs.below(1 << rest), f"0{rest}b")
                           for _ in range(1 + rs.below(3))}
        assert_search_agrees(explicit_family(1, sets), rs.bits(1 + rs.below(60)))


def test_compiled_search_agrees_at_every_level_length():
    rs = RandomSource(43)
    for n in range(1, 25):
        for trial in range(4):
            sets = {n: [format(rs.below(1 << n), f"0{n}b") for _ in range(1 + rs.below(3))]}
            x = rs.bits(n + rs.below(80))
            assert_search_agrees(explicit_family(1, sets), x)
            # plant the first string so every length matches somewhere
            planted = x + sets[n][0] + rs.bits(3)
            assert_search_agrees(explicit_family(1, sets), planted, range(0, len(planted), 7))


def test_compiled_search_takes_the_shorter_of_nested_strings():
    family = explicit_family(1, {2: ["01"], 5: ["01101"], 3: ["110"], 6: ["110011"]})
    for text in ("01101", "110011", "0110011", "1110110", "111", "00110"):
        assert_search_agrees(family, text)
    pattern = first_violation_pattern(family)
    assert compiled_first(pattern, b"001101") == (1, 2)
    assert compiled_first(pattern, b"111011") == (1, 3)


def test_compiled_search_matches_nothing_without_strings():
    x = RandomSource(6).bits(40)
    for family in (EMPTY, explicit_family(1, {3: [], 5: []})):
        assert compiled_first(first_violation_pattern(family), x.encode()) is None
        assert_search_agrees(family, x)
    assert_search_agrees(explicit_family(1, {3: [], 4: ["0110"]}), x)


def deep_family():
    """Levels 2..1001, level n holding 0^(n-1) 1: its trie branches at every
    node of the all-zero path."""
    return explicit_family(1, {n: ["0" * (n - 1) + "1"] for n in range(2, 1002)})


def test_compiled_search_on_the_deep_family_does_not_raise():
    family = deep_family()
    pattern = first_violation_pattern(family)
    x = RandomSource(8).bits(1200)
    assert_search_agrees(family, x, range(0, 1201, 50), pattern)
    # only strings past the flattened nesting depth match in a long zero run
    runs = "1" * 50 + "0" * 1100 + "1" + "0" * 49
    assert_search_agrees(family, runs, [0, 40, 100, 149, 150, 151, 600, 1150, 1151], pattern)
    assert compiled_first(pattern, runs.encode()) == (150, 1001)


def test_avoid_on_the_deep_family_exits_without_a_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(deep_family().to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(ecseq.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "ecseq.cli", "avoid", "--family", str(path),
         "--length", "1200", "--seed", "2", "--budget", "300",
         "--out", str(tmp_path / "deep.bits")], env=env, capture_output=True, text=True)
    assert done.returncode in (0, 3), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("sets, pattern", [
    # 01 and 011 extend 0, so the cut across levels leaves 0 alone
    ({1: ["0"], 2: ["01"], 3: ["011"]}, b"0"),
    ({1: ["0"], 2: ["01", "10"], 3: ["011", "110", "111"]}, b"(?:0|1(?:0|1(?:0|1)))"),
    ({3: ["000", "011", "101", "110"]}, b"(?:0(?:00|11)|1(?:01|10))"),
    ({2: ["00", "10", "11"]}, b"(?:00|1(?:0|1))"),
    ({5: ["01101"]}, b"01101"),
    ({}, b"(?!)"),
])
def test_pattern_text_of_hand_families(sets, pattern):
    assert first_violation_pattern(explicit_family(1, sets)).pattern == pattern


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_pattern_text_of_the_deep_family():
    # past MAX_NESTING alternations the rest is one flat alternation per node
    pattern = first_violation_pattern(deep_family()).pattern
    assert len(pattern) == 439904
    assert sha256(pattern) == "598e9e59cf9d3c1c690ea0c9342602cd95caeb845c2a158d659b4f3e65a7379f"


@pytest.mark.parametrize("seed, digest", enumerate([
    "e6e9ec08b40003d10ebdd0b1577eeace9910920d2f6fed868786e04ba54790b9",
    "aa6e9fe76d01183b4868f2284f489b7c794b635334e82a8179e31be53f334807",
    "b1028d5a41505717f09159886ed06a54d0df85455b29cccab10ec151fda66dc8",
    "e617ea989631d2dc02d50b49de209a9fcd4b774ac588b716592bb6360e5f1da3",
]))
def test_pattern_text_of_random_levels(seed, digest):
    family = random_level_family(Fraction(3, 10), range(8, 13), RandomSource(seed))
    assert sha256(first_violation_pattern(family).pattern) == digest


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
    assert scan_violations("0101010101", TRIPLES) == []
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
    # the family is the guard: no instance can be given an oversized level
    from ecseq.core import CertificateError
    with pytest.raises(CertificateError, match=r"level 2 holds 3 strings, above 2\*\*\(1\)"):
        LevelFamily(Fraction(1, 2), {2: frozenset({0, 1, 2})})


def test_instance_rejects_levels_beyond_length():
    with pytest.raises(ValueError):
        AvoidanceInstance(TRIPLES, 2, 10, RandomSource(0))


def test_build_is_deterministic():
    first = build_avoiding_string(AvoidanceInstance(TRIPLES, 64, 10 ** 4, RandomSource(9)))
    second = build_avoiding_string(AvoidanceInstance(TRIPLES, 64, 10 ** 4, RandomSource(9)))
    assert first.string == second.string
    assert first.resamples == second.resamples


# ---------------------------------------------------------------- redraws against the oracle

def built(build, family, length, budget, seed):
    """A build's result, then the next 64 bits of its source after it."""
    rs = RandomSource(seed)
    result = build(AvoidanceInstance(family, length, budget, rs))
    return result, rs.bits(64)


@pytest.mark.parametrize("seed", [0, 17, 29])
def test_build_agrees_with_the_per_redraw_oracle_on_benchmark_families(seed):
    # the benchmark's family and length; the smaller budgets run out (exit 3)
    family = random_level_family(Fraction(3, 10), [8, 9, 10, 11, 12], RandomSource(seed))
    outcomes = []
    for budget in (10 ** 6, 1500, 40, 1):
        got = built(build_avoiding_string, family, 1 << 15, budget, seed)
        assert got == built(oracle_build_avoiding_string, family, 1 << 15, budget, seed), budget
        outcomes.append(got[0].succeeded)
    assert outcomes == [True, False, False, False]


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_build_agrees_with_the_per_redraw_oracle_on_redraws_of_n_bits(n, monkeypatch):
    # a lone 1 is forbidden, so zeros pile up until n of them are redrawn at once
    family = explicit_family(Fraction(1, 2), {1: ["1"], n: ["0" * n]})
    lengths = []
    bits = RandomSource.bits
    monkeypatch.setattr(RandomSource, "bits", lambda rs, count: lengths.append(count)
                        or bits(rs, count))
    for seed, length, budget in ((n, 3 * n, 4000), (n + 1, n, 300)):
        expected = built(oracle_build_avoiding_string, family, length, budget, seed)
        assert n in lengths[1:]  # the oracle draws each redraw through bits
        assert built(build_avoiding_string, family, length, budget, seed) == expected
        assert not expected[0].succeeded and expected[0].resamples == budget
        lengths.clear()


def test_avoid_exits_3_with_the_oracle_s_counts(tmp_path, capsys):
    family = random_level_family(Fraction(3, 10), [8, 9, 10, 11, 12], RandomSource(0))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family.to_json()))
    argv = ["avoid", "--family", str(path), "--length", str(1 << 15), "--budget", "1500",
            "--seed", "0", "--out", str(tmp_path / "avoid.bits")]
    assert cli.main(argv) == cli.EXIT_BUDGET
    expected, _ = built(oracle_build_avoiding_string, family, 1 << 15, 1500, 0)
    assert capsys.readouterr().out == (f"avoid: budget exhausted after {expected.resamples} "
                                       f"resamples, {expected.residual_violations} residual "
                                       f"violations\n")


# ---------------------------------------------------------------- brute force

def test_brute_force_examples():
    assert brute_force_avoider(EMPTY, 3) == "000"
    got = brute_force_avoider(explicit_family(1, {2: ["00"]}), 4)
    assert got == "0101"
    assert brute_force_avoider(UNSAT, 5) is None
    with pytest.raises(ValueError):
        brute_force_avoider(EMPTY, 30)


def test_brute_force_agrees_with_plain_enumeration():
    rs = RandomSource(23)
    for trial in range(30):
        sets = {2: [], 3: []}
        for n in (2, 3):
            members = {rs.below(1 << n) for _ in range(rs.below(4))}
            sets[n] = [format(v, f"0{n}b") for v in members]
        family = explicit_family(1, sets)
        length = 4 + rs.below(6)
        expected = None
        for v in range(1 << length):
            x = format(v, f"0{length}b")
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
