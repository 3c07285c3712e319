import hashlib
import random
from fractions import Fraction

import pytest

from ecseq.core import CertificateError, RandomSource
from ecseq.spreader import (Allocation, CoverageError, InconsistentWindowError, _Intervals,
                            boost_tail, boosted_count, choose_start_level, coverage_faults,
                            disagreements, geometric, inverse_triangular, plan_allocation, recover_prefix,
                            spread_random, start_level_certificate, weight_preset,
                            zero_series)

from oracles import (OracleIntervals, flip, level_counts, level_records, oracle_disagreements,
                     oracle_fill_source_map, oracle_plan, oracle_source_map, oracle_spread_random,
                     oracle_window_tally, spread)


def toy(counts, max_level=64):
    """An allocation with explicit per-level counts and no certificate."""
    return Allocation(min(counts), max_level, lambda m: counts.get(m, 0))


def toy_alloc():
    # level 1 gets {0,2,4,...}; level 2 gets {1,5,9,...} and {3,7,11,...}
    return toy({1: 1, 2: 2})


# ---------------------------------------------------------------- start level

def _boost_partial(start, stop):
    return sum(Fraction(m * m + 1, 1 << m) for m in range(start, stop + 1))


def test_boost_tail_matches_partial_sum_oracle():
    for start in range(0, 30):
        assert boost_tail(start) == _boost_partial(start, 200) + boost_tail(201)


def test_choose_start_level_zero_series():
    # oracle: scan with partial sums to m = 200 plus the exact remainder
    level = 0
    while _boost_partial(level, 200) + boost_tail(201) > 1:
        level += 1
    assert level == 8
    assert choose_start_level(zero_series()) == 8


def test_choose_start_level_tiny_geometric_matches_zero():
    tiny = geometric(Fraction(1, 1024))
    assert choose_start_level(tiny) == choose_start_level(zero_series()) == 8
    assert start_level_certificate(tiny, 8) <= 1 < start_level_certificate(tiny, 7)


def test_inverse_triangular_certificate_reverifies():
    weights = inverse_triangular()
    m0 = choose_start_level(weights)
    # independent re-evaluation: telescoping tail is exact, boost via partials
    tail = sum(weights.term(m) for m in range(m0, 201)) + Fraction(1, 201)
    assert tail == weights.tail_bound(m0)
    assert tail + _boost_partial(m0, 200) + boost_tail(201) <= 1
    assert start_level_certificate(weights, m0 - 1) > 1


def test_weight_presets():
    assert weight_preset("inverse-triangular").term(3) == Fraction(1, 12)
    assert weight_preset("geometric:1/2").tail_bound(3) == Fraction(1, 4)
    assert weight_preset("zero").term(5) == 0
    with pytest.raises(ValueError):
        weight_preset("nope")
    # tail bound really dominates finite stretches of the series
    for weights in (inverse_triangular(), geometric(Fraction(2, 3)), zero_series()):
        for start in (1, 4, 9, 20):
            span = sum(weights.term(m) for m in range(start, start + 65))
            assert weights.tail_bound(start) >= span
        # and vanishes along a fixed ladder
        ladder = [weights.tail_bound(m) for m in (8, 16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < Fraction(1, 100)


def test_boosted_count_values():
    weights = inverse_triangular()
    assert boosted_count(weights, 8) == 68   # ceil(256/72 + 64)
    assert boosted_count(weights, 9) == 87
    assert boosted_count(zero_series(), 9) == 81


# ---------------------------------------------------------------- toy allocations

def test_source_index_hand_values():
    alloc = toy_alloc()
    assert [alloc.source_map(i, 1)[0] for i in range(8)] == [0, 1, 0, 2, 0, 1, 0, 2]
    assert alloc.source_map(3, 1)[0] == 2
    assert alloc.source_map(5, 1)[0] == 1


def test_full_occupation_is_parity():
    alloc = toy({1: 2})
    assert [alloc.source_map(i, 1)[0] for i in range(10)] == [i % 2 for i in range(10)]
    assert alloc.source_map(4, 1)[0] == 0


def test_same_progression_same_source_bit():
    alloc = toy_alloc()
    alloc.ensure_horizon(64)
    for level, _, _, pairs in level_records(alloc):
        step = 1 << level
        for lo, hi in pairs:
            for c in range(lo, hi):
                assert alloc.source_map(c, 1)[0] == alloc.source_map(c + step, 1)[0]


def test_first_term_below_difference():
    alloc = plan_allocation(inverse_triangular())
    alloc.ensure_horizon(1 << 12)
    for level, _, _, pairs in level_records(alloc):
        for lo, hi in pairs:
            assert 0 <= lo < hi <= (1 << level)


def test_explicit_counts_infeasible():
    alloc = toy({1: 3})
    with pytest.raises(CertificateError):
        alloc.ensure_level(1)


def test_start_level_certificate_guard():
    with pytest.raises(CertificateError):
        plan_allocation(inverse_triangular(), start_level=4)


# ---------------------------------------------------------------- spread

def test_spread_hand_values():
    alloc = toy_alloc()
    assert spread(alloc, "101", 8) == "10111011"
    assert spread(toy({1: 2}), "10", 6) == "101010"
    assert spread(alloc, "000", 12) == "0" * 12


def test_spread_source_too_short():
    with pytest.raises(ValueError):
        spread(toy_alloc(), "10", 8)


def test_spread_random_round_trip_against_spread():
    for weights in (inverse_triangular(), zero_series(), geometric(Fraction(1, 3))):
        # 8193 crosses the first cap of 2**13
        for length in (0, 1, 255, 4097, 8193, 20011):
            omega, tau = spread_random(plan_allocation(weights), RandomSource(5), length)
            oracle = plan_allocation(weights)
            assert spread(oracle, tau, length) == omega, (weights.name, length)
            mapping = oracle_source_map(oracle, 0, length)
            assert len(tau) == (max(mapping) + 1 if mapping else 0), (weights.name, length)


# ---------------------------------------------------------------- list kernels against oracles

def parts(*intervals):
    return [(x.los, x.his, x.cum) for x in intervals]


def test_take_prefix_agrees_with_the_pairwise_oracle_at_every_k():
    rng = random.Random(28)
    for trial in range(80):
        # edges drawn with repeats: some intervals are empty, some touch
        edges = sorted(rng.choices(range(40), k=2 * rng.randint(0, 9)))
        pairs = list(zip(edges[::2], edges[1::2]))
        if trial % 4 == 0:
            pairs.insert(rng.randint(0, len(pairs)), (30, 20))  # backwards, dropped too
        intervals, oracle = _Intervals(pairs), OracleIntervals(pairs)
        assert parts(intervals) == parts(oracle), pairs
        for k in range(oracle.total + 2):
            assert parts(*intervals.take_prefix(k)) == parts(*oracle.take_prefix(k)), (pairs, k)


@pytest.mark.parametrize("preset", ["inverse-triangular", "zero", "geometric:1/3",
                                    "geometric:3/4"])
def test_doubling_fill_and_list_build_agree_with_the_per_item_oracles(preset):
    weights = weight_preset(preset)
    certified = choose_start_level(weights)
    for start_level in (certified, certified + 1):
        for seed, length in enumerate([1, 255, (1 << 13) - 1, (1 << 13) + 1, 100003, 1 << 17]):
            alloc = plan_allocation(weights, start_level)
            oracle = oracle_plan(weights, start_level)
            assert spread_random(alloc, RandomSource(seed), length) \
                == oracle_spread_random(oracle, RandomSource(seed), length), (start_level, length)
            assert alloc.export() == oracle.export(), (start_level, length)
        # ranges below the cap of 2**17, then one past it, which rebuilds every
        # level at a cap of 2**18
        for start, length in [(0, 300), (7, 1000), (8190, 5), (100000, 31072), ((1 << 17) - 3, 9)]:
            assert alloc.source_map(start, length) == oracle_fill_source_map(oracle, start, length)
            assert alloc.export() == oracle.export(), (start_level, start, length)
        assert alloc.export()["cap"] == 1 << 18


def test_a_long_spread_keeps_its_bits():
    # spread --length 4194304 --seed 1 as the per-repetition fill wrote it:
    # a length the residue-loop oracles cannot reach in a test
    omega, tau = spread_random(plan_allocation(inverse_triangular()), RandomSource(1), 1 << 22)
    assert len(tau) == 1140064
    assert hashlib.sha256(omega.encode()).hexdigest() \
        == "cfed23a05258381eac66be0bfe0e071ba8798249f0912d51bd7576c29ccf1492"


# ---------------------------------------------------------------- recovery

def test_recover_hand_value():
    alloc = toy_alloc()
    omega = spread(alloc, "101", 8)
    assert recover_prefix(alloc, omega[1:5], 1, 2) == "101"


def test_recover_round_trip_random_windows():
    alloc = plan_allocation(inverse_triangular())
    rs = RandomSource(21)
    length = 1 << 13
    omega, tau = spread_random(alloc, rs, length)
    for _ in range(100):
        m = alloc.start_level + rs.below(13 - alloc.start_level)
        size = 1 << m
        k = rs.below(length - size + 1)
        prefix = recover_prefix(alloc, omega[k:k + size], k % size, m)
        need = alloc.source_count_through(m)
        assert prefix == tau[:need]


def test_recover_detects_tamper():
    alloc = toy_alloc()
    omega = spread(alloc, "101", 8)
    win = flip(omega[:4], [0])  # position 0 carries source bit 0, which repeats at offset 2
    with pytest.raises(InconsistentWindowError):
        recover_prefix(alloc, win, 0, 2)


def test_recover_validates_arguments():
    alloc = toy_alloc()
    omega = spread(alloc, "101", 8)
    with pytest.raises(ValueError):
        recover_prefix(alloc, omega[:4], 0, 3)  # wrong window length
    with pytest.raises(ValueError):
        recover_prefix(alloc, omega[:4], 9, 2)


# ---------------------------------------------------------------- structural invariants

def test_partition_over_2_16():
    alloc = plan_allocation(inverse_triangular())
    horizon = 1 << 16
    alloc.ensure_horizon(horizon)
    # independent occupancy oracle straight from the exported progressions
    occupancy = bytearray(horizon)
    for level, _, _, pairs in level_records(Allocation.from_export(alloc.export(), horizon)):
        step = 1 << level
        for lo, hi in pairs:
            for c in range(lo, min(hi, horizon)):
                for p in range(c, horizon, step):
                    occupancy[p] += 1
    assert all(v == 1 for v in occupancy)
    mapping = alloc.source_map(0, horizon)
    assert len(mapping) == horizon and min(mapping) >= 0


def test_window_coverage_exhaustive_small_levels():
    # full-budget toy: 1/2 + 1/4 + 2/8 = 1, so every position is covered
    alloc = toy({1: 1, 2: 1, 3: 2})
    for m in (1, 2, 3):
        size = 1 << m
        top = alloc.source_count_through(m)
        base = top - level_counts(alloc)[m]
        for k in range(1 << 12):
            seen = {}
            for j in alloc.source_map(k, size):
                seen[j] = seen.get(j, 0) + 1
            assert all(seen.get(j, 0) >= 1 for j in range(top))
            assert all(seen.get(j, 0) == 1 for j in range(base, top))


def test_budget_within_unit_for_presets():
    for weights in (inverse_triangular(), geometric(Fraction(1, 3)), zero_series()):
        alloc = plan_allocation(weights)
        alloc.ensure_level(alloc.start_level + 20)
        assert alloc.budget_used() <= 1


def test_least_uncovered_progress():
    alloc = plan_allocation(inverse_triangular())
    # build one level at a time, as ensure_horizon(1 << 12) would, reading the frontier
    frontier = []
    while alloc.least_uncovered() is not None and alloc.least_uncovered() < 1 << 12:
        alloc.ensure_level(alloc.start_level + alloc.levels_built())
        frontier.append(alloc.least_uncovered())
    numeric = [f for f in frontier if isinstance(f, int)]
    assert numeric == sorted(numeric)
    assert all(a < b for a, b in zip(numeric, numeric[1:]))


def test_coverage_error_when_levels_exhausted():
    alloc = toy({1: 1}, max_level=1)
    with pytest.raises(CoverageError):
        alloc.source_map(1, 1)[0]


# ---------------------------------------------------------------- progression walk against oracles

def oracle_recover_prefix(alloc, win, offset_mod, level):
    """The copy loop: every source bit at levels up to `level` is read at its
    first window offset, and each later copy is compared with that one."""
    size = 1 << level
    alloc.ensure_cap(size)
    alloc.ensure_level(level)
    out = []
    for lv_level, _, base, pairs in level_records(alloc):
        if lv_level > level:
            break
        step = 1 << lv_level
        for seen, c in enumerate(c for lo, hi in pairs for c in range(lo, hi)):
            t0 = (c - offset_mod) % step
            for t in range(t0 + step, size, step):
                if win[t] != win[t0]:
                    raise InconsistentWindowError(
                        f"source bit {base + seen} reads differently at window "
                        f"offsets {t0} and {t}")
            out.append(win[t0])
    return "".join(out)


@pytest.mark.parametrize("preset", ["inverse-triangular", "zero", "geometric:1/3"])
def test_source_map_agrees_with_residue_loop_oracle(preset):
    weights = weight_preset(preset)
    rs = RandomSource(17)
    # the cap starts at 2**13: some ranges cross it, most starts are unaligned
    ranges = [(0, 1 << 14), (8000, 400), (8191, 2), (8192, 1), (3, 0), (5, 1)]
    # ranges that end at 0, 1, either side of 2**start_level and of the initial cap
    first = 1 << choose_start_level(weights)
    ranges += [(0, 0), (0, 1), (1, first - 2), (first - 3, 4), (5, 8186), (8150, 43)]
    ranges += [(rs.below(1 << 15), rs.below(1 << 12)) for _ in range(12)]
    oracle = plan_allocation(weights)
    shared = plan_allocation(weights)
    for start, length in ranges:
        expected = oracle_source_map(oracle, start, length)
        assert plan_allocation(weights).source_map(start, length) == expected, (start, length)
        assert shared.source_map(start, length) == expected, (start, length)
    for p in (0, 1, 8191, 8192, 20011):
        assert shared.source_map(p, 1)[0] == oracle_source_map(oracle, p, 1)[0]


def multi_flips(rng, size, rounds):
    """Random two- and three-bit flips of a window: in each round, one of
    adjacent offsets, which a run carries as neighbouring source indices, and
    one anywhere in the window."""
    for count in (c for c in (2, 3) if c <= size):
        for _ in range(rounds):
            t = rng.randrange(size - count + 1)
            yield list(range(t, t + count))
            yield rng.sample(range(size), count)


def recovery_outcomes(alloc, win, flips, offset_mod, level):
    bits = flip(win, flips)
    outcomes = []
    for recover in (recover_prefix, oracle_recover_prefix):
        try:
            outcomes.append(recover(alloc, bits, offset_mod, level))
        except InconsistentWindowError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("counts", [{1: 1, 2: 1, 3: 2}, {2: 3, 3: 1, 4: 2}])
def test_recover_prefix_agrees_with_copy_loop_oracle(counts):
    alloc = toy(counts)
    top = max(counts)
    length = 4 << top
    omega = spread(alloc, RandomSource(9).bits(sum(counts.values())), length)
    rng = random.Random(9)
    for m in range(alloc.start_level, top + 1):
        size = 1 << m
        for k in range(length - size + 1):
            win = omega[k:k + size]
            # the clean window, each single-bit tamper of it, then multi-bit ones
            singles = [[t] for t in range(size)]
            for flips in [[]] + singles + list(multi_flips(rng, size, 3)):
                got, expected = recovery_outcomes(alloc, win, flips, k % size, m)
                assert got == expected, (m, k, flips)


def test_recover_prefix_multi_flips_agree_with_oracle_on_wide_runs():
    # level 8 assigns 68 consecutive first terms, so most windows hold runs
    # many bits wide, and adjacent flips land inside one of them
    alloc = plan_allocation(inverse_triangular())
    length = 1 << 11
    omega, _ = spread_random(alloc, RandomSource(13), length)
    rng = random.Random(13)
    errors = 0
    for m in range(alloc.start_level, 11):
        size = 1 << m
        for k in rng.sample(range(length - size + 1), 6):
            win = omega[k:k + size]
            for flips in multi_flips(rng, size, 8):
                got, expected = recovery_outcomes(alloc, win, flips, k % size, m)
                assert got == expected, (m, k, flips)
                errors += isinstance(got, str)
    assert errors > 0


@pytest.mark.parametrize("preset", ["inverse-triangular", "geometric:1/3"])
def test_disagreements_agree_with_per_position_oracle(preset):
    weights = weight_preset(preset)
    total = 6001
    omega, _ = spread_random(plan_allocation(weights), RandomSource(4), total)
    mapping = oracle_source_map(plan_allocation(weights), 0, total)
    rng = random.Random(4)
    for length in (6000, 5000, 4100, 300):
        # the last, clipped repetition of a run that goes on past the range
        # end: positions from which source indices climb by one up to `length`
        clipped = [p for p in range(max(length - 64, 0), length)
                   if all(mapping[q + 1] == mapping[q] + 1 for q in range(p, length))]
        assert clipped, length
        alloc = plan_allocation(weights)
        assert disagreements(alloc, omega, length) == []
        for trial in range(24):
            flips = set(rng.sample(range(total), 1 + trial % 3))
            if trial % 2:
                flips |= {rng.choice(clipped), length}
            if trial % 3 == 0:
                t = rng.randrange(length - 2)
                flips |= {t, t + 1, t + 2}
            tampered = flip(omega, flips)
            assert disagreements(alloc, tampered, length) \
                == oracle_disagreements(alloc, tampered, length), (length, sorted(flips))
    with pytest.raises(ValueError):
        disagreements(plan_allocation(weights), omega, total + 1)
    with pytest.raises(ValueError, match="bad range"):
        disagreements(plan_allocation(weights), omega, -5)
    # a single position, and a whole power-of-two text, clean and tampered
    whole, _ = spread_random(plan_allocation(weights), RandomSource(5), 1 << 14)
    for length in (1, 1 << 14):
        alloc = plan_allocation(weights)
        assert disagreements(alloc, whole, length) == []
        failing = 0
        for trial in range(6):
            tampered = flip(whole, {rng.randrange(length) for _ in range(1 + trial % 2)})
            found = disagreements(alloc, tampered, length)
            assert found == oracle_disagreements(alloc, tampered, length), length
            failing += found != []
        assert (failing > 0) == (length > 1), length


# ---------------------------------------------------------------- coverage proof against the window tally

COVERAGE_PRESETS = ["inverse-triangular", "geometric:1/3", "zero"]


def built(preset, horizon):
    alloc = plan_allocation(weight_preset(preset))
    alloc.ensure_horizon(horizon)
    return alloc


@pytest.mark.parametrize("preset", COVERAGE_PRESETS)
@pytest.mark.parametrize("usable", [1000, 2048])
def test_coverage_faults_and_window_tally_pass_clean_allocations(preset, usable):
    alloc = built(preset, usable)
    top = usable.bit_length() - 1
    assert coverage_faults(alloc, usable, top) == []
    assert oracle_window_tally(alloc, usable, top) == []


def test_coverage_faults_pass_a_full_budget_allocation():
    # 1/2 + 1/4 + 2/8 = 1: the levels cover every natural number
    alloc = toy({1: 1, 2: 1, 3: 2})
    assert coverage_faults(alloc, 4099, 3) == []
    assert oracle_window_tally(alloc, 300, 3) == []


def _record(alloc, level):
    return alloc._levels[level - alloc.start_level]


def _shift_an_interval(alloc, top):
    lv = _record(alloc, alloc.start_level + 1)
    (lo, hi), *rest = lv.assigned.pairs()
    lv.assigned = _Intervals([(lo + 1, hi + 1)] + rest)


def _push_a_first_term_past_the_step(alloc, top):
    lv = _record(alloc, top)
    *rest, (lo, hi) = lv.assigned.pairs()
    lv.assigned = _Intervals(rest + [(lo, hi - 1), (1 << top, (1 << top) + 1)])


def _miscount(alloc, top):
    _record(alloc, top).count += 1


def _leave_a_hole(alloc, top):
    # the least first term of the last level built, dropped with its count:
    # every level up to top keeps its first terms, counts and source indices
    lv = alloc._levels[-1]
    (lo, hi), *rest = lv.assigned.pairs()
    lv.assigned = _Intervals([(lo + 1, hi)] + rest)
    lv.count -= 1


def _cover_a_position_twice(alloc, top):
    # first term 0, which the start level already holds, added to the last
    # level built with its count
    lv = alloc._levels[-1]
    lv.assigned = _Intervals([(0, 1)] + lv.assigned.pairs())
    lv.count += 1


# tamper -> whether the window tally notices it too.  The tally reads an
# uncovered position as no index and a position covered twice as the lower
# level's index, and a count one too high can borrow the next level's first
# index, which does occur in the window
TAMPERS = {_shift_an_interval: True, _push_a_first_term_past_the_step: True,
           _miscount: False, _leave_a_hole: False, _cover_a_position_twice: False}


@pytest.mark.parametrize("preset", COVERAGE_PRESETS)
@pytest.mark.parametrize("tamper", list(TAMPERS), ids=lambda f: f.__name__.strip("_"))
def test_coverage_faults_flag_every_tampered_allocation(preset, tamper):
    usable = 1024
    top = usable.bit_length() - 1
    alloc = built(preset, usable)
    assert alloc.levels_built() > top - alloc.start_level + 1  # the hole lies above top
    tamper(alloc, top)
    assert coverage_faults(alloc, usable, top)
    assert bool(oracle_window_tally(alloc, usable, top)) == TAMPERS[tamper]


def test_coverage_faults_flag_whatever_the_window_tally_flags():
    rng = random.Random(11)
    usable, top = 1024, 10
    flagged = 0
    for trial in range(12):
        alloc = built(COVERAGE_PRESETS[trial % 3], usable)
        lv = rng.choice(alloc._levels[:top - alloc.start_level + 2])
        pairs = lv.assigned.pairs()
        i, delta = rng.randrange(len(pairs)), rng.choice((-1, 1))
        if trial % 4 == 0:
            lv.count += delta
        elif trial % 4 == 1:
            lv.source_base += delta
        else:
            lo, hi = pairs[i]
            pairs[i] = (lo + delta, hi + delta) if trial % 4 == 2 else (lo, hi + delta)
            lv.assigned = _Intervals(pairs)
        tally = oracle_window_tally(alloc, usable, top)
        faults = coverage_faults(alloc, usable, top)
        assert faults or not tally, (trial, tally[:1])
        flagged += bool(tally)
    assert flagged


def test_coverage_faults_name_the_fact_that_fails():
    usable, top = 1024, 10
    alloc = built("inverse-triangular", usable)
    _push_a_first_term_past_the_step(alloc, top)
    assert {"m": top, "first_terms_outside_step": [[1024, 1025]]} in coverage_faults(
        alloc, usable, top)
    alloc = built("inverse-triangular", usable)
    count = _record(alloc, top).count
    _miscount(alloc, top)
    faults = coverage_faults(alloc, usable, top)
    assert {"m": top, "count": count + 1, "first_terms": count} in faults
    assert any(f.get("source_base") is not None for f in faults)
    alloc = built("inverse-triangular", usable)
    hole = alloc._levels[-1].assigned.first()
    _leave_a_hole(alloc, top)
    assert coverage_faults(alloc, usable, top) == [
        {"positions": usable, "uncovered": 1, "first_uncovered": hole, "covered_again": 0}]
    alloc = built("inverse-triangular", usable)
    _cover_a_position_twice(alloc, top)
    assert coverage_faults(alloc, usable, top) == [
        {"positions": usable, "uncovered": 0, "first_uncovered": None, "covered_again": 1}]


# ---------------------------------------------------------------- export

def test_export_round_trip_and_tamper():
    alloc = plan_allocation(inverse_triangular())
    alloc.ensure_horizon(1 << 12)
    doc = alloc.export()
    clone = Allocation.from_export(doc, 1 << 12)
    assert clone.export() == doc
    doc_bad = alloc.export()
    doc_bad["levels"][2]["assigned"][0] = [0, 1]
    with pytest.raises(ValueError, match="levels.2.assigned.0.0 differs"):
        Allocation.from_export(doc_bad, 1 << 12)


@pytest.mark.parametrize("start_level, cap", [(8, 5000), (8, 4096), (8, 100000), (8, 0),
                                              (8, -8192), (14, 8192), (14, 3 << 13)])
def test_export_with_a_cap_no_spread_writes_is_refused_before_any_level_is_built(
        monkeypatch, start_level, cap):
    alloc = plan_allocation(inverse_triangular(), start_level=start_level)
    alloc.ensure_horizon(1 << 12)
    doc = {**alloc.export(), "cap": cap}
    monkeypatch.setattr(Allocation, "ensure_level", None)  # building a level would raise
    with pytest.raises(ValueError, match=f"^allocation cap {cap} is not a power of two of at "
                                         f"least 2\\*\\*{max(13, start_level)}$"):
        Allocation.from_export(doc, 1 << 17)


def test_export_with_any_power_of_two_cap_a_spread_may_write_reads_back():
    alloc = plan_allocation(inverse_triangular())
    alloc.ensure_horizon(1 << 12)
    for cap in (1 << 13, 1 << 14, 1 << 19):
        assert Allocation.from_export({**alloc.export(), "cap": cap}, 1 << 17).export()["cap"] \
            == cap
