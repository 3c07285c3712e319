import itertools
import math
from fractions import Fraction

import pytest

from ecseq.core import CertificateError, ExactProb, FiniteDistribution, RandomSource, pow2_floor
from ecseq.forbidden import (AveragedBoundError, ImplicitLevel, LevelFamily,
                             count_simple, derandomize_family, family_avoid_probability, interval_schedule,
                             is_simple, miss_probability_random_set, sample_uniform_set,
                             simple_counts, two_level_family, _averaged_bound)

from oracles import (averaged_bound_per_string, count_limited_block_strings,
                     distinct_substrings, family_avoid_per_string, family_avoids,
                     hit_probability, membership, numeral_windows, oracle_simple_top,
                     point_mass, support_weights, surjections, text_slice_simple)


# ---------------------------------------------------------------- substrings

def test_distinct_substrings_examples():
    assert distinct_substrings("0000000", 2) == 1
    assert distinct_substrings("0110", 2) == 3
    with pytest.raises(ValueError):
        distinct_substrings("01", 3)


def test_distinct_substrings_de_bruijn():
    # order-3 binary de Bruijn cycle, extended so every cyclic window appears
    seq = "0001011100"
    naive = {seq[k:k + 3] for k in range(len(seq) - 2)}
    assert len(naive) == 8
    assert distinct_substrings(seq, 3) == 8


# ---------------------------------------------------------------- sampling

def test_sample_full_cube_any_seed():
    for seed in (0, 1, 99):
        got = sample_uniform_set(3, 8, RandomSource(seed))
        assert got == frozenset(range(8))


def test_sample_empty_and_too_big():
    assert sample_uniform_set(4, 0, RandomSource(0)) == frozenset()
    with pytest.raises(ValueError, match="cannot sample 5 of 4"):
        sample_uniform_set(2, 5, RandomSource(0))


def test_sample_singleton_frequencies_chi_square():
    trials = 10 ** 5
    counts = [0, 0, 0, 0]
    for seed in range(trials):
        (only,) = sample_uniform_set(2, 1, RandomSource(seed))
        counts[only] += 1
    expected = trials / 4
    sigma = (trials * 0.25 * 0.75) ** 0.5
    for c in counts:
        assert abs(c - expected) <= 3 * sigma
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 16.27  # 3 dof at the 0.1% point


def test_sample_is_uniform_over_subsets():
    # every 2-subset of the 2-cube should appear with frequency 1/6
    trials = 30000
    seen = {}
    for seed in range(trials):
        key = tuple(sorted(sample_uniform_set(2, 2, RandomSource(seed))))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 6
    expected = trials / 6
    sigma = (trials * (1 / 6) * (5 / 6)) ** 0.5
    for c in seen.values():
        assert abs(c - expected) <= 4 * sigma


# ---------------------------------------------------------------- miss probability

def test_miss_probability_edges():
    assert miss_probability_random_set(0, 3, 4) == 1
    assert miss_probability_random_set(8, 3, 4) == 0
    assert miss_probability_random_set(1, 2, 2) == Fraction(1, 2)


def test_miss_probability_subset_enumeration_oracle():
    # all 6 two-element subsets of the 2-cube against a fixed single string
    target = {0b01}
    misses = sum(1 for pair in itertools.combinations(range(4), 2)
                 if not target & set(pair))
    assert Fraction(misses, 6) == Fraction(1, 2)
    assert miss_probability_random_set(1, 2, 2) == Fraction(misses, 6)
    # and for two fixed strings
    target = {0b01, 0b10}
    misses = sum(1 for pair in itertools.combinations(range(4), 2)
                 if not target & set(pair))
    assert miss_probability_random_set(2, 2, 2) == Fraction(misses, 6)


def test_miss_probability_monotone_grid():
    for n in (2, 3, 4):
        cube = 1 << n
        for s in range(cube + 1):
            values = [miss_probability_random_set(d, n, s) for d in range(cube + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for d in range(cube + 1):
            values = [miss_probability_random_set(d, n, s) for s in range(cube + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- simple strings

def test_is_simple_examples():
    assert is_simple(0b010101, 6, 2, 2)
    assert not is_simple(0b000110, 6, 2, 1)
    assert sum(1 for v in range(64) if is_simple(v, 6, 2, 2)) == 40
    with pytest.raises(ValueError):
        is_simple(0b00011, 5, 2, 1)
    with pytest.raises(ValueError):
        count_simple(5, 2, 1)


def test_is_simple_and_count_simple_match_the_text_slice_oracle():
    for length in range(1, 13):
        texts = [format(v, f"0{length}b") for v in range(1 << length)]
        for block_length in (b for b in range(1, length + 1) if length % b == 0):
            for threshold in range(1, length // block_length + 1):
                count = 0
                for v, text in enumerate(texts):
                    simple = text_slice_simple(text, block_length, threshold)
                    assert is_simple(v, length, block_length, threshold) == simple
                    count += simple
                assert count_simple(length, block_length, threshold) == count


def test_count_simple_examples():
    assert count_simple(6, 2, 2) == 40
    assert count_simple(4, 2, 1) == 4
    for N, n in ((6, 2), (8, 2), (12, 4)):
        assert count_simple(N, n, 1 << n) == 1 << N


def test_count_simple_brute_force_exhaustive():
    for n in (2, 4):
        for blocks in range(1, 16 // n + 1):
            N = n * blocks
            histogram = {}
            for v in range(1 << N):
                mask = (1 << n) - 1
                distinct = len({(v >> (i * n)) & mask for i in range(blocks)})
                histogram[distinct] = histogram.get(distinct, 0) + 1
            for t in range(1, (1 << n) + 1):
                brute = sum(c for d, c in histogram.items() if d <= t)
                assert count_simple(N, n, t) == brute


def test_surjections_identity():
    # image-size split of all functions
    for p in range(1, 8):
        for k in range(1, 8):
            assert sum(math.comb(k, j) * surjections(p, j) for j in range(1, k + 1)) == k ** p


def test_count_limited_pool_generalization():
    assert count_limited_block_strings(1 << 2, 3, 2) == count_simple(6, 2, 2)


def test_simple_counts_agree_with_inclusion_exclusion():
    for block_length in range(1, 7):
        pool = 1 << block_length
        for threshold in range(pool + 3):
            counts = itertools.islice(simple_counts(block_length, threshold), 12)
            assert list(counts) == [count_limited_block_strings(pool, blocks, threshold)
                                    for blocks in range(1, 13)], (block_length, threshold)


def test_count_simple_rejects_a_length_below_one():
    for total_length in (0, -2):
        with pytest.raises(ValueError, match="not positive"):
            count_simple(total_length, 2, 1)


# ---------------------------------------------------------------- two-level family

ALPHA = Fraction(3, 5)


def toy_two_level(seed=7):
    return two_level_family(ALPHA, ExactProb(1, 2), 2, RandomSource(seed))


def test_two_level_parameters_reverify():
    family, cert = toy_two_level()
    n, N = cert.random_length, cert.top_length
    assert n == 2 and N % n == 0
    # epsilon inequality, recomputed independently
    assert (1 - Fraction(1, 1 << ((n + 1) // 2))) ** cert.sample_size < Fraction(1, 2)
    # minimality of n and N
    assert N == next(n * p for p in itertools.count(1)
                     if count_simple(n * p, n, cert.threshold) <= pow2_floor(ALPHA * n * p))
    assert cert.top_cardinality == count_simple(N, n, cert.threshold)
    assert cert.top_cardinality <= cert.top_size_bound == pow2_floor(ALPHA * N)
    assert len(family.levels[n]) == cert.sample_size == pow2_floor(ALPHA * n)


def test_two_level_top_matches_the_per_multiple_recount():
    # the carried count finds the top length and cardinality that recounting
    # every multiple of n by inclusion-exclusion found
    for alpha in (Fraction(3, 5), Fraction(7, 10)):
        for n_min in range(2, 11):
            _, cert = two_level_family(alpha, ExactProb(1, 4), n_min, RandomSource(0))
            assert (cert.top_length, cert.top_cardinality) \
                == oracle_simple_top(alpha, cert.random_length), (alpha, n_min)


def test_two_level_dichotomy_local():
    family, cert = toy_two_level()
    n, N, t = cert.random_length, cert.top_length, cert.threshold
    rs = RandomSource(50)
    samples = [rs.bits(N) for _ in range(200)]
    samples.append("0" * N)
    samples.append("01" * (N // 2))
    for x in samples:
        hit = hit_probability(x, family)
        if is_simple(int(x, 2), N, n, t):
            assert hit == 1
        else:
            d = distinct_substrings(x, n)
            assert d > t
            assert hit == 1 - Fraction(miss_probability_random_set(d, n, cert.sample_size))
        assert hit > 1 - Fraction(1, 2)


def test_hit_probability_simple_string_is_one():
    family, _ = toy_two_level()
    assert hit_probability("0" * family.string_length, family) == 1


def test_two_level_alpha_guard():
    with pytest.raises(ValueError):
        two_level_family(Fraction(1, 2), ExactProb(1, 2), 2, RandomSource(0))


@pytest.mark.parametrize("least_length", [0, -5])
def test_two_level_family_rejects_a_nonpositive_least_random_length(least_length):
    with pytest.raises(ValueError, match="least random length"):
        two_level_family(Fraction(3, 5), ExactProb(1, 2), least_length, RandomSource(0))


# ---------------------------------------------------------------- hit probability

def small_family():
    # sampled pair from the 2-cube, top = length-4 strings with equal halves
    top = ImplicitLevel(4, 2, 1, count_simple(4, 2, 1))
    return LevelFamily(Fraction(9, 10), {2: {0b00, 0b11}}, top)


def test_hit_probability_formula_case():
    family = small_family()
    x = "0001"  # windows {00, 01}, not simple at threshold 1
    assert not is_simple(0b0001, 4, 2, 1)
    assert hit_probability(x, family) == 1 - Fraction(1, 6)  # miss C(2,2)/C(4,2)


def test_hit_probability_monte_carlo_three_sigma():
    x = "0001"
    exact = 5 / 6
    trials = 10 ** 5
    hits = 0
    windows = set(numeral_windows(x, 2))
    for seed in range(trials):
        draw = sample_uniform_set(2, 2, RandomSource(seed))
        if windows & draw:
            hits += 1
    sigma = (trials * exact * (1 - exact)) ** 0.5
    assert abs(hits - trials * exact) <= 3 * sigma


def test_hit_probability_length_guard():
    with pytest.raises(ValueError):
        hit_probability("000", small_family())


# ---------------------------------------------------------------- size bounds

def test_level_family_size_bound_enforced():
    with pytest.raises(CertificateError):
        LevelFamily(Fraction(1, 2), {2: {0, 1, 2}})
    family = LevelFamily(Fraction(1, 2), {4: {0, 1, 2, 3}})
    assert family.size_bound(4) == 4


@pytest.mark.parametrize("index, key, value", [
    (1, "chain", [[2, 2], [4, 2]]), (1, "chain", []), (1, "chain", [[2, 2, 2]]),
    (0, "pool_chain", [[2, 1]]), (0, "pool_size", "8"),
    # a second implicit level (key None adds the value as a level), and an
    # implicit level no longer than the sampled level of length 2
    (2, None, {"length": 52, "kind": "implicit", "chain": [[2, 2]], "cardinality": "4"}),
    (1, "length", 2)])
def test_level_family_json_reads_only_the_full_cube_and_one_stage(index, key, value):
    doc = toy_two_level()[0].to_json()
    assert LevelFamily.from_json(doc).to_json() == doc
    if key is None:
        doc["levels"].insert(index, value)
    else:
        doc["levels"][index][key] = value
    with pytest.raises(ValueError, match="implicit" if key in (None, "length") else "pool|chain"):
        LevelFamily.from_json(doc)


def test_level_family_json_round_trip():
    family, _ = toy_two_level()
    back = LevelFamily.from_json(family.to_json())
    assert back.alpha == family.alpha
    assert back.levels == family.levels
    assert back.top == family.top


# ---------------------------------------------------------------- derandomization

def test_derandomize_uniform_toy_matches_full_summation():
    dist = FiniteDistribution.uniform(10)
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 4),
                                             RandomSource(5), level_length=5)
    # independent oracle: enumerate the whole cube against the realized set
    level = family.levels[5]
    avoiders = 0
    for v in range(1 << 10):
        x = format(v, "010b")
        if not set(numeral_windows(x, 5)) & level:
            avoiders += 1
    assert certificate == Fraction(avoiders, 1 << 10)
    assert certificate < Fraction(1, 4)
    assert family_avoid_probability(dist, family) == certificate


def test_derandomize_point_mass_on_constant():
    dist = point_mass("0" * 8)
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 2),
                                             RandomSource(2), level_length=2)
    assert certificate == 0
    assert not family_avoids("0" * 8, family)


def test_family_avoids_agrees_with_naive_window_loop():
    cube = FiniteDistribution.uniform(12)
    for level_length, has_top in ((2, True), (3, False), (4, False)):
        for seed in range(2):
            family, _ = derandomize_family(cube, Fraction(3, 4), Fraction(1, 2),
                                           RandomSource(seed), level_length=level_length)
            assert (family.top is not None) == has_top
            lengths = [*family.levels, *([family.top.length] if has_top else [])]
            for x, _ in support_weights(cube):
                naive = not any(membership(family, n, int(x[k:k + n], 2))
                                for n in lengths
                                for k in range(len(x) - n + 1))
                assert family_avoids(x, family) == naive


def test_derandomize_point_mass_all_distinct_windows():
    x = "00011101"  # all 3-windows distinct
    assert distinct_substrings(x, 3) == 6
    dist = point_mass(x)
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 2),
                                             RandomSource(4), level_length=3)
    assert certificate == 0
    assert set(numeral_windows(x, 3)) & family.levels[3]


def test_derandomize_averaged_bound_error():
    dist = point_mass("0" * 6)
    # alpha so small the sampled set has one string: miss(1) too big for eps
    with pytest.raises(AveragedBoundError):
        derandomize_family(dist, Fraction(1, 5), ExactProb(1, 100),
                           RandomSource(0), level_length=2)


@pytest.mark.parametrize("level_length", [0, 6, 9])
def test_derandomize_names_an_inadmissible_level_length(level_length):
    with pytest.raises(ValueError, match=f"level length {level_length} is not admissible "
                                         f"for strings of length 6 at alpha 3/5; "
                                         f"admissible: 1..5"):
        derandomize_family(FiniteDistribution.uniform(6), Fraction(3, 5), ExactProb(1, 2),
                           RandomSource(0), level_length=level_length)


def test_derandomize_admits_no_draw_of_more_than_2_to_the_24_strings():
    # at alpha 3/5, level 41 would draw 2**24.6 strings; 40 draws 2**24
    with pytest.raises(ValueError, match="admissible: 1..40$"):
        derandomize_family(point_mass("0" * 50), Fraction(3, 5), ExactProb(1, 2),
                           RandomSource(0), level_length=45)


def test_integer_sums_agree_with_per_string_fraction_sums():
    rs = RandomSource(77)
    tops = 0
    for trial in range(300):
        length, ln = 6 + rs.below(5), 2 + rs.below(3)
        numerals = {rs.below(1 << length) for _ in range(1 + rs.below(40))}
        weights = {format(v, f"0{length}b"): 1 + rs.below(12) for v in numerals}
        deficit = rs.below(5) if trial % 2 else 0
        total = sum(weights.values()) + deficit
        dist = FiniteDistribution(length, {x: Fraction(w, total) for x, w in weights.items()},
                                  Fraction(deficit, total))
        size = 1 + rs.below(1 << ln)
        strings = sample_uniform_set(ln, size, rs.substream(trial))
        top = None
        if trial % 3 and length % ln == 0:
            threshold = 1 << ((ln + 1) // 2)
            top = ImplicitLevel(length, ln, threshold, count_simple(length, ln, threshold))
            tops += 1
        family = LevelFamily(Fraction(1), {ln: strings} if top else {ln: strings, length: ()},
                             top)
        assert family_avoid_probability(dist, family) == family_avoid_per_string(dist, family)
        assert _averaged_bound(dist, ln, size, top) == \
            averaged_bound_per_string(dist, ln, size, top)
    assert tops > 30


def test_table_certificates_agree_with_the_scanner_on_multi_level_families():
    # one to three sampled levels, any of them empty or at the full length,
    # under an implicit top or none; the averaged bound in between leaves
    # another length's window table behind
    rs = RandomSource(91)
    seen = dict.fromkeys(("empty", "full", "implicit", "several"), 0)
    for trial in range(240):
        length = 4 + rs.below(7)
        numerals = {rs.below(1 << length) for _ in range(1 + rs.below(40))}
        weights = {format(v, f"0{length}b"): 1 + rs.below(12) for v in numerals}
        deficit = rs.below(5) if trial % 2 else 0
        total = sum(weights.values()) + deficit
        dist = FiniteDistribution(length, {x: Fraction(w, total) for x, w in weights.items()},
                                  Fraction(deficit, total))
        top = None
        blocks = [b for b in range(1, length) if length % b == 0]
        if trial % 3 == 0:
            b = blocks[rs.below(len(blocks))]
            threshold = 1 + rs.below(1 << ((b + 1) // 2))
            top = ImplicitLevel(length, b, threshold, count_simple(length, b, threshold))
        lengths = {1 + rs.below(length - 1) for _ in range(1 + rs.below(3))}
        if top is None:
            lengths.add(length)
        levels = {}
        for i, ln in enumerate(sorted(lengths)[-3:]):
            size = rs.below(min(1 << ln, 12) + 1)
            levels[ln] = sample_uniform_set(ln, size, rs.substream(4 * trial + i))
        family = LevelFamily(Fraction(1), levels, top)
        seen["empty"] += any(not strings for strings in levels.values())
        seen["full"] += bool(levels.get(length))
        seen["implicit"] += top is not None
        seen["several"] += sum(1 for strings in levels.values() if strings) > 1
        expected = family_avoid_per_string(dist, family)
        assert family_avoid_probability(dist, family) == expected, trial
        ln = 1 + rs.below(length - 1)
        size = rs.below((1 << ln) + 1)
        assert _averaged_bound(dist, ln, size, top) == \
            averaged_bound_per_string(dist, ln, size, top)
        assert family_avoid_probability(dist, family) == expected, trial
    assert min(seen.values()) > 20, seen


# ---------------------------------------------------------------- interval schedule

def test_interval_schedule_three_intervals():
    entries = interval_schedule(FiniteDistribution.uniform, Fraction(9, 10), 3,
                                RandomSource(11))
    assert len(entries) == 3
    assert sum(Fraction(e.epsilon) for e in entries) < 1
    previous_upper = 0
    for i, entry in enumerate(entries, start=1):
        assert entry.epsilon == Fraction(1, 1 << i)
        assert entry.certificate < entry.epsilon
        assert entry.lower > previous_upper or previous_upper == 0
        assert entry.lower < entry.upper
        if previous_upper:
            assert entry.lower > previous_upper
        previous_upper = entry.upper
        sizes = {n: len(strings) for n, strings in entry.family.levels.items()}
        if entry.family.top is not None:
            sizes[entry.family.top.length] = entry.family.top.cardinality
        for length, size in sizes.items():
            assert size <= entry.family.size_bound(length)


@pytest.mark.parametrize("first_length", [0, -3])
def test_interval_schedule_rejects_a_nonpositive_first_length_at_once(first_length):
    def no_distribution(length):
        raise AssertionError(f"a distribution of length {length} was built")
    with pytest.raises(ValueError):
        interval_schedule(no_distribution, Fraction(9, 10), 1, RandomSource(0),
                          first_length=first_length)


def test_interval_schedule_skips_lengths_no_distribution_admits():
    # a string of 6 or 7 bits has at most 3 distinct windows of 5 bits, and a
    # draw of 6 of the 32 such windows misses 3 of them with probability >= 1/2
    assert pow2_floor(Fraction(11, 20) * 5) == 6
    assert miss_probability_random_set(3, 5, 6) >= Fraction(1, 2) > \
        miss_probability_random_set(4, 5, 6)
    built = []

    def dist_for_length(length):
        if length < 8:
            raise AssertionError(f"a distribution of length {length} was built")
        built.append(length)
        return FiniteDistribution.uniform(length)

    entries = interval_schedule(dist_for_length, Fraction(11, 20), 1, RandomSource(0),
                                first_length=5)
    assert built == [8] and entries[0].upper == 8


def test_interval_schedule_single_matches_derandomize():
    rs = RandomSource(11)
    entries = interval_schedule(FiniteDistribution.uniform, Fraction(9, 10), 1, rs)
    entry = entries[0]
    family, certificate = derandomize_family(
        FiniteDistribution.uniform(entry.upper), Fraction(9, 10), ExactProb(1, 2),
        RandomSource(11).substream(1), level_length=2)
    assert entry.certificate == certificate
    assert entry.family.to_json() == family.to_json()
