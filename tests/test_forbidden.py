import itertools
from fractions import Fraction

import pytest

from ecseq.core import (BitString, CertificateError, ExactProb, FiniteDistribution,
                        RandomSource, binom, pow2_floor)
from ecseq.forbidden import (AveragedBoundError, ImplicitLevel, LayeredParams,
                             LevelFamily, PoolTooSmallError, SampledLevel,
                             count_chain, count_limited_block_strings, count_simple,
                             derandomize_family, distinct_substrings,
                             enumerate_chain_pool, family_avoid_probability,
                             family_avoids, hit_probability, interval_schedule,
                             is_chain_simple, is_simple, miss_probability_random_set,
                             multi_level_family, sample_uniform_set, surjections,
                             two_level_family)


def bs(text):
    return BitString.from_text(text)


# ---------------------------------------------------------------- substrings

def test_distinct_substrings_examples():
    assert distinct_substrings(bs("0000000"), 2) == 1
    assert distinct_substrings(bs("0110"), 2) == 3
    with pytest.raises(ValueError):
        distinct_substrings(bs("01"), 3)


def test_distinct_substrings_de_bruijn():
    # order-3 binary de Bruijn cycle, extended so every cyclic window appears
    seq = bs("0001011100")
    naive = {seq.window(k, 3).to_text() for k in range(len(seq) - 2)}
    assert len(naive) == 8
    assert distinct_substrings(seq, 3) == 8


# ---------------------------------------------------------------- sampling

def test_sample_full_cube_any_seed():
    for seed in (0, 1, 99):
        got = sample_uniform_set(3, 8, RandomSource(seed))
        assert got == frozenset(BitString.from_numeral(v, 3) for v in range(8))


def test_sample_empty_and_too_big():
    assert sample_uniform_set(4, 0, RandomSource(0)) == frozenset()
    with pytest.raises(PoolTooSmallError):
        sample_uniform_set(2, 5, RandomSource(0))


def test_sample_singleton_frequencies_chi_square():
    trials = 10 ** 5
    counts = [0, 0, 0, 0]
    for seed in range(trials):
        (only,) = sample_uniform_set(2, 1, RandomSource(seed))
        counts[only.to_numeral()] += 1
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
        key = tuple(sorted(v.to_numeral() for v in
                           sample_uniform_set(2, 2, RandomSource(seed))))
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
    assert is_simple(bs("010101"), 2, 2)
    assert not is_simple(bs("000110"), 2, 1)
    assert sum(1 for v in range(64)
               if is_simple(BitString.from_numeral(v, 6), 2, 2)) == 40
    with pytest.raises(ValueError):
        is_simple(bs("00011"), 2, 1)


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
            assert sum(binom(k, j) * surjections(p, j) for j in range(1, k + 1)) == k ** p


def test_count_limited_pool_generalization():
    assert count_limited_block_strings(1 << 2, 3, 2) == count_simple(6, 2, 2)


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
    assert len(family.levels[n].strings) == cert.sample_size == pow2_floor(ALPHA * n)


def test_two_level_dichotomy_local():
    family, cert = toy_two_level()
    n, N, t = cert.random_length, cert.top_length, cert.threshold
    rs = RandomSource(50)
    samples = [rs.bits(N) for _ in range(200)]
    samples.append(BitString.zeros(N))
    samples.append(bs("01" * (N // 2)))
    for x in samples:
        hit = hit_probability(x, family)
        if is_simple(x, n, t):
            assert hit == 1
        else:
            d = distinct_substrings(x, n)
            assert d > t
            assert hit == 1 - Fraction(miss_probability_random_set(d, n, cert.sample_size))
        assert hit > 1 - Fraction(1, 2)


def test_hit_probability_simple_string_is_one():
    family, _ = toy_two_level()
    assert hit_probability(BitString.zeros(family.string_length), family) == 1


def test_two_level_alpha_guard():
    with pytest.raises(ValueError):
        two_level_family(Fraction(1, 2), ExactProb(1, 2), 2, RandomSource(0))


# ---------------------------------------------------------------- hit probability

def small_family():
    # sampled pair from the 2-cube, top = length-4 strings with equal halves
    level = SampledLevel(2, frozenset({0b00, 0b11}), (), 4)
    top = ImplicitLevel(4, ((2, 1),), count_simple(4, 2, 1))
    return LevelFamily(Fraction(9, 10), [level, top])


def test_hit_probability_formula_case():
    family = small_family()
    x = bs("0001")  # windows {00, 01}, not simple at threshold 1
    assert not is_simple(x, 2, 1)
    assert hit_probability(x, family) == 1 - Fraction(1, 6)  # miss C(2,2)/C(4,2)


def test_hit_probability_monte_carlo_three_sigma():
    x = bs("0001")
    exact = 5 / 6
    trials = 10 ** 5
    hits = 0
    windows = set(x.numeral_windows(2))
    for seed in range(trials):
        draw = {v.to_numeral() for v in sample_uniform_set(2, 2, RandomSource(seed))}
        if windows & draw:
            hits += 1
    sigma = (trials * exact * (1 - exact)) ** 0.5
    assert abs(hits - trials * exact) <= 3 * sigma


def test_hit_probability_length_guard():
    with pytest.raises(ValueError):
        hit_probability(bs("000"), small_family())


# ---------------------------------------------------------------- multi-level

def test_multi_level_count_matches_brute_force():
    chain = ((2, 1), (4, 2))
    brute = [v for v in range(1 << 8) if is_chain_simple(v, 8, chain)]
    assert count_chain(chain, 8) == len(brute) == 16
    assert enumerate_chain_pool(chain, 8) == brute


def test_multi_level_reduces_to_two_level_shape():
    # a single stage draws exactly like the two-level construction
    _, cert = toy_two_level(seed=3)
    params = LayeredParams(ALPHA, (cert.random_length, cert.top_length),
                           (cert.threshold,))
    family, multi_cert = multi_level_family(params, RandomSource(3))
    two_family, _ = toy_two_level(seed=3)
    assert family.levels[cert.random_length].strings == \
        two_family.levels[cert.random_length].strings
    assert multi_cert.top_cardinality == cert.top_cardinality


def test_multi_level_three_layers_well_typed():
    params = LayeredParams(Fraction(2, 5), (2, 8, 88), (2, 3))
    family, cert = multi_level_family(params, RandomSource(5))
    mid = family.levels[8]
    assert mid.pool_size == count_chain(((2, 2),), 8) == 88
    assert len(mid.strings) == pow2_floor(Fraction(2, 5) * 8) == 9
    for v in mid.strings:
        assert is_chain_simple(v, 8, ((2, 2),))
    assert cert.top_cardinality <= cert.top_size_bound
    # top membership agrees with the recursive predicate
    top = family.levels[88]
    assert top.cardinality == count_chain(top.chain, 88)


def test_multi_level_toy_top_bound_relaxation():
    params = LayeredParams(Fraction(2, 5), (2, 4, 8), (1, 2))
    with pytest.raises(CertificateError):
        multi_level_family(params, RandomSource(1))
    family, cert = multi_level_family(params, RandomSource(1), require_top_bound=False)
    assert cert.top_cardinality == 16
    assert family.levels[8].cardinality == 16


def test_multi_level_pool_too_small():
    params = LayeredParams(Fraction(2, 5), (2, 6, 12), (1, 2))
    with pytest.raises(PoolTooSmallError):
        multi_level_family(params, RandomSource(1))


def test_layered_params_validation():
    with pytest.raises(ValueError):
        LayeredParams(Fraction(1, 3), (2, 4, 8), (1, 2))  # alpha too small
    with pytest.raises(ValueError):
        LayeredParams(Fraction(2, 5), (2, 5, 10), (1, 2))  # divisibility
    params = LayeredParams.with_default_thresholds(Fraction(3, 5), (4, 8))
    assert params.thresholds == (1 << 2,)  # 2**ceil(4/2)


# ---------------------------------------------------------------- size bounds

def test_level_family_size_bound_enforced():
    with pytest.raises(CertificateError):
        LevelFamily(Fraction(1, 2), [SampledLevel(2, frozenset({0, 1, 2}), (), 4)])
    family = LevelFamily(Fraction(1, 2), [SampledLevel(4, frozenset({0, 1, 2, 3}), (), 16)])
    assert family.size_bound(4) == 4


def test_level_family_json_round_trip():
    family, _ = toy_two_level()
    back = LevelFamily.from_json(family.to_json())
    assert back.alpha == family.alpha
    assert back.levels.keys() == family.levels.keys()
    n = min(family.levels)
    assert back.levels[n].strings == family.levels[n].strings
    top = family.string_length
    assert back.levels[top].cardinality == family.levels[top].cardinality


# ---------------------------------------------------------------- derandomization

def test_derandomize_uniform_toy_matches_full_summation():
    dist = FiniteDistribution.uniform(10)
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 4),
                                             RandomSource(5), level_length=5)
    # independent oracle: enumerate the whole cube against the realized set
    level = family.levels[5]
    avoiders = 0
    for v in range(1 << 10):
        x = BitString.from_numeral(v, 10)
        if not set(x.numeral_windows(5)) & level.strings:
            avoiders += 1
    assert certificate == Fraction(avoiders, 1 << 10)
    assert certificate < Fraction(1, 4)
    assert family_avoid_probability(dist, family) == certificate


def test_derandomize_point_mass_on_constant():
    dist = FiniteDistribution.point_mass(BitString.zeros(8))
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 2),
                                             RandomSource(2), level_length=2)
    assert certificate == 0
    assert not family_avoids(BitString.zeros(8), family)


def test_family_avoids_agrees_with_naive_window_loop():
    cube = FiniteDistribution.uniform(12)
    for level_length, has_top in ((2, True), (3, False), (4, False)):
        for seed in range(2):
            family, _ = derandomize_family(cube, Fraction(3, 4), Fraction(1, 2),
                                           RandomSource(seed), level_length=level_length)
            assert (family.implicit_top() is not None) == has_top
            for x, _ in cube.items():
                naive = not any(family.membership(n, x.window(k, n).to_numeral())
                                for n in family.level_lengths()
                                for k in range(len(x) - n + 1))
                assert family_avoids(x, family) == naive


def test_derandomize_point_mass_all_distinct_windows():
    x = bs("00011101")  # all 3-windows distinct
    assert distinct_substrings(x, 3) == 6
    dist = FiniteDistribution.point_mass(x)
    family, certificate = derandomize_family(dist, Fraction(9, 10), ExactProb(1, 2),
                                             RandomSource(4), level_length=3)
    assert certificate == 0
    assert set(x.numeral_windows(3)) & family.levels[3].strings


def test_derandomize_averaged_bound_error():
    dist = FiniteDistribution.point_mass(BitString.zeros(6))
    # alpha so small the sampled set has one string: miss(1) too big for eps
    with pytest.raises(AveragedBoundError):
        derandomize_family(dist, Fraction(1, 5), ExactProb(1, 100),
                           RandomSource(0), level_length=2)


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
        for length in entry.family.level_lengths():
            assert entry.family.size_of(length) <= entry.family.size_bound(length)


def test_interval_schedule_single_matches_derandomize():
    rs = RandomSource(11)
    entries = interval_schedule(FiniteDistribution.uniform, Fraction(9, 10), 1, rs)
    entry = entries[0]
    family, certificate = derandomize_family(
        FiniteDistribution.uniform(entry.upper), Fraction(9, 10), ExactProb(1, 2),
        RandomSource(11).substream(1), level_length=2)
    assert entry.certificate == certificate
    assert entry.family.to_json() == family.to_json()
