"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math
import time
from fractions import Fraction

from ecseq.adversary import (avoid_probability, positional_family_search,
                             required_positions, truncated_search)
from ecseq.avoider import AvoidanceInstance, build_avoiding_string, scan_violations
from ecseq.core import BitString, ExactProb, FiniteDistribution, RandomSource, pow2_floor
from ecseq.forbidden import (LevelFamily, count_simple, interval_schedule,
                             is_simple, miss_probability_random_set, sample_uniform_set,
                             two_level_family)
from ecseq.proxy import compress_bits, compress_size
from ecseq.spreader import (boost_tail, choose_start_level, inverse_triangular,
                            plan_allocation, recover_prefix, spread_random,
                            zero_series)

from oracles import (average_avoid_probability, brute_force_avoider, decompress_bits,
                     distinct_substrings, hit_probability, level_counts, numeral_windows,
                     scaled_to_deficit, support_masses)


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _window_tally_ok(alloc, mapping, k, m):
    top = alloc.source_count_through(m)
    base = top - level_counts(alloc)[m]
    counts = {}
    for j in mapping[k:k + (1 << m)]:
        counts[j] = counts.get(j, 0) + 1
    if any(counts.get(j, 0) < 1 for j in range(top)):
        return False
    return all(counts.get(j, 0) == 1 for j in range(base, top))


def test_criterion_1_spreader_window_coverage():
    started = time.perf_counter()
    length = 1 << 16
    alloc = plan_allocation(inverse_triangular())
    mapping = alloc.source_map(0, length)
    rs = RandomSource(2024)
    violations = 0
    checked = 0
    for m in range(alloc.start_level, 13):
        size = 1 << m
        max_start = length - size
        if m <= 6:
            starts = range(min(max_start + 1, 1 << 12))
        else:
            starts = [rs.below(max_start + 1) for _ in range(1000)]
        for k in starts:
            checked += 1
            if not _window_tally_ok(alloc, mapping, k, m):
                violations += 1
    elapsed = time.perf_counter() - started
    _report(1, violations == 0 and elapsed < 60,
            f"{checked} windows over levels [{alloc.start_level}, 12], "
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_2_recovery_round_trip():
    length = 1 << 16
    alloc = plan_allocation(inverse_triangular())
    omega, tau = spread_random(alloc, RandomSource(7), length)
    text, source = omega.to_text(), tau.to_text()
    rs = RandomSource(2025)
    failures = 0
    for _ in range(1000):
        m = alloc.start_level + rs.below(13 - alloc.start_level)
        size = 1 << m
        k = rs.below(length - size + 1)
        prefix = recover_prefix(alloc, BitString.from_text(text[k:k + size]), k % size, m)
        if prefix.to_text() != source[:alloc.source_count_through(m)]:
            failures += 1
    _report(2, failures == 0, f"1000 windows reconstructed bit-exact, {failures} failures")


def test_criterion_3_start_level_all_zero_series():
    # independent oracle: exact partial sums to m = 200 plus the exact remainder
    def certified(level):
        partial = sum(Fraction(m * m + 1, 1 << m) for m in range(level, 201))
        return partial + boost_tail(201)

    oracle_level = 0
    while certified(oracle_level) > 1:
        oracle_level += 1
    got = choose_start_level(zero_series())
    _report(3, got == 8 and oracle_level == 8,
            f"start level {got}, partial-sum oracle {oracle_level}")


def test_criterion_4_miss_probability_and_count_simple():
    exact = miss_probability_random_set(1, 2, 2)
    ok = exact == Fraction(1, 2)

    trials = 10 ** 5
    target = {0b10}
    misses = 0
    for seed in range(trials):
        draw = sample_uniform_set(2, 2, RandomSource(seed))
        if not target & draw:
            misses += 1
    sigma = (trials * 0.25) ** 0.5  # sqrt(n p (1-p)) at p = 1/2
    mc_ok = abs(misses - trials * 0.5) <= 3 * sigma

    brute = sum(1 for v in range(64) if is_simple(v, 6, 2, 2))
    cs_ok = count_simple(6, 2, 2) == brute == 40

    _report(4, ok and mc_ok and cs_ok,
            f"miss=1/2 exact, Monte Carlo {misses}/{trials} within 3 sigma, "
            f"count_simple(6,2,2)={count_simple(6, 2, 2)}=brute {brute}")


def test_criterion_5_two_level_dichotomy():
    started = time.perf_counter()
    alpha = Fraction(3, 5)
    epsilon = ExactProb(1, 4)
    family, cert = two_level_family(alpha, epsilon, 8, RandomSource(99))
    n, N, t, s = cert.random_length, cert.top_length, cert.threshold, cert.sample_size

    # size certificates, by independent big-integer comparison
    sizes_ok = (len(family.levels[n]) <= pow2_floor(alpha * n)
                and count_simple(N, n, t) == cert.top_cardinality <= pow2_floor(alpha * N))

    rs = RandomSource(555)
    samples = [rs.bits(N) for _ in range(10 ** 4)]
    block = rs.bits(n).to_bits()
    structured = []
    for i in range(100):
        if i % 4 == 0:
            structured.append(BitString.from_text(("01" * N)[:N]))
        elif i % 4 == 1:
            structured.append(BitString(0 if i % 8 == 1 else (1 << N) - 1, N))
        elif i % 4 == 2:
            structured.append(BitString.from_bits(
                [block[j % n] for j in range(N)]))  # one block repeated
        else:
            noisy = [block[j % n] for j in range(N)]
            noisy[(37 * i) % N] ^= 1
            structured.append(BitString.from_bits(noisy))

    threshold_gap = Fraction(epsilon)
    bad = 0
    cache = {}
    for x in samples + structured:
        hit = hit_probability(x, family)
        if is_simple(int(x.to_text(), 2), N, n, t):
            if hit != 1:
                bad += 1
            continue
        d = distinct_substrings(x, n)
        expected = cache.get(d)
        if expected is None:
            expected = 1 - Fraction(math.comb((1 << n) - d, s), math.comb(1 << n, s))
            cache[d] = expected
        if hit != expected or not hit > 1 - threshold_gap:
            bad += 1
    elapsed = time.perf_counter() - started
    _report(5, sizes_ok and bad == 0 and elapsed < 300,
            f"n={n} N={N}: 10100 strings all above 1-epsilon, sizes certified, "
            f"{elapsed:.1f}s")


def test_criterion_6_adversary_toy():
    req_ok = required_positions(2, Fraction(1, 2)) == 3
    dist = FiniteDistribution.uniform(4)
    family = positional_family_search(dist, 2, ExactProb(1, 2))

    # exhaustive oracle over all 64 families
    import itertools
    first = None
    for candidate in itertools.product(range(4), repeat=3):
        total = Fraction(0)
        for v in range(16):
            text = format(v, "04b")
            windows = [int(text[k:k + 2], 2) for k in range(3)]
            if all(w != c for w, c in zip(windows, candidate)):
                total += Fraction(1, 16)
        if total < Fraction(1, 2):
            first = (candidate, total)
            break
    oracle_ok = (first is not None
                 and family.numerals() == first[0]
                 and family.certificate == first[1] < Fraction(1, 2))
    avg = average_avoid_probability(dist, 2, 3)
    avg_ok = avg == Fraction(27, 64)
    _report(6, req_ok and oracle_ok and avg_ok,
            f"required N=3, first-lex family {family.to_json()['strings']} "
            f"at {family.certificate}, average 27/64 exact")


def test_criterion_7_truncation_accounting():
    dist = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(1, 8))
    family = truncated_search(dist, 2, ExactProb(1, 2))
    # independent recomputation over the enumerated support
    recomputed = Fraction(dist.deficit)
    for x, mass in support_masses(dist):
        windows = [int(x.to_text()[k:k + 2], 2) for k in range(3)]
        if all(w != t for w, t in zip(windows, family.numerals())):
            recomputed += mass
    ok = (family.certificate == recomputed < Fraction(1, 2)
          and recomputed - Fraction(1, 8) < Fraction(3, 8)
          and avoid_probability(dist, family) == family.certificate)
    _report(7, ok, f"full-distribution certificate {family.certificate} < 1/2, "
                   f"enumerated part {recomputed - Fraction(1, 8)} < 3/8")


def _acceptance_avoider_family():
    master = RandomSource(4242)
    levels = {}
    for n in range(8, 13):
        size = pow2_floor(Fraction(3, 10) * n)
        levels[n] = sample_uniform_set(n, size, master.substream(n))
    return LevelFamily(Fraction(3, 10), levels)


def test_criterion_8_avoider():
    family = _acceptance_avoider_family()
    length = 10 ** 4
    successes = 0
    slowest = 0.0
    for seed in range(100):
        inst = AvoidanceInstance(family, length, 10 ** 6, RandomSource(seed))
        t0 = time.perf_counter()
        result = build_avoiding_string(inst)
        slowest = max(slowest, time.perf_counter() - t0)
        if result.succeeded and not scan_violations(result.string, family):
            successes += 1

    brute_ok = True
    for small in (8, 12, 16):
        sub = LevelFamily(Fraction(3, 10),
                          {n: strings for n, strings in family.levels.items() if n <= small})
        witness = brute_force_avoider(sub, small)
        result = build_avoiding_string(
            AvoidanceInstance(sub, small, 10 ** 6, RandomSource(1)))
        if witness is None or not result.succeeded:
            brute_ok = False
        if result.succeeded and scan_violations(result.string, sub):
            brute_ok = False
    _report(8, successes >= 99 and slowest < 10 and brute_ok,
            f"{successes}/100 seeds clean at length {length}, slowest seed "
            f"{slowest:.2f}s, brute-force agreement at L<=16")


def test_criterion_9_interval_schedule():
    entries = interval_schedule(FiniteDistribution.uniform, Fraction(9, 10), 3,
                                RandomSource(11))
    ok = len(entries) == 3
    previous_upper = 0
    for i, entry in enumerate(entries, start=1):
        ok = ok and entry.epsilon == Fraction(1, 1 << i)
        ok = ok and (previous_upper == 0 or entry.lower > previous_upper)
        previous_upper = entry.upper
        # exhaustive summation oracle over the full cube
        realized = {n: strings for n, strings in entry.family.levels.items() if strings}
        avoiders = 0
        for v in range(1 << entry.upper):
            x = BitString.from_text(format(v, f"0{entry.upper}b"))
            hit = False
            for ln, strings in realized.items():
                if set(numeral_windows(x, ln)) & strings:
                    hit = True
                    break
            if not hit:
                avoiders += 1
        exact = Fraction(avoiders, 1 << entry.upper)
        ok = ok and exact == Fraction(entry.certificate) < Fraction(entry.epsilon)
    _report(9, ok, "3 disjoint intervals, certificates "
            + ", ".join(f"{e.certificate}<{e.epsilon}" for e in entries)
            + " re-verified exhaustively")


def test_criterion_10_proxy():
    rs = RandomSource(77)
    bad = 0
    for trial in range(10 ** 4):
        x = rs.bits(rs.below(160))
        if decompress_bits(compress_bits(x)) != x:
            bad += 1
    zeros = compress_size(BitString(0, 4096))
    wins = sum(1 for seed in range(100)
               if zeros < compress_size(RandomSource(seed).bits(4096)))
    _report(10, bad == 0 and wins >= 95,
            f"10^4 round trips exact, constant run beats random {wins}/100")
