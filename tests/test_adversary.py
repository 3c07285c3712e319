from fractions import Fraction

import pytest

from ecseq.adversary import (PositionalFamily, avoid_probability,
                             positional_family_search, required_positions,
                             truncated_search)
from ecseq.core import ExactProb, FiniteDistribution, RandomSource

from oracles import (average_avoid_probability, distribution, first_lex_search, point_mass,
                     recount_search, scaled_to_deficit, support_masses)


def fam(*texts):
    return PositionalFamily(len(texts[0]), tuple(int(t, 2) for t in texts))


# ---------------------------------------------------------------- required positions

def test_required_positions_exact_powering():
    q = Fraction(3, 4)
    assert q ** 2 >= Fraction(1, 2) > q ** 3
    assert required_positions(2, Fraction(1, 2)) == 3


def test_required_positions_epsilon_one():
    for n in (1, 2, 5):
        assert required_positions(n, Fraction(1)) == 1


def test_required_positions_monotone():
    for n in (1, 2, 3):
        for eps in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 17)):
            assert required_positions(n, eps / 2) >= required_positions(n, eps)
            q = Fraction(1 << n) - 1
            q = q / (1 << n)
            N = required_positions(n, eps)
            assert q ** N < eps <= q ** (N - 1) if N > 1 else q ** N < eps


# ---------------------------------------------------------------- avoid probability

def test_avoid_probability_point_mass_hit_at_zero():
    x = "0011"
    dist = point_mass(x)
    assert avoid_probability(dist, fam("00", "00", "00")) == 0


def test_avoid_probability_uniform_fibonacci():
    dist = FiniteDistribution.uniform(4)
    # oracle: strings of length 4 with no "00" window
    free = [v for v in range(16)
            if "00" not in format(v, "04b")]
    assert len(free) == 8
    assert avoid_probability(dist, fam("00", "00", "00")) == Fraction(8, 16)


def test_avoid_probability_full_deficit():
    dist = distribution(4, {}, deficit=ExactProb(1))
    assert avoid_probability(dist, fam("00", "00", "00")) == 1


def test_avoid_probability_agrees_with_a_direct_loop():
    rs = RandomSource(808)
    for trial in range(150):
        n = 1 + rs.below(4)
        length = n + rs.below(8)
        numerals = {rs.below(1 << length) for _ in range(1 + rs.below(30))}
        weights = {format(v, f"0{length}b"): 1 + rs.below(9) for v in numerals}
        deficit = 1 + rs.below(4) if trial % 2 else 0
        total = sum(weights.values()) + deficit
        dist = distribution(length, {x: Fraction(w, total) for x, w in weights.items()},
                                  Fraction(deficit, total))
        family = PositionalFamily(n, tuple(rs.below(1 << n) for _ in range(length - n + 1)))
        expected = Fraction(dist.deficit) + sum(
            (mass for x, mass in support_masses(dist)
             if all(int(x[p:p + n], 2) != t for p, t in enumerate(family.targets))),
            Fraction(0))
        assert avoid_probability(dist, family) == expected
        dist.windows(1 + rs.below(length))  # leave another length's table behind
        assert avoid_probability(dist, family) == expected


def test_avoid_probability_length_guard():
    with pytest.raises(ValueError):
        avoid_probability(FiniteDistribution.uniform(5), fam("00", "00", "00"))


# ---------------------------------------------------------------- search

def test_search_first_lex_matches_exhaustive_oracle():
    dist = FiniteDistribution.uniform(4)
    expected, cert = first_lex_search(dist, 2, Fraction(1, 2))
    family = positional_family_search(dist, 2, ExactProb(1, 2))
    assert family.numerals() == expected
    assert family.to_json()["strings"] == ["00", "00", "10"]
    assert family.certificate == cert == Fraction(7, 16)
    # the two lexicographic predecessors both miss the target
    for texts in (("00", "00", "00"), ("00", "00", "01")):
        assert avoid_probability(dist, fam(*texts)) == Fraction(8, 16)


def test_search_point_mass():
    # a point mass avoids or hits outright, so any returned family scores 0
    y = "1001"  # contains 00: the all-zero family hits immediately
    dist = point_mass(y)
    family = positional_family_search(dist, 2, ExactProb(1, 2))
    assert family.to_json()["strings"] == ["00", "00", "00"]
    assert family.certificate == 0
    x = "1111"  # no 00 anywhere: the search advances to the first hit
    dist = point_mass(x)
    family = positional_family_search(dist, 2, ExactProb(1, 2))
    expected, cert = first_lex_search(dist, 2, Fraction(1, 2))
    assert family.numerals() == expected
    assert family.certificate == cert == 0
    assert avoid_probability(dist, family) == 0


def test_search_epsilon_one():
    dist = FiniteDistribution.uniform(4)
    family = positional_family_search(dist, 2, ExactProb(1))
    assert family.to_json()["strings"] == ["00", "00", "00"]
    assert family.certificate < 1


def random_search_instance(rs, trial):
    """A distribution of a few weighted strings, with a deficit on odd trials,
    and an epsilon between its averaged existence bound and 1, skewed toward
    the bound so that the first qualifying family lies deeper."""
    n = 1 + trial % 3
    length = n + 1 + rs.below(6)
    numerals = {rs.below(1 << length) for _ in range(1 + rs.below(40))}
    weights = {format(v, f"0{length}b"): 1 + rs.below(9) for v in numerals}
    deficit = 1 + rs.below(4) if trial % 2 else 0
    total = sum(weights.values()) + deficit
    dist = distribution(length, {x: Fraction(w, total) for x, w in weights.items()},
                              Fraction(deficit, total))
    share = Fraction(dist.deficit)
    average = (1 - share) * (1 - Fraction(1, 1 << n)) ** (length - n + 1) + share
    epsilon = average + (1 - average) * Fraction(1 + rs.below(300), 300) ** 3
    return dist, n, epsilon


def test_search_agrees_with_the_unpruned_first_lex_search():
    rs = RandomSource(2024)
    with_deficit = 0
    for trial in range(320):
        dist, n, epsilon = random_search_instance(rs, trial)
        with_deficit += dist.deficit > 0
        family = positional_family_search(dist, n, epsilon)
        numerals, certificate = first_lex_search(dist, n, epsilon)
        assert family.numerals() == numerals, (trial, dist, epsilon)
        assert family.certificate == certificate, (trial, dist, epsilon)
        assert avoid_probability(dist, family) == certificate
    assert with_deficit == 160


def seeded_instance(rs, n: int, positions: int, deficit_share: Fraction):
    """Up to 64 weighted strings of positions + n - 1 bits with the given
    deficit share, and an epsilon between the averaged existence bound and 1,
    skewed toward the bound so that the first qualifying family lies deeper."""
    length = positions + n - 1
    numerals = {rs.below(1 << length) for _ in range(1 + rs.below(64))}
    weights = {format(v, f"0{length}b"): 1 + rs.below(9) for v in numerals}
    total = sum(weights.values())
    dist = distribution(length, {x: (1 - deficit_share) * Fraction(w, total)
                                 for x, w in weights.items()}, deficit_share)
    average = (1 - deficit_share) * (1 - Fraction(1, 1 << n)) ** positions + deficit_share
    return dist, average + (1 - average) * Fraction(1 + rs.below(300), 300) ** 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_search_with_incremental_tallies_agrees_with_the_recounting_search(n):
    rs = RandomSource(4096 + n)
    positions = required_positions(n, Fraction(1, 2))
    for trial in range(12):
        share = Fraction(1 + rs.below(7), 64) if trial % 2 else Fraction(0)
        dist, epsilon = seeded_instance(rs, n, positions, share)
        family = positional_family_search(dist, n, epsilon)
        assert (family.targets, family.certificate) == recount_search(dist, n, epsilon), trial
        assert avoid_probability(dist, family) == family.certificate < epsilon


def test_search_with_a_16_bit_window_agrees_with_the_recounting_search():
    # three positions: the tallies hold only the windows the support shows
    dist, epsilon = seeded_instance(RandomSource(16), 16, 3, Fraction(0))
    family = positional_family_search(dist, 16, epsilon)
    assert (family.targets, family.certificate) == recount_search(dist, 16, epsilon)
    assert avoid_probability(dist, family) == family.certificate < epsilon


def test_search_existence_precondition():
    # deficit exceeds epsilon: impossible
    dist = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(3, 4))
    with pytest.raises(ValueError):
        positional_family_search(dist, 2, ExactProb(1, 2))


# ---------------------------------------------------------------- truncation

def test_truncated_reduces_to_plain_search_without_deficit():
    dist = FiniteDistribution.uniform(4)
    a = positional_family_search(dist, 2, ExactProb(1, 2))
    b = truncated_search(dist, 2, ExactProb(1, 2))
    assert a == b


def test_truncated_uniform_with_deficit_eighth():
    dist = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(1, 8))
    family = truncated_search(dist, 2, ExactProb(1, 2))
    # full-distribution certificate below 1/2, enumerated part below 3/8
    assert family.certificate < Fraction(1, 2)
    enumerated = Fraction(family.certificate) - Fraction(1, 8)
    assert enumerated < Fraction(3, 8)
    # independent recomputation
    assert avoid_probability(dist, family) == family.certificate
    oracle, cert = first_lex_search(dist, 2, Fraction(1, 2))
    assert family.numerals() == oracle and family.certificate == cert


def test_truncated_deficit_guard():
    dist = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(1, 2))
    with pytest.raises(ValueError):
        truncated_search(dist, 2, ExactProb(1, 2))


def test_deficit_monotonicity_on_perturbed_toys():
    base = FiniteDistribution.uniform(4)
    family = fam("00", "01", "10")
    before = Fraction(avoid_probability(base, family))
    for delta in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)):
        moved = scaled_to_deficit(base, ExactProb(delta))
        after = Fraction(avoid_probability(moved, family))
        assert before <= after <= before + delta


# ---------------------------------------------------------------- averaged identity

def test_average_avoid_identity_uniform():
    dist = FiniteDistribution.uniform(4)
    assert average_avoid_probability(dist, 2, 3) == Fraction(27, 64)


def test_average_avoid_identity_point_mass():
    for text in ("0000", "0110", "1011"):
        dist = point_mass(text)
        assert average_avoid_probability(dist, 2, 3) == Fraction(3, 4) ** 3


def test_average_avoid_identity_small_grid():
    rs = RandomSource(13)
    for n in (1, 2, 3):
        for N in (1, 2, 3, 4):
            if (1 << n) ** N > 1 << 14:
                continue
            x = rs.bits(N + n - 1)
            dist = point_mass(x)
            assert average_avoid_probability(dist, n, N) == \
                (1 - Fraction(1, 1 << n)) ** N


def test_average_avoid_linearity_mixture():
    a, b = "0000", "0110"
    mix = distribution(4, {a: ExactProb(1, 3), b: ExactProb(2, 3)})
    assert average_avoid_probability(mix, 2, 3) == \
        Fraction(1, 3) * Fraction(3, 4) ** 3 + Fraction(2, 3) * Fraction(3, 4) ** 3


def test_average_avoid_rejects_large_enumeration():
    with pytest.raises(ValueError):
        average_avoid_probability(point_mass("0" * 24), 4, 21)


def test_average_avoid_requires_total_mass():
    dist = scaled_to_deficit(FiniteDistribution.uniform(4), ExactProb(1, 8))
    with pytest.raises(ValueError):
        average_avoid_probability(dist, 2, 3)


# ---------------------------------------------------------------- serialization

def test_positional_family_json_round_trip():
    family = PositionalFamily(2, (0b00, 0b10), ExactProb(7, 16))
    doc = family.to_json()
    assert doc == {"window_length": 2, "strings": ["00", "10"], "certificate": "7/16"}
    assert PositionalFamily.from_json(doc) == family
    with pytest.raises(ValueError):
        PositionalFamily(2, (0b00, 0b101))
    # from_json reads only what to_json writes
    for change in ({"strings": [" 00", "10"]}, {"strings": ["0", "10"]},
                   {"window_length": 2.0}, {"certificate": 0.5}):
        with pytest.raises(ValueError):
            PositionalFamily.from_json({**doc, **change})


def test_positional_family_measures_its_strings_before_building_a_window():
    doc = {"window_length": 10 ** 12, "strings": ["00", "10"], "certificate": "7/16"}
    with pytest.raises(ValueError, match="^a forbidden string is not 1000000000000 bits long$"):
        PositionalFamily.from_json(doc)
    # with no strings nothing is built or padded, and the family reads back
    assert PositionalFamily.from_json({"window_length": 10 ** 12, "strings": []}).targets == ()
    # a target is checked against the window length by its bit length
    assert PositionalFamily(10 ** 12, (1 << 40,)).targets == (1 << 40,)
    for targets in ((-1,), (4,)):
        with pytest.raises(ValueError, match="fit the window length"):
            PositionalFamily(2, targets)
