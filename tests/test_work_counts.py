"""Guards on how many Python-level calls the hot paths make, counted rather
than timed, so that a change cannot quietly go back to one call per item.

- A build at the avoid-scan benchmark's size draws its redraws through a few
  RandomSource.bits calls, one per refill of RandomSource.draws, whose
  refills double up to 512 words: not one call per redraw.
- Writing and verifying a 509-row profile report calls the JSON writer and
  the type-strict comparison a small, fixed number of times: not once per
  row.
- Checking that every copy of every source bit of a clean spread agrees
  walks the allocation's runs once.
- A spread, its verify and its check-windows walk the allocation's runs four
  times in all: the spread, verify's replay, the coverage check and the
  copy check.
- Recovering a window's source prefix walks the allocation's runs once.
"""

import contextlib
import io
from fractions import Fraction

from ecseq import cli, core
from ecseq.avoider import AvoidanceInstance, build_avoiding_string
from ecseq.core import RandomSource, write_bit_file
from ecseq.forbidden import random_level_family
from ecseq.spreader import (Allocation, disagreements, inverse_triangular, plan_allocation,
                            recover_prefix, spread_random)


def counting(monkeypatch, owner, name) -> list:
    """Patch owner.name with a wrapper that appends each call's first
    argument to the returned list."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_redraws_take_a_few_bits_calls_in_all(monkeypatch):
    family = random_level_family(Fraction(3, 10), [8, 9, 10, 11, 12], RandomSource(0))
    calls = counting(monkeypatch, RandomSource, "bits")
    result = build_avoiding_string(AvoidanceInstance(family, 1 << 15, 10 ** 6, RandomSource(0)))
    assert result.succeeded and result.resamples > 2000
    # the first draw, then refills of 16, 32, ..., 512 words: about log2 of the
    # first 1008 redraws, one more per 512 redraws after them
    assert len(calls) <= 2 + (result.resamples // 16).bit_length() + result.resamples // 512


def test_a_509_row_profile_report_takes_a_few_writer_and_compare_calls(tmp_path, monkeypatch):
    bits, report = tmp_path / "avoid.bits", tmp_path / "profile.report.json"
    write_bit_file(bits, RandomSource(0).bits(1 << 15))
    written = counting(monkeypatch, cli, "_json_text")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["profile", "--bits", str(bits), "--window", "256", "--stride", "64",
                         "--report", str(report)]) == cli.EXIT_OK
    rows = [value for value in written if isinstance(value, list)]
    assert [len(value) for value in rows] == [509]
    assert len(written) <= 12
    compared = counting(monkeypatch, core, "_same_json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--report", str(report)]) == cli.EXIT_OK
    assert len(compared) <= 24


def test_disagreements_walk_the_runs_of_a_clean_spread_once(monkeypatch):
    alloc = plan_allocation(inverse_triangular())
    omega, _ = spread_random(alloc, RandomSource(1), 1 << 17)
    walks = counting(monkeypatch, Allocation, "_runs")
    assert disagreements(alloc, omega, 1 << 17) == []
    assert len(walks) == 1


def test_a_spread_verify_and_check_windows_chain_walks_the_runs_four_times(tmp_path,
                                                                          monkeypatch):
    bits, alloc, report = (tmp_path / name for name in ("omega.bits", "alloc.json",
                                                        "spread.report.json"))
    walks = counting(monkeypatch, Allocation, "_runs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["spread", "--weights", "inverse-triangular", "--length",
                         str(1 << 17), "--seed", "1", "--out", str(bits), "--alloc-out",
                         str(alloc), "--report", str(report)]) == cli.EXIT_OK
        assert cli.main(["verify", "--report", str(report)]) == cli.EXIT_OK
        assert cli.main(["check-windows", "--bits", str(bits), "--alloc", str(alloc),
                         "--m-max", "10", "--samples", "20"]) == cli.EXIT_OK
    assert len(walks) == 4


def test_recovering_a_prefix_walks_the_runs_once(monkeypatch):
    alloc = plan_allocation(inverse_triangular())
    omega, tau = spread_random(alloc, RandomSource(1), 1 << 12)
    walks = counting(monkeypatch, Allocation, "_runs")
    m = alloc.start_level + 2
    size = 1 << m
    assert recover_prefix(alloc, omega[5:5 + size], 5 % size, m) \
        == tau[:alloc.source_count_through(m)]
    assert len(walks) == 1
