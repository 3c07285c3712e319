import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ecseq
from ecseq import adversary, cli, forbidden, spreader
from ecseq.core import (SIZE_LIMIT_BITS, FiniteDistribution, RandomSource, frac_to_str,
                        read_bit_file, write_bit_file)

from oracles import flip, json_dump_text, oracle_disagreements, oracle_sampled_recovery


def run(*argv):
    return cli.main(list(argv))


def run_capped(*argv, memory=1 << 30, timeout=60):
    """Run `python -m ecseq.cli` in a subprocess whose address space is capped
    at `memory` bytes, so that a run which builds a huge integer fails at once
    with a MemoryError instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    src = str(Path(ecseq.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "ecseq.cli", *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap,
                          capture_output=True, text=True, timeout=timeout)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def spread_run(tmp_path):
    bits = tmp_path / "omega.bits"
    alloc = tmp_path / "alloc.json"
    report = tmp_path / "spread.report.json"
    code = run("spread", "--weights", "inverse-triangular", "--length", "8192",
               "--seed", "1", "--out", str(bits), "--alloc-out", str(alloc),
               "--report", str(report))
    assert code == cli.EXIT_OK
    return bits, alloc, report


def test_spread_deterministic_rerun(tmp_path, spread_run):
    bits, _, _ = spread_run
    again = tmp_path / "again.bits"
    assert run("spread", "--weights", "inverse-triangular", "--length", "8192",
               "--seed", "1", "--out", str(again)) == cli.EXIT_OK
    assert bits.read_bytes() == again.read_bytes()
    other_seed = tmp_path / "other.bits"
    assert run("spread", "--weights", "inverse-triangular", "--length", "8192",
               "--seed", "2", "--out", str(other_seed)) == cli.EXIT_OK
    assert bits.read_bytes() != other_seed.read_bytes()


def test_spread_bad_preset(tmp_path):
    assert run("spread", "--weights", "bogus", "--length", "64",
               "--out", str(tmp_path / "x.bits")) == cli.EXIT_BAD_PARAMS


def test_spread_m0_override_below_certified(tmp_path):
    assert run("spread", "--weights", "inverse-triangular", "--length", "64",
               "--m0", "4", "--out", str(tmp_path / "x.bits")) == cli.EXIT_BAD_PARAMS


def test_check_windows_clean_and_tampered(tmp_path, spread_run, capsys):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "10", "--samples", "20") == cli.EXIT_OK
    # flip one early bit: it repeats inside larger windows, so recovery must trip
    bad = tmp_path / "bad.bits"
    write_bit_file(bad, flip(read_bit_file(bits), [0]))
    capsys.readouterr()
    assert run("check-windows", "--bits", str(bad), "--alloc", str(alloc),
               "--m-max", "10", "--samples", "20") == cli.EXIT_VERIFY_FAILED
    # the header counts faults and positions by name: 31 of the 32 copies of
    # source bit 0 outvote the flipped first copy, which is the one named
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("check-windows: 0 coverage fault(s), 1 position(s) disagree with "
                        "other copies of their source bit")
    assert lines[1] == "  {'position': 0, 'source_bit': 0, 'disagrees_with_position': 256}"


def test_check_windows_of_a_random_file_keeps_within_112_mib(tmp_path):
    # about a third of the 2**20 positions of random bits disagree; with one
    # dict per disagreeing position the check needed about 146 MiB of address
    # space, with one tuple about 74 MiB (Python 3.11, Linux x86-64)
    bits, alloc = tmp_path / "random.bits", tmp_path / "alloc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("spread", "--weights", "inverse-triangular", "--length", str(1 << 20),
                   "--seed", "1", "--out", str(tmp_path / "omega.bits"),
                   "--alloc-out", str(alloc)) == cli.EXIT_OK
    write_bit_file(bits, RandomSource(99).bits(1 << 20))
    done = run_capped("check-windows", "--bits", bits, "--alloc", alloc, "--m-max", "20",
                      memory=112 << 20)
    assert (done.returncode, done.stderr) == (cli.EXIT_VERIFY_FAILED, "")
    allocation = spreader.Allocation.from_export(read_json(alloc), 1 << 20)
    found = spreader.disagreements(allocation, read_bit_file(bits), 1 << 20)
    fields = ("position", "source_bit", "disagrees_with_position")
    assert done.stdout.splitlines() == [
        f"check-windows: 0 coverage fault(s), {len(found)} position(s) disagree with other "
        f"copies of their source bit", *(f"  {dict(zip(fields, d))}" for d in found[:20])]


@pytest.mark.parametrize("tamper", ["random", "three flips"])
def test_check_windows_prints_the_copies_the_oracle_names(tmp_path, spread_run, capsys, tamper):
    # a random file, whose copies disagree almost everywhere, and three flips of
    # a spread, one of them of source bit 0's first copy, which its other 31
    # copies outvote
    bits, alloc, _ = spread_run
    omega = read_bit_file(bits)
    text = RandomSource(99).bits(len(omega)) if tamper == "random" else flip(omega, [0, 777, 2500])
    bad = tmp_path / "bad.bits"
    write_bit_file(bad, text)
    capsys.readouterr()
    assert run("check-windows", "--bits", str(bad), "--alloc", str(alloc),
               "--m-max", "13") == cli.EXIT_VERIFY_FAILED
    found = oracle_disagreements(spreader.Allocation.from_export(read_json(alloc), len(text)),
                                 text, len(text))
    if tamper == "random":
        assert len(found) > 1000
    else:  # the flipped first copy is the one named
        assert len(found) == 3 and found[0] == (0, 0, 256)
    fields = ("position", "source_bit", "disagrees_with_position")
    assert capsys.readouterr().out.splitlines() == [
        f"check-windows: 0 coverage fault(s), {len(found)} position(s) disagree with other "
        f"copies of their source bit", *(f"  {dict(zip(fields, d))}" for d in found[:20])]


def test_check_windows_mmax_below_start(tmp_path, spread_run, capsys):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "3") == cli.EXIT_OK
    assert "warning" in capsys.readouterr().out


def test_check_windows_decodes_no_window(tmp_path, spread_run, monkeypatch):
    # the proof covers every window, so no window is decoded or drawn at random
    def forbidden_call(*args):
        raise AssertionError("check-windows decoded a window or drew a random start")

    bits, alloc, _ = spread_run
    monkeypatch.setattr(spreader, "recover_prefix", forbidden_call)
    monkeypatch.setattr(cli, "RandomSource", forbidden_call)
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "13", "--samples", "20", "--seed", "5") == cli.EXIT_OK
    bad = tmp_path / "bad.bits"
    write_bit_file(bad, flip(read_bit_file(bits), [3]))
    assert run("check-windows", "--bits", str(bad), "--alloc", str(alloc),
               "--m-max", "13") == cli.EXIT_VERIFY_FAILED


@pytest.mark.parametrize("preset", ["inverse-triangular", "geometric:1/3", "zero"])
@pytest.mark.parametrize("length", [700, 1 << 13])
def test_clean_spread_files_pass_the_sampled_recovery_oracle(tmp_path, preset, length):
    bits, alloc = tmp_path / "omega.bits", tmp_path / "alloc.json"
    assert run("spread", "--weights", preset, "--length", str(length), "--seed", "4",
               "--out", str(bits), "--alloc-out", str(alloc)) == cli.EXIT_OK
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "13") == cli.EXIT_OK
    allocation = spreader.Allocation.from_export(read_json(alloc), length)
    top = length.bit_length() - 1
    assert oracle_sampled_recovery(allocation, read_bit_file(bits), length, top, 20, 4) == []


def test_sampled_recovery_flags_nothing_the_proof_misses(spread_run):
    bits, alloc, _ = spread_run
    clean = read_bit_file(bits)
    allocation = spreader.Allocation.from_export(read_json(alloc), len(clean))
    usable, top = len(clean), 12
    faults = spreader.coverage_faults(allocation, usable, top)  # flips leave it unchanged
    rng = random.Random(12)
    sampled_flags = 0
    for trial in range(36):
        tampered = flip(clean, rng.sample(range(usable), rng.randint(1, 3)))
        proof = faults + spreader.disagreements(allocation, tampered, usable)
        sampled = oracle_sampled_recovery(allocation, tampered, usable, top, 20, trial)
        assert proof or not sampled, (trial, sampled)
        sampled_flags += bool(sampled)
    assert sampled_flags  # the oracle did flag some of the flips


def test_spread_report_verifies(spread_run):
    _, _, report = spread_run
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_spread_report_tamper_fails_verify(tmp_path, spread_run):
    _, _, report = spread_run
    doc = read_json(report)
    doc["results"]["output_sha256"] = "0" * 64
    bad = tmp_path / "tampered.json"
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert run("verify", "--report", str(bad)) == cli.EXIT_VERIFY_FAILED


def test_family_two_level_report(tmp_path):
    out = tmp_path / "family.json"
    report = tmp_path / "family.report.json"
    assert run("family", "--alpha", "3/5", "--epsilon", "1/2", "--n-min", "2",
               "--seed", "3", "--out", str(out), "--report", str(report)) == cli.EXIT_OK
    doc = read_json(report)
    assert doc["results"]["random_length"] == 2
    assert doc["results"]["top_length"] == 26
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_family_steps_past_a_random_length_no_top_can_fit(tmp_path):
    # at n = 3, ceil(n/2) = 2 >= 9/5 = alpha*n, so no top over 3-bit blocks
    # fits its size bound; a subprocess, so a search that never ends times out
    report = tmp_path / "family.report.json"
    done = run_capped("family", "--alpha", "3/5", "--n-min", "3", "--report", report)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert read_json(report)["results"]["random_length"] == 4
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_family_derandomize_and_schedule(tmp_path):
    dist = tmp_path / "dist.json"
    with open(dist, "w") as fh:
        json.dump(FiniteDistribution.uniform(10).to_json(), fh)
    report = tmp_path / "derand.report.json"
    assert run("family", "--alpha", "9/10", "--epsilon", "1/4",
               "--derandomize", str(dist), "--level-length", "5",
               "--seed", "5", "--report", str(report)) == cli.EXIT_OK
    assert run("verify", "--report", str(report)) == cli.EXIT_OK

    report2 = tmp_path / "schedule.report.json"
    assert run("family", "--alpha", "9/10", "--schedule", "3", "--seed", "11",
               "--report", str(report2)) == cli.EXIT_OK
    doc = read_json(report2)
    assert len(doc["results"]["intervals"]) == 3
    assert run("verify", "--report", str(report2)) == cli.EXIT_OK


def test_adversary_uniform_toy(tmp_path):
    dist = tmp_path / "dist.json"
    with open(dist, "w") as fh:
        json.dump(FiniteDistribution.uniform(4).to_json(), fh)
    out = tmp_path / "adversary.json"
    report = tmp_path / "adversary.report.json"
    assert run("adversary", "--dist", str(dist), "--n", "2", "--epsilon", "1/2",
               "--out", str(out), "--report", str(report)) == cli.EXIT_OK
    doc = read_json(report)
    assert doc["parameters"]["n"] == 2
    assert doc["results"]["N"] == 3
    assert doc["certificates"]["avoid_probability"] == "7/16"
    assert doc["results"]["family"]["strings"] == ["00", "00", "10"]
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_family_levels_avoid_loop(tmp_path):
    family = tmp_path / "family.json"
    report = tmp_path / "levels.report.json"
    assert run("family", "--alpha", "3/10", "--levels", "8,9,10", "--seed", "42",
               "--out", str(family), "--report", str(report)) == cli.EXIT_OK
    assert run("verify", "--report", str(report)) == cli.EXIT_OK
    out = tmp_path / "y.bits"
    avoid_report = tmp_path / "avoid.report.json"
    assert run("avoid", "--family", str(family), "--length", "2000", "--seed", "5",
               "--out", str(out), "--report", str(avoid_report)) == cli.EXIT_OK
    assert run("verify", "--report", str(avoid_report)) == cli.EXIT_OK


def test_avoid_success_and_verify(tmp_path):
    family = tmp_path / "family.json"
    with open(family, "w") as fh:
        json.dump({"alpha": "1/1", "levels": [
            {"length": 3, "kind": "sampled",
             "strings_hex": ["0", "7"], "pool_chain": [], "pool_size": "8"},
        ]}, fh)
    out = tmp_path / "x.bits"
    report = tmp_path / "avoid.report.json"
    assert run("avoid", "--family", str(family), "--length", "200", "--seed", "4",
               "--out", str(out), "--report", str(report)) == cli.EXIT_OK
    text = read_bit_file(out)
    assert "000" not in text and "111" not in text
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_avoid_unsatisfiable_budget_exit(tmp_path):
    family = tmp_path / "family.json"
    with open(family, "w") as fh:
        json.dump({"alpha": "1/1", "levels": [
            {"length": 1, "kind": "sampled",
             "strings_hex": ["0", "1"], "pool_chain": [], "pool_size": "2"},
        ]}, fh)
    assert run("avoid", "--family", str(family), "--length", "8", "--seed", "0",
               "--budget", "50") == cli.EXIT_BUDGET


def test_profile_and_verify(tmp_path):
    bits = tmp_path / "x.bits"
    write_bit_file(bits, "01" * 200)
    report = tmp_path / "profile.report.json"
    csv = tmp_path / "profile.csv"
    assert run("profile", "--bits", str(bits), "--window", "64", "--stride", "16",
               "--report", str(report), "--csv", str(csv)) == cli.EXIT_OK
    assert csv.read_text().startswith("offset,bits\n")
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_verify_unknown_report(tmp_path):
    path = tmp_path / "odd.json"
    with open(path, "w") as fh:
        json.dump({"command": "mystery"}, fh)
    assert run("verify", "--report", str(path)) == cli.EXIT_BAD_PARAMS


def test_missing_file_is_bad_params(tmp_path):
    assert run("profile", "--bits", str(tmp_path / "nope.bits"),
               "--window", "8") == cli.EXIT_BAD_PARAMS


# ------------------------------------------------- every report kind, end to end

@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One report of every kind, written by the commands themselves."""
    d = tmp_path_factory.mktemp("reports")
    with open(d / "u4.json", "w") as fh:
        json.dump(FiniteDistribution.uniform(4).to_json(), fh)
    with open(d / "u8.json", "w") as fh:
        json.dump(FiniteDistribution.uniform(8).to_json(), fh)
    write_bit_file(d / "x.bits", "0110" * 100)
    commands = {
        "spread": ["spread", "--length", "4096", "--seed", "1", "--out", d / "s.bits"],
        "family": ["family", "--alpha", "3/5", "--epsilon", "1/2", "--n-min", "2",
                   "--seed", "3"],
        "family-levels": ["family", "--alpha", "3/10", "--levels", "8,9,10", "--seed", "42",
                          "--out", d / "levels.json"],
        "family-derandomize": ["family", "--alpha", "9/10", "--epsilon", "1/4",
                               "--derandomize", d / "u8.json", "--seed", "5"],
        "family-schedule": ["family", "--alpha", "9/10", "--schedule", "2", "--seed", "11"],
        "adversary": ["adversary", "--dist", d / "u4.json", "--n", "2", "--epsilon", "1/2"],
        "avoid": ["avoid", "--family", d / "levels.json", "--length", "1000", "--seed", "5"],
        "profile": ["profile", "--bits", d / "x.bits", "--window", "64", "--stride", "48"],
    }
    paths = {}
    for kind, argv in commands.items():
        paths[kind] = d / f"{kind}.report.json"
        assert run(*map(str, argv), "--report", str(paths[kind])) == cli.EXIT_OK
        assert read_json(paths[kind])["command"] == kind
    return paths


def leaves(node, path=()):
    """(path, value) of every scalar inside a JSON value."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from leaves(child, path + (index,))
    else:
        yield path, node


def altered(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    return 0


def verify_doc(tmp_path, doc):
    path = tmp_path / "report.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return run("verify", "--report", str(path))


@pytest.mark.parametrize("kind", sorted(cli.KINDS))
def test_every_report_kind_round_trips(reports, kind, monkeypatch):
    # the search kinds are re-certified from their witness, never searched again
    for owner, name in ((adversary, "truncated_search"), (forbidden, "derandomize_family"),
                        (forbidden, "interval_schedule")):
        monkeypatch.setattr(owner, name, None)
    assert run("verify", "--report", str(reports[kind])) == cli.EXIT_OK


@pytest.mark.parametrize("kind", sorted(cli.KINDS))
def test_reports_are_written_as_json_dump_writes_them(reports, kind, tmp_path):
    written = reports[kind].read_bytes()
    doc = json.loads(written)
    reference = io.StringIO()
    json.dump(doc, reference, indent=2, sort_keys=True)
    reference.write("\n")
    assert written == reference.getvalue().encode()
    cli._write_json(tmp_path / "again.json", doc)
    assert (tmp_path / "again.json").read_bytes() == written


# every other file _write_json writes: the command that writes it to {out}
WRITTEN_FILES = {
    "allocation": ["spread", "--length", "4096", "--seed", "1", "--out", "{dir}/s.bits",
                   "--alloc-out", "{out}"],
    "two-level family": ["family", "--alpha", "3/5", "--epsilon", "1/2", "--n-min", "2",
                         "--seed", "3", "--out", "{out}"],
    "level family": ["family", "--alpha", "3/10", "--levels", "8,9,10", "--seed", "42",
                     "--out", "{out}"],
    "derandomized family": ["family", "--alpha", "9/10", "--epsilon", "1/4",
                            "--derandomize", "{dir}/u8.json", "--seed", "5", "--out", "{out}"],
    "schedule family": ["family", "--alpha", "9/10", "--schedule", "2", "--seed", "11",
                        "--out", "{out}"],
    "positional family": ["adversary", "--dist", "{dir}/u4.json", "--n", "2", "--epsilon",
                          "1/2", "--out", "{out}"],
}


@pytest.mark.parametrize("form", sorted(WRITTEN_FILES))
def test_every_file_is_written_as_json_dump_writes_it(tmp_path, form):
    for length in (4, 8):
        with open(tmp_path / f"u{length}.json", "w") as fh:
            json.dump(FiniteDistribution.uniform(length).to_json(), fh)
    out = tmp_path / "out.json"
    argv = [a.format(dir=tmp_path, out=out) for a in WRITTEN_FILES[form]]
    assert run(*argv) == cli.EXIT_OK
    assert out.read_text() == json_dump_text(read_json(out))


@pytest.mark.parametrize("kind, argv", [
    ("adversary", ["adversary", "--dist", "{dist}", "--n", "2", "--epsilon", "1/2"]),
    ("family-derandomize", ["family", "--alpha", "9/10", "--epsilon", "1/4",
                            "--derandomize", "{dist}", "--seed", "5"]),
])
def test_search_commands_parse_their_distribution_once(tmp_path, monkeypatch, kind, argv):
    # the support listed in reverse of the order the report writes it
    doc = FiniteDistribution.uniform(4 if kind == "adversary" else 8).to_json()
    doc["masses"] = dict(reversed(list(doc["masses"].items())))
    with open(tmp_path / "dist.json", "w") as fh:
        json.dump(doc, fh)
    parse, parses = FiniteDistribution.from_json, []
    monkeypatch.setattr(FiniteDistribution, "from_json",
                        classmethod(lambda cls, d: parses.append(d) or parse(d)))
    report = tmp_path / "report.json"
    assert run(*(a.format(dist=tmp_path / "dist.json") for a in argv),
               "--report", str(report)) == cli.EXIT_OK
    assert len(parses) == 1
    # the report is what the kind's own run derives from the copy it records
    written = read_json(report)
    values, _ = cli._parameters(cli.KINDS[kind], written["parameters"])
    assert list(cli.KINDS[kind].run(values, written["seed"])[:2]) \
        == [written["results"], written["certificates"]]


# parameters that a command derives from the others, so verify re-derives them
DERIVED_PARAMETERS = {"spread": ("certified_start_level",),
                      "profile": ("bits_sha256", "bit_count")}


@pytest.mark.parametrize("kind", sorted(cli.KINDS))
def test_every_altered_field_fails_verify(reports, kind, tmp_path):
    doc = read_json(reports[kind])
    fields = [(section, path, value) for section in ("results", "certificates")
              for path, value in leaves(doc[section])]
    fields += [("parameters", (key,), doc["parameters"][key])
               for key in DERIVED_PARAMETERS.get(kind, ())]
    for section, path, value in fields:
        bad = copy.deepcopy(doc)
        node = bad[section]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = altered(value)
        assert verify_doc(tmp_path, bad) == cli.EXIT_VERIFY_FAILED, (section, path)
    for key in cli.REPORT_KEYS:
        bad = dict(doc)
        del bad[key]
        assert verify_doc(tmp_path, bad) == cli.EXIT_BAD_PARAMS, key


@pytest.mark.parametrize("doc", [[1, 2], "report", {"command": "spread"}])
def test_verify_rejects_documents_that_are_not_reports(tmp_path, doc):
    assert verify_doc(tmp_path, doc) == cli.EXIT_BAD_PARAMS


def test_verify_fails_a_report_whose_replay_raises(reports, tmp_path, capsys):
    for kind, section, key, value in (("spread", "parameters", "max_level", 3),
                                      ("spread", "parameters", "weights", 5),
                                      ("family", "parameters", "alpha", "1/0"),
                                      ("adversary", "results", "family", []),
                                      ("adversary", "results", "family", "x"),
                                      # a rational or a length read as a JSON number
                                      ("family-levels", "parameters", "alpha", 0.3),
                                      ("family-levels", "parameters", "lengths", [8.0, 9]),
                                      ("family-levels", "parameters", "lengths", [True, 9]),
                                      ("family", "parameters", "epsilon", 0.5),
                                      # interval 2's top length is 6
                                      ("family-schedule", "parameters", "max_length", 5),
                                      # a witness family of a shape no command writes
                                      ("family-derandomize", "results", "family",
                                       TWO_TOPS_FAMILY),
                                      ("family-derandomize", "results", "family",
                                       LOW_TOP_FAMILY),
                                      # a positional family no command writes
                                      ("adversary", "results", "family",
                                       {**ADVERSARY_FAMILY, "note": "x"}),
                                      ("adversary", "results", "family",
                                       {**ADVERSARY_FAMILY, "certificate": "14/32"})):
        doc = read_json(reports[kind])
        doc[section][key] = value
        capsys.readouterr()
        assert verify_doc(tmp_path, doc) == cli.EXIT_VERIFY_FAILED, (kind, key, value)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "verify: FAIL the report does not reproduce: "), lines


def verify_lines(tmp_path, capsys, doc) -> tuple:
    capsys.readouterr()
    code = verify_doc(tmp_path, doc)
    return code, capsys.readouterr().out.splitlines()


# (report kind, top-level key, the value it is set to, the one line verify prints)
ENVELOPE_FAULTS = [
    ("avoid", "extra", "unchecked claim", "verify: FAIL top-level key 'extra' is not a report key"),
    ("profile", "extra", None, "verify: FAIL top-level key 'extra' is not a report key"),
    ("avoid", "seed", True, "verify: FAIL seed must be an integer for avoid, got True"),
    ("spread", "seed", 1.0, "verify: FAIL seed must be an integer for spread, got 1.0"),
    ("family", "seed", None, "verify: FAIL seed must be an integer for family, got None"),
    ("family-levels", "seed", "42", "verify: FAIL seed must be an integer for family-levels, "
     "got '42'"),
    ("adversary", "seed", 0, "verify: FAIL seed must be null for adversary, got 0"),
    ("profile", "seed", False, "verify: FAIL seed must be null for profile, got False"),
    ("avoid", "wall_time_s", "soon", "verify: FAIL wall_time_s must be a non-negative number, "
     "got 'soon'"),
    ("avoid", "wall_time_s", True, "verify: FAIL wall_time_s must be a non-negative number, "
     "got True"),
    ("adversary", "wall_time_s", -0.5, "verify: FAIL wall_time_s must be a non-negative number, "
     "got -0.5"),
    ("family-schedule", "wall_time_s", None, "verify: FAIL wall_time_s must be a non-negative "
     "number, got None"),
    ("family-derandomize", "wall_time_s", float("nan"), "verify: FAIL wall_time_s must be a "
     "non-negative number, got nan"),
]


@pytest.mark.parametrize("kind, key, value, line", ENVELOPE_FAULTS)
def test_verify_fails_a_report_whose_envelope_is_not_what_commands_write(
        reports, tmp_path, capsys, kind, key, value, line):
    doc = read_json(reports[kind])
    doc[key] = value
    assert verify_lines(tmp_path, capsys, doc) == (cli.EXIT_VERIFY_FAILED, [line])


def test_verify_names_every_envelope_fault_and_takes_any_integer_seed(reports, tmp_path, capsys):
    doc = {**read_json(reports["avoid"]), "seed": None, "wall_time_s": "soon", "z": 1, "a": 2}
    code, lines = verify_lines(tmp_path, capsys, doc)
    assert code == cli.EXIT_VERIFY_FAILED and len(lines) == 4, lines
    # a zero wall time is fine, and a seed is checked by replay, not by its range
    doc = {**read_json(reports["spread"]), "wall_time_s": 0}
    assert verify_lines(tmp_path, capsys, doc) == (cli.EXIT_OK, ["verify: OK (spread)"])
    doc["seed"] = 2
    code, lines = verify_lines(tmp_path, capsys, doc)
    assert code == cli.EXIT_VERIFY_FAILED and lines[0].startswith("verify: FAIL results."), lines


def test_verify_fails_a_profile_report_whose_bits_text_is_not_a_string(reports, tmp_path,
                                                                        capsys):
    doc = read_json(reports["profile"])
    doc["parameters"]["bits_text"] = 5
    assert verify_lines(tmp_path, capsys, doc) == (cli.EXIT_VERIFY_FAILED, [
        "verify: FAIL the report does not reproduce: ValueError: expected a JSON str, got 5"])


def test_verify_fails_a_spread_report_of_a_negative_length(reports, tmp_path, capsys):
    # the results and certificates of an empty spread, which a spread of -5
    # bits would also give if its length were not refused
    doc = read_json(reports["spread"])
    doc["parameters"]["length"] = 0
    doc["results"], doc["certificates"] = cli.KINDS["spread"].run(doc["parameters"],
                                                                  doc["seed"])[:2]
    assert verify_lines(tmp_path, capsys, doc) == (cli.EXIT_OK, ["verify: OK (spread)"])
    doc["parameters"]["length"] = -5
    assert verify_lines(tmp_path, capsys, doc) == (cli.EXIT_VERIFY_FAILED, [
        "verify: FAIL the report does not reproduce: ValueError: bad range"])


REPRODUCE_FAIL ="verify: FAIL the report does not reproduce: "

# (report kind, parameter, what it is set to given its value, or None to delete
# it, and the one line verify prints): parameters no command writes
PARAMETER_PROBES = [
    ("avoid", "extra", lambda _: "unchecked claim",
     "verify: FAIL parameters.extra does not reproduce"),
    ("avoid", "budget", float,
     REPRODUCE_FAIL + "ValueError: expected a JSON int, got 1000000.0"),
    ("avoid", "budget", lambda _: True,
     REPRODUCE_FAIL + "ValueError: expected a JSON int, got True"),
    ("avoid", "budget", None, REPRODUCE_FAIL + "KeyError: 'budget'"),
    ("family-levels", "lengths", lambda lengths: lengths[::-1],
     "verify: FAIL parameters.lengths does not reproduce"),
    ("family", "alpha", lambda _: "6/10", "verify: FAIL parameters.alpha does not reproduce"),
    # a float length once reached core.pow2_floor and ran out of memory
    ("family", "n_min", lambda _: 8.0, REPRODUCE_FAIL + "ValueError: expected a JSON int, got 8.0"),
    ("adversary", "epsilon", lambda _: "2/4", "verify: FAIL parameters.epsilon does not reproduce"),
    ("family-derandomize", "dist",
     lambda dist: {**dist, "masses": {**dist["masses"], "00000000": "2/512"}},
     REPRODUCE_FAIL + 'ValueError: distribution masses.00000000 must be "a/b" in lowest terms '
     "with 0 < a <= b, got '2/512'"),
    ("spread", "format", lambda _: "zip",
     REPRODUCE_FAIL + "ValueError: expected one of ascii, packed, got 'zip'"),
    # an alpha above 1 once built 2**(alpha * level_length) before failing
    ("family-derandomize", "alpha", lambda _: "1024/1",
     REPRODUCE_FAIL + "ValueError: alpha 1024/1 is not in (0, 1]"),
]


@pytest.mark.parametrize("kind, key, change, line", PARAMETER_PROBES)
def test_verify_reads_every_parameter_by_its_exact_type_and_canonical_form(
        reports, tmp_path, kind, key, change, line):
    doc = read_json(reports[kind])
    if change is None:
        del doc["parameters"][key]
    else:
        doc["parameters"][key] = change(doc["parameters"].get(key))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    # in a capped subprocess, so that a parameter read loosely cannot exhaust memory
    done = run_capped("verify", "--report", path)
    assert (done.returncode, done.stdout.splitlines(), done.stderr) \
        == (cli.EXIT_VERIFY_FAILED, [line], "")


def test_a_schedule_tries_top_lengths_up_to_24_unless_told(tmp_path):
    report = tmp_path / "schedule.report.json"
    assert run("family", "--alpha", "9/10", "--schedule", "1", "--report", str(report)) \
        == cli.EXIT_OK
    assert read_json(report)["parameters"]["max_length"] == 24


UNIFORM_2 = {"length": 2, "masses": {"00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"},
             "deficit": "0/1"}
UNIFORM_4 = {"length": 4, "masses": {format(i, "04b"): "1/16" for i in range(16)},
             "deficit": "0/1"}
SMALL_FAMILY = {"alpha": "1/2", "levels": [{"length": 4, "kind": "sampled", "strings_hex": ["0"],
                                            "pool_chain": [], "pool_size": "16"}]}
# SMALL_FAMILY with two implicit levels, or with one no longer than its sampled level
IMPLICIT_LEVEL = {"kind": "implicit", "chain": [[1, 1]], "cardinality": "2"}
TWO_TOPS_FAMILY = {**SMALL_FAMILY, "levels": SMALL_FAMILY["levels"] + [
    {**IMPLICIT_LEVEL, "length": 8}, {**IMPLICIT_LEVEL, "length": 12}]}
LOW_TOP_FAMILY = {**SMALL_FAMILY,
                  "levels": SMALL_FAMILY["levels"] + [{**IMPLICIT_LEVEL, "length": 4}]}
# the positional family of the adversary report on the uniform 4-bit strings
ADVERSARY_FAMILY = {"window_length": 2, "strings": ["00", "00", "10"], "certificate": "7/16"}
EMPTY_ALLOCATION = {"start_level": 8, "max_level": 64, "cap": 8192, "least_uncovered": 0,
                    "source_total": 0, "levels": []}
# the allocation of the first 32 positions of an inverse-triangular spread
ONE_LEVEL_ALLOCATION = {"start_level": 8, "max_level": 64, "cap": 8192, "least_uncovered": 68,
                        "source_total": 68, "levels": [{"level": 8, "count": 68,
                                                        "source_base": 0,
                                                        "assigned": [[0, 68]]}]}


# --levels values that are not integers joined by commas
BAD_LEVEL_LISTS = ["x", "8,,9"]


@pytest.mark.parametrize("document, argv", [
    ({"alpha": "1/2"}, ["avoid", "--family", "{doc}", "--length", "10"]),
    ({"length": 2, "masses": ["00"], "deficit": "0/1"},
     ["adversary", "--dist", "{doc}", "--n", "1", "--epsilon", "1/2"]),
    (None, ["profile", "--bits", "{dir}", "--window", "4"]),
    (None, ["profile", "--bits", "{bits}", "--window", "0"]),
    (None, ["spread", "--length", "8192", "--max-level", "9", "--out", "{dir}/x.bits"]),
    (None, ["family", "--alpha", "1/0"]),
    (None, ["family", "--alpha", "3/5", "--epsilon", "1/0"]),
    ({"length": 1, "masses": {"0": "1/1"}, "deficit": "0/1"},
     ["adversary", "--dist", "{doc}", "--n", "1", "--epsilon", "1/0"]),
    ({"length": 1, "masses": {"0": "1/0"}, "deficit": "0/1"},
     ["adversary", "--dist", "{doc}", "--n", "1", "--epsilon", "1/2"]),
    ({"alpha": "1/1", "levels": [{"length": 0, "kind": "sampled", "strings_hex": ["0"],
                                  "pool_size": "1"}]}, ["avoid", "--family", "{doc}",
                                                        "--length", "10"]),
    (None, ["family", "--alpha", "3/5", "--schedule", "0"]),
    (None, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12",
            "--samples", "0"]),
    (None, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12",
            "--samples", "-3"]),
    ({}, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"]),
    ([1, 2], ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"]),
    ({"start_level": 1, "max_level": 4, "cap": 8192, "least_uncovered": None,
      "levels": [{"level": 1, "count": "x", "source_base": 0, "assigned": []}]},
     ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"]),
    (None, ["spread", "--length", "-1", "--out", "{dir}/x.bits"]),
    (None, ["spread", "--length", "64", "--m0", "-1", "--out", "{dir}/x.bits"]),
    # a family whose pool or chain is not the one stage every command writes
    ({"alpha": "1/1", "levels": [{"length": 4, "kind": "implicit", "chain": [[2, 1], [4, 1]],
                                  "cardinality": "4"}]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    ({"alpha": "1/1", "levels": [{"length": 4, "kind": "implicit", "chain": [],
                                  "cardinality": "4"}]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    ({"alpha": "1/1", "levels": [{"length": 3, "kind": "sampled", "strings_hex": ["0"],
                                  "pool_chain": [[2, 1]], "pool_size": "8"}]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    ({"alpha": "1/1", "levels": [{"length": 3, "kind": "sampled", "strings_hex": ["0"],
                                  "pool_chain": [], "pool_size": "4"}]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    # conflicting family modes, and a level length with nothing to derandomize
    (None, ["family", "--alpha", "3/5", "--schedule", "1", "--levels", "8"]),
    (None, ["family", "--alpha", "3/10", "--levels", "8", "--derandomize",
            "{dir}/nofile.json"]),
    (UNIFORM_2, ["family", "--alpha", "3/5", "--schedule", "1", "--derandomize", "{doc}"]),
    (None, ["family", "--alpha", "3/5", "--level-length", "8"]),
    (None, ["family", "--alpha", "3/10", "--levels", "8", "--level-length", "8"]),
    # a least random length below 1, in both modes that read --n-min
    (None, ["family", "--alpha", "3/5", "--n-min", "-5"]),
    (None, ["family", "--alpha", "3/5", "--schedule", "1", "--n-min", "-3"]),
    # a level length no draw below the distribution's length admits
    (UNIFORM_4, ["family", "--alpha", "3/5", "--derandomize", "{doc}", "--level-length", "0"]),
    (UNIFORM_4, ["family", "--alpha", "3/5", "--derandomize", "{doc}", "--level-length", "9"]),
    # every other size flag given a negative value, one flag each
    (None, ["spread", "--length", "64", "--max-level", "-1", "--out", "{dir}/x.bits"]),
    (UNIFORM_4, ["family", "--alpha", "3/5", "--derandomize", "{doc}", "--level-length", "-1"]),
    (None, ["family", "--alpha", "3/5", "--schedule", "-2"]),
    (None, ["family", "--alpha", "3/5", "--schedule", "1", "--max-length", "-1"]),
    (None, ["family", "--alpha", "3/5", "--levels", "-3"]),
    (UNIFORM_2, ["adversary", "--dist", "{doc}", "--n", "-1", "--epsilon", "1/2"]),
    (SMALL_FAMILY, ["avoid", "--family", "{doc}", "--length", "-5"]),
    (SMALL_FAMILY, ["avoid", "--family", "{doc}", "--length", "10", "--budget", "-1"]),
    (None, ["profile", "--bits", "{bits}", "--window", "-4"]),
    (None, ["profile", "--bits", "{bits}", "--window", "4", "--stride", "-1"]),
    (EMPTY_ALLOCATION, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}",
                        "--m-max", "-1"]),
    # a distribution length that is not an integer, or a mass that is not a string
    *((doc, argv) for doc in ({**UNIFORM_2, "length": 2.0},
                              {**UNIFORM_2, "length": True},
                              {**UNIFORM_2, "masses": {"00": 0.5, "11": 0.5}})
      for argv in (["adversary", "--dist", "{doc}", "--n", "1", "--epsilon", "1/2"],
                   ["family", "--alpha", "3/5", "--derandomize", "{doc}"])),
    # a family whose alpha, level length or strings_hex is not of its JSON type
    *(({**SMALL_FAMILY, "alpha": alpha}, ["avoid", "--family", "{doc}", "--length", "10"])
      for alpha in (0.3, 1)),
    *(({"alpha": "1/1", "levels": [{**SMALL_FAMILY["levels"][0], **level}]},
       ["avoid", "--family", "{doc}", "--length", "10"])
      for level in ({"length": True, "pool_size": "2"}, {"strings_hex": "0102"})),
    *((family, ["avoid", "--family", "{doc}", "--length", "10"])
      for family in (TWO_TOPS_FAMILY, LOW_TOP_FAMILY)),
    # an allocation whose integers are not all JSON integers
    *((allocation, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"])
      for allocation in (*({**ONE_LEVEL_ALLOCATION, key: float(ONE_LEVEL_ALLOCATION[key])}
                           for key in ("start_level", "max_level", "cap", "least_uncovered")),
                         *({**ONE_LEVEL_ALLOCATION,
                            "levels": [{**ONE_LEVEL_ALLOCATION["levels"][0], **level}]}
                           for level in ({"level": 8.0}, {"count": 68.0}, {"source_base": 0.0},
                                         {"assigned": [[0, 68.0]]})))),
    # a longest top length with no schedule to bound
    (None, ["family", "--alpha", "3/5", "--max-length", "12"]),
    (UNIFORM_4, ["family", "--alpha", "3/5", "--derandomize", "{doc}", "--max-length", "12"]),
    # a family file that to_json does not write back: upper-case or 0x-prefixed hex, a
    # repeated string, strings or levels out of order, no pool_chain, an integer
    # pool_size, and an unknown key
    *(({**SMALL_FAMILY, "levels": [{**SMALL_FAMILY["levels"][0], **level}]},
       ["avoid", "--family", "{doc}", "--length", "10"])
      for level in ({"strings_hex": ["A"]}, {"strings_hex": ["0x0"]},
                    {"strings_hex": ["0", "0"]}, {"strings_hex": ["1", "0"]},
                    {"pool_size": 16})),
    ({**SMALL_FAMILY, "levels": [{key: value for key, value in SMALL_FAMILY["levels"][0].items()
                                  if key != "pool_chain"}]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    ({**SMALL_FAMILY, "levels": [{"length": 5, "kind": "sampled", "strings_hex": ["00"],
                                  "pool_chain": [], "pool_size": "32"}, *SMALL_FAMILY["levels"]]},
     ["avoid", "--family", "{doc}", "--length", "10"]),
    ({**SMALL_FAMILY, "note": "x"}, ["avoid", "--family", "{doc}", "--length", "10"]),
    # an allocation that export() does not write back: another source_total, and an
    # unknown key at the top or in a level
    *((allocation, ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"])
      for allocation in ({**ONE_LEVEL_ALLOCATION, "source_total": 69},
                         {**ONE_LEVEL_ALLOCATION, "note": "x"},
                         {**ONE_LEVEL_ALLOCATION,
                          "levels": [{**ONE_LEVEL_ALLOCATION["levels"][0], "note": "x"}]})),
    # --epsilon and --n-min in a mode that does not read them
    (None, ["family", "--alpha", "3/10", "--levels", "8", "--epsilon", "1/0"]),
    (None, ["family", "--alpha", "9/10", "--schedule", "1", "--epsilon", "zzz"]),
    (None, ["family", "--alpha", "3/10", "--levels", "8", "--n-min", "7"]),
    (UNIFORM_4, ["family", "--alpha", "9/10", "--derandomize", "{doc}", "--n-min", "7"]),
    # an alpha outside (0, 1]
    (None, ["family", "--alpha", "3/2", "--levels", "8"]),
    # an allocation cap no spread writes: not a power of two, or below 2**max(13, start_level)
    *(({**ONE_LEVEL_ALLOCATION, "cap": cap},
       ["check-windows", "--bits", "{bits}", "--alloc", "{doc}", "--m-max", "12"])
      for cap in (5000, 4096)),
    # a level length given twice
    (None, ["family", "--alpha", "3/10", "--levels", "8,8"]),
    # a level list that is not integers joined by commas
    *((None, ["family", "--alpha", "3/10", "--levels", levels]) for levels in BAD_LEVEL_LISTS),
])
def test_malformed_inputs_exit_2_with_one_line(tmp_path, capsys, document, argv):
    with open(tmp_path / "doc.json", "w") as fh:
        json.dump(document, fh)
    write_bit_file(tmp_path / "x.bits", "01" * 16)
    names = {"doc": tmp_path / "doc.json", "dir": tmp_path, "bits": tmp_path / "x.bits"}
    assert run(*(a.format(**names) for a in argv)) == cli.EXIT_BAD_PARAMS
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    # a negative size, or a level list that is not integers, names the flag that gave it
    for flag, value in zip(argv, argv[1:]):
        if value.startswith("-") and value[1:].isdigit() or value in BAD_LEVEL_LISTS:
            assert flag in err, err


# Each kind of `family`, in the order its messages name them: the flags that
# select it, and the optional flags it reads.  Written out here apart from
# cli's own table, so that the two are compared.
FAMILY_MODES = {
    "--schedule": (["--alpha", "9/10", "--schedule", "1"], {"--n-min", "--max-length"}),
    "--levels": (["--alpha", "3/10", "--levels", "8"], set()),
    "--derandomize": (["--alpha", "9/10", "--derandomize", "{doc}"],
                      {"--epsilon", "--level-length"}),
    "the two-level family": (["--alpha", "3/5"], {"--epsilon", "--n-min"}),
}
# a value of each optional flag that every kind reading it runs with
FAMILY_OPTIONS = {"--epsilon": "1/2", "--n-min": "2", "--level-length": "2", "--max-length": "24"}


@pytest.mark.parametrize("mode, extra", [
    *itertools.product(FAMILY_MODES, FAMILY_OPTIONS),
    *itertools.combinations(list(FAMILY_MODES)[:-1], 2),
])
def test_family_runs_a_flag_only_with_a_kind_that_reads_it(tmp_path, capsys, mode, extra):
    with open(tmp_path / "doc.json", "w") as fh:
        json.dump(UNIFORM_4, fh)
    argv, reads = FAMILY_MODES[mode]
    # another mode adds its own flag and value, the ones after its --alpha
    added = FAMILY_MODES[extra][0][2:] if extra in FAMILY_MODES else [extra, FAMILY_OPTIONS[extra]]
    code = run("family", *(a.format(doc=tmp_path / "doc.json") for a in argv + added))
    err = capsys.readouterr().err.strip()
    if extra in reads:
        assert (code, err) == (cli.EXIT_OK, "")
    elif extra in FAMILY_MODES:
        modes = ", ".join(m for m in FAMILY_MODES if m in (mode, extra))
        assert (code, err) == (cli.EXIT_BAD_PARAMS, f"ecseq family: error: {modes}: give only "
                               f"one of --schedule, --levels and --derandomize")
    else:
        readers = " or ".join(m for m, (_, flags) in FAMILY_MODES.items() if extra in flags)
        assert (code, err) == (cli.EXIT_BAD_PARAMS, f"ecseq family: error: {extra} applies only "
                               f"with {readers}")


def test_family_help_gives_the_defaults_family_takes():
    family = cli.build_parser()._subparsers._group_actions[0].choices["family"]
    helps = [(action.option_strings[0], action.help or "") for action in family._actions]
    assert {flag: text.partition("(default ")[2].partition(")")[0] for flag, text in helps
            if "(default " in text} == {flag: str(v) for flag, v in cli.FAMILY_DEFAULTS.items()}


def objects(node, path=()):
    """The path of every JSON object inside a JSON value, the value's own included."""
    if isinstance(node, dict):
        yield path
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from objects(child, path + (key,))


def set_at(doc, path, change):
    """A copy of doc whose node at path is change(node)."""
    doc = copy.deepcopy(doc)
    if not path:
        return change(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return doc


def written_allocation():
    alloc = spreader.plan_allocation(spreader.inverse_triangular())
    alloc.ensure_horizon(3000)
    return alloc.export()


# each reader of a file ecseq writes, with a file its writer wrote
WRITTEN_FORMS = {
    "allocation": (lambda doc: spreader.Allocation.from_export(doc, 3000), written_allocation),
    "level family": (forbidden.LevelFamily.from_json, lambda: forbidden.two_level_family(
        Fraction(3, 5), Fraction(1, 2), 2, RandomSource(3))[0].to_json()),
    "positional family": (adversary.PositionalFamily.from_json, lambda: adversary.PositionalFamily(
        2, (0, 0, 2), Fraction(7, 16)).to_json()),
    "distribution": (FiniteDistribution.from_json, lambda: non_uniform_distribution(4, 7)),
}


@pytest.mark.parametrize("form", sorted(WRITTEN_FORMS))
def test_readers_refuse_every_leaf_and_key_their_writer_does_not_write(form):
    read, write = WRITTEN_FORMS[form]
    doc = write()
    read(doc)
    changes = [(path, float) for path, value in leaves(doc) if type(value) is int]
    changes += [(path, int) for path, value in leaves(doc)
                if type(value) is str and value.isdigit()]
    assert changes
    changes += [(path, lambda node: {**node, "note": "x"}) for path in objects(doc)]
    for path, change in changes:
        with pytest.raises(ValueError):
            read(set_at(doc, path, change))


# each reader with a key its writer always writes
@pytest.mark.parametrize("form, key", [("allocation", "cap"), ("level family", "alpha"),
                                       ("positional family", "window_length"),
                                       ("distribution", "deficit")])
def test_every_reader_refuses_a_missing_and_an_extra_key(form, key):
    read, write = WRITTEN_FORMS[form]
    doc = write()
    with pytest.raises(ValueError):
        read({name: value for name, value in doc.items() if name != key})
    with pytest.raises(ValueError):
        read({**doc, "note": "x"})


def test_a_tiny_alpha_draws_one_string_per_level(tmp_path):
    # floor(2**(8 * 10**-12)) is 1, found without raising 2 to a huge power
    out = tmp_path / "family.json"
    assert run("family", "--alpha", "1e-12", "--levels", "8", "--out", str(out)) == cli.EXIT_OK
    assert [len(level["strings_hex"]) for level in read_json(out)["levels"]] == [1]


# (level kind, key, change) for each family shape no command writes
FAMILY_TAMPERINGS = [("implicit", "chain", lambda chain: chain + chain),
                     ("implicit", "chain", lambda chain: []),
                     ("sampled", "pool_chain", lambda chain: [[2, 1]]),
                     ("sampled", "pool_size", lambda size: str(2 * int(size)))]


@pytest.mark.parametrize("level_kind, key, change", FAMILY_TAMPERINGS)
def test_a_report_with_another_pool_or_chain_fails_verify(reports, tmp_path, level_kind, key,
                                                          change):
    tampered = 0
    for kind, section in (("family", "results"), ("family-derandomize", "results"),
                          ("avoid", "parameters")):
        doc = read_json(reports[kind])
        level = next((lv for lv in doc[section]["family"]["levels"]
                      if lv["kind"] == level_kind), None)
        if level is not None:
            level[key] = change(level[key])
            assert verify_doc(tmp_path, doc) == cli.EXIT_VERIFY_FAILED, kind
            tampered += 1
    assert tampered >= 1


FAMILY_REPORT_OF_HUGE_ALPHA = {
    "command": "family-levels", "seed": 42, "results": {}, "certificates": {}, "wall_time_s": 0,
    "parameters": {"alpha": "3000000000000001/10000000000000000", "lengths": [8]}}


# a family whose one implicit level fits 2**(alpha*length) by a hair: with alpha's
# denominator q = 10**12, deciding the count 8 exactly would take 8**q
TINY_ALPHA_FAMILY = {"alpha": "1/1000000000000",
                     "levels": [{**IMPLICIT_LEVEL, "length": 3 * 10 ** 12 + 1, "cardinality": "8"}]}
HUGE_ALPHA_ERROR = "alpha 3000000000000001/10000000000000000 has a numerator above 1024"

ADVERSARY_REPORT_OF_HUGE_WINDOW = {
    "command": "adversary", "seed": None, "wall_time_s": 0,
    "parameters": {"dist": UNIFORM_4, "n": 2, "epsilon": "1/2"},
    "results": {"N": 3, "family": {"window_length": 10 ** 12, "strings": ["00", "00", "10"],
                                   "certificate": "7/16"}},
    "certificates": {"avoid_probability": "7/16", "deficit": "0/1"}}

# (document, command line, exit code, the one line the run prints)
HUGE_POWER_CASES = [
    # a sampled level of length 10**12: its length is refused before its pool_size is read
    ({**SMALL_FAMILY, "levels": [{**SMALL_FAMILY["levels"][0], "length": 10 ** 12}]},
     ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
     "ecseq avoid: error: level 1000000000000 is longer than 14284 bits, so its pool_size "
     "2**1000000000000 has more than 4300 digits"),
    # alpha 0.3000000000000001, read exactly, has a numerator of about 3 * 10**15
    (None, ["family", "--alpha", "0.3000000000000001", "--levels", "8"], cli.EXIT_BAD_PARAMS,
     f"ecseq family: error: {HUGE_ALPHA_ERROR}"),
    ({**SMALL_FAMILY, "alpha": "3000000000000001/10000000000000000"},
     ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
     f"ecseq avoid: error: {HUGE_ALPHA_ERROR}"),
    (FAMILY_REPORT_OF_HUGE_ALPHA, ["verify", "--report", "{doc}"], cli.EXIT_VERIFY_FAILED,
     f"verify: FAIL the report does not reproduce: ValueError: {HUGE_ALPHA_ERROR}"),
    # an implicit level of length 10**12, whose two strings fit 2**(10**12 / 2) unbuilt
    ({**SMALL_FAMILY, "levels": [{**IMPLICIT_LEVEL, "length": 10 ** 12}]},
     ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
     "ecseq avoid: error: avoidance needs explicit level sets"),
    # sampled levels of 2**(5 * 10**11) and 2**30 strings, and a random length of 10**12
    (None, ["family", "--alpha", "1/2", "--levels", "1000000000000"], cli.EXIT_BAD_PARAMS,
     "ecseq family: error: level 1000000000000 would draw more than 2**24 strings"),
    (None, ["family", "--alpha", "3/5", "--n-min", "1000000000000"], cli.EXIT_BAD_PARAMS,
     "ecseq family: error: level 1000000000000 would draw more than 2**24 strings"),
    (None, ["family", "--alpha", "1/2", "--levels", "60"], cli.EXIT_BAD_PARAMS,
     "ecseq family: error: level 60 would draw more than 2**24 strings"),
    # a power of two is decided by its bit length; a count of 9 would need 9**(10**12)
    (TINY_ALPHA_FAMILY, ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
     "ecseq avoid: error: avoidance needs explicit level sets"),
    ({**TINY_ALPHA_FAMILY, "levels": [{**TINY_ALPHA_FAMILY["levels"][0], "cardinality": "9"}]},
     ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
     "ecseq avoid: error: a count of 4 bits against 2**(3000000000001/1000000000000) needs a "
     "power above 2**24 bits"),
    # an adversary report whose family claims windows of 10**12 bits: its strings are
    # measured against that length before any window is built or padded
    (ADVERSARY_REPORT_OF_HUGE_WINDOW, ["verify", "--report", "{doc}"], cli.EXIT_VERIFY_FAILED,
     "verify: FAIL the report does not reproduce: ValueError: a forbidden string is not "
     "1000000000000 bits long"),
]


@pytest.mark.parametrize("document, argv, code", [case[:3] for case in HUGE_POWER_CASES])
def test_inputs_that_would_build_a_huge_power_fail_in_one_line(tmp_path, document, argv, code):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    done = run_capped(*(a.format(doc=path) for a in argv))
    assert done.returncode == code, done.stderr
    # the case's line is looked up, not passed in, so that each case keeps its test id
    line, = [m for d, a, c, m in HUGE_POWER_CASES if (d, a, c) == (document, argv, code)]
    assert (done.stdout + done.stderr).strip().splitlines() == [line]


DEFICIT_ONLY = {"length": 10 ** 5, "masses": {}, "deficit": "1/1"}
NO_FAMILY = "deficit 1/1 is not below epsilon 1/2: no family can be certified"
ONE_STRING_OF_20000 = {"length": 20000, "masses": {RandomSource(1).bits(20000): "1/1"},
                       "deficit": "0/1"}


def pool_error(length):
    return f"level {length} is longer than 14284 bits, so its pool_size 2**{length} has " \
           f"more than 4300 digits"


# (document, command line, exit code, the one line the run prints) for runs that once
# searched on for minutes with no certificate to find, ran out of memory, or did all
# their work before failing with Python's integer-to-text limit
HOPELESS_CASES = {
    **{f"derandomize-length-{length}{'-level-5' if level else ''}": (
        {**DEFICIT_ONLY, "length": length},
        ["family", "--alpha", "3/5", "--derandomize", "{doc}", *level], cli.EXIT_BAD_PARAMS,
        f"ecseq family: error: {NO_FAMILY}")
       for length in (10 ** 5, 10 ** 8) for level in ([], ["--level-length", "5"])},
    "recertify-deficit-only": (
        {"command": "family-derandomize", "seed": 5, "wall_time_s": 0, "certificates": {},
         "parameters": {"alpha": "3/5", "epsilon": "1/2", "level_length": None,
                        "dist": DEFICIT_ONLY}, "results": {"family": SMALL_FAMILY}},
        ["verify", "--report", "{doc}"], cli.EXIT_VERIFY_FAILED,
        f"{REPRODUCE_FAIL}AveragedBoundError: {NO_FAMILY}"),
    "adversary-deficit-only": (
        {**DEFICIT_ONLY, "length": 10 ** 12},
        ["adversary", "--dist", "{doc}", "--n", "2", "--epsilon", "1/2"], cli.EXIT_BAD_PARAMS,
        "ecseq adversary: error: deficit 1/1 exceeds epsilon/2 = 1/4"),
    "levels-15000": (
        None, ["family", "--alpha", "1/1000", "--levels", "15000"], cli.EXIT_BAD_PARAMS,
        f"ecseq family: error: {pool_error(15000)}"),
    "derandomize-one-string-of-20000": (
        ONE_STRING_OF_20000, ["family", "--alpha", "3/5", "--derandomize", "{doc}"],
        cli.EXIT_BAD_PARAMS,
        f"ecseq family: error: {pool_error(20000)}"),
    "recertify-one-string-of-20000": (
        {"command": "family-derandomize", "seed": 5, "wall_time_s": 0, "certificates": {},
         "parameters": {"alpha": "3/5", "epsilon": "1/2", "level_length": None,
                        "dist": ONE_STRING_OF_20000},
         "results": {"family": {"alpha": "3/5", "levels": [
             {"length": 1, "kind": "sampled", "strings_hex": ["0"], "pool_chain": [],
              "pool_size": "2"}]}}},
        ["verify", "--report", "{doc}"], cli.EXIT_VERIFY_FAILED,
        f"{REPRODUCE_FAIL}ValueError: {pool_error(20000)}"),
    "family-file-level-15000": (
        {**SMALL_FAMILY, "levels": [{**SMALL_FAMILY["levels"][0], "length": 15000,
                                     "pool_size": "1" * 4516}]},
        ["avoid", "--family", "{doc}", "--length", "10"], cli.EXIT_BAD_PARAMS,
        f"ecseq avoid: error: {pool_error(15000)}"),
    # two-level certificates whose miss bound or size bound would be written
    # with more than 4300 digits: these hung, or failed in Python's own words
    "two-level-alpha-3/5-epsilon-1/16": (
        None, ["family", "--alpha", "3/5", "--epsilon", "1/16", "--n-min", "2"],
        cli.EXIT_BAD_PARAMS,
        "ecseq family: error: at 1507 blocks of 16 bits the top_size_bound "
        "floor(2**(72336/5)) has more than 4300 digits"),
    **{f"two-level-alpha-{alpha}-epsilon-{epsilon}": (
        None, ["family", "--alpha", alpha, "--epsilon", epsilon, "--n-min", "2"],
        cli.EXIT_BAD_PARAMS,
        f"ecseq family: error: at random length {n} the miss_bound's denominator "
        f"2**{exponent} has more than 4300 digits")
       for alpha, epsilon, n, exponent in [
           ("2/3", "1/1024", 17, 23220), ("3/5", "1/64", 18, 16038),
           ("3/5", "1/1024", 18, 16038), ("11/20", "1/16", 20, 20480),
           ("11/20", "1/64", 20, 20480), ("11/20", "1/1024", 20, 20480)]},
}


@pytest.mark.parametrize("case", sorted(HOPELESS_CASES))
def test_hopeless_or_unwritable_runs_end_in_seconds_in_one_line(tmp_path, case):
    document, argv, code, line = HOPELESS_CASES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    done = run_capped(*(a.format(doc=path) for a in argv), timeout=10)
    assert (done.returncode, (done.stdout + done.stderr).strip().splitlines()) == (code, [line])


def test_derandomize_and_its_verify_take_no_root_above_the_size_limit(tmp_path, monkeypatch,
                                                                      capsys):
    # at alpha 1023/1024 the simple top of 801-bit strings, and a witness level
    # edited to 801 bits, were once checked against floor(2**(alpha*801)), the
    # 1024th root of a power of 1023*801 bits, which takes seconds to build
    pow2_floor = forbidden.pow2_floor

    def bounded(exponent):
        assert exponent <= SIZE_LIMIT_BITS, exponent
        return pow2_floor(exponent)
    monkeypatch.setattr(forbidden, "pow2_floor", bounded)
    reports = {}
    for n in (801, 1601):
        dist, reports[n] = tmp_path / f"one{n}.json", tmp_path / f"report{n}.json"
        dist.write_text(json.dumps({"length": n, "masses": {RandomSource(1).bits(n): "1/1"},
                                    "deficit": "0/1"}))
        assert run("family", "--alpha", "1023/1024", "--epsilon", "1/2", "--derandomize",
                   str(dist), "--seed", "5", "--report", str(reports[n])) == cli.EXIT_OK
    doc = read_json(reports[1601])
    drawn = doc["results"]["family"]["levels"][0]
    drawn.update(length=801, pool_size=str(1 << 801), strings_hex=["0" * 201])
    reports[1601].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--report", str(reports[1601])) == cli.EXIT_VERIFY_FAILED
    assert capsys.readouterr().out.splitlines() == [
        f"{REPRODUCE_FAIL}CertificateError: the witness holds no full draw of length 801 "
        f"below length 1601"]


@pytest.mark.parametrize("blob, message", [
    (b"ECS1", "packed bit file truncated"),
    (b"ECS1" + (9).to_bytes(8, "little") + b"\xff", "packed bit file truncated"),
    (b"ECS1" + (9).to_bytes(8, "little") + b"\xff\x01\x00",
     "packed bit file has 1 bytes after its 9 bits"),
    (b"ECS1" + (0).to_bytes(8, "little") + b"\x00", "packed bit file has 1 bytes after its 0 bits"),
    (b"ECS1" + (9).to_bytes(8, "little") + b"\xff\x03",
     "packed bit file sets bits beyond its 9 bits"),
])
def test_a_packed_bit_file_with_a_payload_write_bit_file_never_writes_exits_2(
        tmp_path, capsys, blob, message):
    (tmp_path / "x.bits").write_bytes(blob)
    capsys.readouterr()
    assert run("profile", "--bits", str(tmp_path / "x.bits"), "--window", "4") \
        == cli.EXIT_BAD_PARAMS
    assert capsys.readouterr().err.splitlines() == [f"ecseq profile: error: {message}"]


def test_exhausted_memory_exits_2_in_one_line(tmp_path):
    done = run_capped("spread", "--length", 10 ** 12, "--out", tmp_path / "x.bits")
    assert done.returncode == cli.EXIT_BAD_PARAMS, done.stderr
    assert (done.stdout + done.stderr).strip().splitlines() == [
        "ecseq spread: error: out of memory"]


# SHA-256 of the family file each form of `family` writes, and of its report's
# results and certificates, as written before the layered family was dropped
FAMILY_FORMS = {
    "two-level": (["--alpha", "3/5", "--epsilon", "1/4", "--n-min", "8", "--seed", "3"],
                  "fb54bdaaa828c367b3f2462c0809a6c50a535403403c9686e77cb37996d05bd9",
                  "8e3a61dd0f0a316038f2f5a10bc4b231b3d295941a35532004fb78d0678425a1"),
    "levels": (["--alpha", "3/10", "--levels", "8,9,10,11,12", "--seed", "42"],
               "a81c5e1b9c639453aa5fdcb11a0161ebf63c22ca4ca76a7d28a80ab5b6074957",
               "b9463baad9ae9565153106d095fc56d6b3c632134948fd3a1abdedc9377ba579"),
    "schedule": (["--alpha", "9/10", "--schedule", "2", "--seed", "11"],
                 "e83e2c50d239ddd4dd62bb9d269792e4b495f5564ea178f98cb12d3126bdbfcb",
                 "5ee7cebda4337a16d85e3d64108cbb2e50c7078b0b2df0f957a0fbd7e823adb6"),
}


@pytest.mark.parametrize("form", sorted(FAMILY_FORMS))
def test_family_files_and_reports_keep_their_digests(tmp_path, form):
    argv, family_sha256, sections_sha256 = FAMILY_FORMS[form]
    out, report = tmp_path / "family.json", tmp_path / "family.report.json"
    assert run("family", *argv, "--out", str(out), "--report", str(report)) == cli.EXIT_OK
    doc = read_json(report)
    sections = json.dumps({key: doc[key] for key in ("results", "certificates")},
                          sort_keys=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == family_sha256
    assert hashlib.sha256(sections.encode()).hexdigest() == sections_sha256


def non_uniform_distribution(length: int, seed: int) -> dict:
    """About three quarters of the strings of a length, each with a weight
    from 1 to 9, and a deficit of weight 1, every mass in lowest terms."""
    rs = RandomSource(seed)
    weights = {v: 1 + rs.below(9) for v in range(1 << length) if rs.below(4)}
    total = sum(weights.values()) + 1
    return {"length": length,
            "masses": {format(v, f"0{length}b"): frac_to_str(Fraction(w, total))
                       for v, w in weights.items()},
            "deficit": frac_to_str(Fraction(1, total))}


# the reports that inline a distribution: argv, distribution length, and the
# SHA-256 of their results, certificates and parameters.dist
DISTRIBUTION_FORMS = {
    "family-derandomize": (["family", "--alpha", "9/10", "--epsilon", "1/4",
                            "--derandomize", "{dist}", "--seed", "5"], 8,
                           "8aff1fa026a6d8506b0e44225134d111dfb5a049890306519b9b493e9d9ff5c3"),
    "adversary": (["adversary", "--dist", "{dist}", "--n", "2", "--epsilon", "1/2"], 5,
                  "3e1cbea8471ffc9486a858a1bb2faa66c9a2b84c7c16c61067a8d548fdf259e0"),
}


@pytest.mark.parametrize("kind", sorted(DISTRIBUTION_FORMS))
def test_reports_that_inline_a_distribution_keep_their_digests(tmp_path, kind):
    argv, length, sections_sha256 = DISTRIBUTION_FORMS[kind]
    dist, report = tmp_path / "dist.json", tmp_path / "report.json"
    dist.write_text(json.dumps(non_uniform_distribution(length, 7)))
    assert run(*(a.format(dist=dist) for a in argv), "--report", str(report)) == cli.EXIT_OK
    doc = read_json(report)
    sections = json.dumps({"results": doc["results"], "certificates": doc["certificates"],
                           "dist": doc["parameters"]["dist"]}, sort_keys=True)
    assert hashlib.sha256(sections.encode()).hexdigest() == sections_sha256
    assert run("verify", "--report", str(report)) == cli.EXIT_OK


def test_a_length_zero_distribution_round_trips():
    doc = {"length": 0, "masses": {"": "1/1"}, "deficit": "0/1"}
    assert FiniteDistribution.from_json(doc).to_json() == doc
    assert FiniteDistribution.uniform(0).to_json() == doc


def test_check_windows_reads_an_allocation_with_a_larger_cap(tmp_path, capsys):
    # allocations written with a cap four times the horizon still load and check alike
    bits, alloc = tmp_path / "omega.bits", tmp_path / "alloc.json"
    assert run("spread", "--length", "16384", "--seed", "3", "--out", str(bits),
               "--alloc-out", str(alloc)) == cli.EXIT_OK
    assert read_json(alloc)["cap"] == 1 << 14
    wide = spreader.plan_allocation(spreader.inverse_triangular())
    wide._set_cap(1 << 16)
    wide.ensure_horizon(16384)
    wide_alloc = tmp_path / "wide.json"
    wide_alloc.write_text(json.dumps(wide.export()))
    capsys.readouterr()
    lines = []
    for path in (alloc, wide_alloc):
        assert run("check-windows", "--bits", str(bits), "--alloc", str(path),
                   "--m-max", "12", "--samples", "8") == cli.EXIT_OK
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] == ("check-windows: coverage proved for every window of "
                                    "[0, 16384) at levels 8..12; all windows pass up to level 12\n")


def test_check_windows_refuses_a_cap_wider_than_its_bits_need(tmp_path):
    # 30 one-progression levels above start level 8 at cap 2**40: each level
    # about doubles the cost of replaying them, so reading this file would take hours
    crafted = {"start_level": 8, "max_level": 64, "cap": 1 << 40, "least_uncovered": 30,
               "source_total": 30, "levels": [{"level": 8 + i, "count": 1, "source_base": i,
                                               "assigned": [[i, i + 1]]} for i in range(30)]}
    bits, alloc = tmp_path / "x.bits", tmp_path / "alloc.json"
    write_bit_file(bits, "01" * 16)
    alloc.write_text(json.dumps(crafted))
    done = run_capped("check-windows", "--bits", bits, "--alloc", alloc, "--m-max", "12",
                      timeout=10)
    assert (done.returncode, done.stdout, done.stderr.splitlines()) == (cli.EXIT_BAD_PARAMS, "", [
        "ecseq check-windows: error: allocation cap 1099511627776 is above 2**13, the widest "
        "cap a spread of 32 bits writes"])


def test_check_windows_reads_an_allocation_whose_levels_cover_every_position(tmp_path):
    # one level takes every progression, so the levels checked above it place nothing
    full = spreader.Allocation(8, 64, lambda m: 256 if m == 8 else 0)
    full.ensure_level(8)
    bits, alloc = tmp_path / "x.bits", tmp_path / "alloc.json"
    write_bit_file(bits, "0" * 2048)
    alloc.write_text(json.dumps(full.export()))
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc), "--m-max", "10") \
        == cli.EXIT_OK


def test_check_windows_proves_coverage_without_a_source_map(spread_run, monkeypatch):
    def no_source_map(*args):
        raise AssertionError("check-windows built a per-position source map")

    monkeypatch.setattr(spreader.Allocation, "source_map", no_source_map)
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "13", "--samples", "20") == cli.EXIT_OK


def test_check_windows_names_the_highest_level_checked(tmp_path, spread_run, capsys):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "40", "--samples", "2") == cli.EXIT_OK
    assert capsys.readouterr().out.strip().endswith("up to level 13")


def test_check_windows_warns_when_no_window_of_the_start_level_fits(tmp_path, capsys):
    bits, alloc = tmp_path / "short.bits", tmp_path / "alloc.json"
    assert run("spread", "--length", "100", "--out", str(bits),
               "--alloc-out", str(alloc)) == cli.EXIT_OK
    capsys.readouterr()
    # start level 8: a 100-bit file holds no window of length 256
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "12") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "warning" in out and "nothing to check" in out and "pass" not in out


def test_check_windows_reads_the_allocation_of_an_empty_spread(tmp_path, capsys):
    bits, alloc = tmp_path / "empty.bits", tmp_path / "alloc.json"
    assert run("spread", "--length", "0", "--out", str(bits),
               "--alloc-out", str(alloc)) == cli.EXIT_OK
    assert read_json(alloc)["levels"] == []
    capsys.readouterr()
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "12") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "warning" in out and "nothing to check" in out and "pass" not in out


HASH_SEED_SCRIPT = """
import sys
from ecseq import cli
out = sys.argv[1]
for argv in (
    ["family", "--alpha", "3/10", "--levels", "8,9,10", "--seed", "42",
     "--out", out + "/family.json", "--report", out + "/family.report.json"],
    ["avoid", "--family", out + "/family.json", "--length", "3000", "--seed", "5",
     "--report", out + "/avoid.report.json"],
    ["adversary", "--dist", out + "/dist.json", "--n", "2", "--epsilon", "1/2",
     "--report", out + "/adversary.report.json"],
):
    assert cli.main(argv) == 0, argv
"""


def test_reports_do_not_depend_on_the_string_hash_seed(tmp_path):
    # a bit string hashes as its text, and str hashes are salted per process
    dist = {"length": 5, "masses": {format(v, "05b"): "1/8" for v in (1, 4, 9, 12, 19, 22, 27, 30)},
            "deficit": "0/1"}
    src = str(Path(ecseq.__file__).resolve().parents[1])
    sections = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        (out / "dist.json").write_text(json.dumps(dist))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, str(out)], env=env,
                       check=True, capture_output=True)
        sections.append({name: {key: read_json(out / name)[key]
                                for key in ("results", "certificates")}
                         for name in ("family.report.json", "avoid.report.json",
                                      "adversary.report.json")})
    assert sections[0] == sections[1]


def test_main_builds_its_parser_once_and_runs_the_current_command(tmp_path, monkeypatch):
    assert run("verify", "--report", str(tmp_path / "missing.json")) == cli.EXIT_BAD_PARAMS
    parser = cli._parser
    called = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: called.append(args.report) or 7)
    assert run("verify", "--report", "r.json") == 7
    assert called == ["r.json"]
    assert cli._parser is parser


def test_schedule_that_no_length_admits_fails_without_enumerating(capsys):
    # every top length up to the default 24 is ruled out before its 2**L strings are built
    assert run("family", "--alpha", "11/20", "--schedule", "3") == cli.EXIT_BAD_PARAMS
    assert capsys.readouterr().err.strip() == \
        "ecseq family: error: interval 3: no top length up to 24 admits the bound"
