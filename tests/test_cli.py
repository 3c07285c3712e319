import copy
import json

import pytest

from ecseq import adversary, cli, forbidden
from ecseq.core import BitString, FiniteDistribution, read_bit_file, write_bit_file


def run(*argv):
    return cli.main(list(argv))


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


def test_check_windows_clean_and_tampered(tmp_path, spread_run):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "10", "--samples", "20") == cli.EXIT_OK
    # flip one early bit: it repeats inside larger windows, so recovery must trip
    x = read_bit_file(bits)
    flipped = x.to_bits()
    flipped[0] ^= 1
    bad = tmp_path / "bad.bits"
    write_bit_file(bad, BitString.from_bits(flipped))
    assert run("check-windows", "--bits", str(bad), "--alloc", str(alloc),
               "--m-max", "10", "--samples", "20") == cli.EXIT_VERIFY_FAILED


def test_check_windows_mmax_below_start(tmp_path, spread_run, capsys):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "3") == cli.EXIT_OK
    assert "warning" in capsys.readouterr().out


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
    text = read_bit_file(out).to_text()
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
    write_bit_file(bits, BitString.from_text("01" * 200))
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
    write_bit_file(d / "x.bits", BitString.from_text("0110" * 100))
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


def test_verify_fails_a_report_whose_replay_raises(reports, tmp_path):
    for kind, parameter, value in (("spread", "max_level", 3), ("family", "alpha", "1/0")):
        doc = read_json(reports[kind])
        doc["parameters"][parameter] = value
        assert verify_doc(tmp_path, doc) == cli.EXIT_VERIFY_FAILED, kind


@pytest.mark.parametrize("document, argv", [
    ({"alpha": "1/2"}, ["avoid", "--family", "{doc}", "--length", "10"]),
    ({"length": 2, "masses": ["00"]}, ["adversary", "--dist", "{doc}", "--n", "1",
                                       "--epsilon", "1/2"]),
    (None, ["profile", "--bits", "{dir}", "--window", "4"]),
    (None, ["profile", "--bits", "{bits}", "--window", "0"]),
    (None, ["spread", "--length", "8192", "--max-level", "9", "--out", "{dir}/x.bits"]),
    (None, ["family", "--alpha", "1/0"]),
    (None, ["family", "--alpha", "3/5", "--epsilon", "1/0"]),
    ({"length": 1, "masses": {"0": "1/1"}}, ["adversary", "--dist", "{doc}", "--n", "1",
                                             "--epsilon", "1/0"]),
    ({"length": 1, "masses": {"0": "1/0"}}, ["adversary", "--dist", "{doc}", "--n", "1",
                                             "--epsilon", "1/2"]),
    ({"alpha": "1/1", "levels": [{"length": 0, "kind": "sampled", "strings_hex": ["0"],
                                  "pool_size": "1"}]}, ["avoid", "--family", "{doc}",
                                                        "--length", "10"]),
])
def test_malformed_inputs_exit_2_with_one_line(tmp_path, capsys, document, argv):
    with open(tmp_path / "doc.json", "w") as fh:
        json.dump(document, fh)
    write_bit_file(tmp_path / "x.bits", BitString.from_text("01" * 16))
    names = {"doc": tmp_path / "doc.json", "dir": tmp_path, "bits": tmp_path / "x.bits"}
    assert run(*(a.format(**names) for a in argv)) == cli.EXIT_BAD_PARAMS
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_check_windows_names_the_highest_level_checked(tmp_path, spread_run, capsys):
    bits, alloc, _ = spread_run
    assert run("check-windows", "--bits", str(bits), "--alloc", str(alloc),
               "--m-max", "40", "--samples", "2") == cli.EXIT_OK
    assert capsys.readouterr().out.strip().endswith("up to level 13")
