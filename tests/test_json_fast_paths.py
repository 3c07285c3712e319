"""Differential properties of the two JSON fast paths against their oracles.

The writer `cli._json_text` must write what json.dumps(indent=2,
sort_keys=True) writes, lists of rows of ints included; the one-pass distribution reader must read exactly
the documents that the per-mass oracle `PerMassDistribution` reads and
writes back unchanged, into the same columns; and `core.differing_keys`,
which dumps only values its type-strict walk finds unequal, must name the
keys that comparing every value's dump names, rows of values read in the
first side's key order included.
Examples are drawn by hypothesis from a fixed seed with no example database,
so every run tests the same inputs.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ecseq import cli
from ecseq.core import (FiniteDistribution, _same_json, check_rewrite, differing_keys,
                        frac_to_str, json_exact)

from oracles import PerMassDistribution, json_dump_text, oracle_differing_keys

FIXED = settings(max_examples=300, deadline=None, database=None, print_blob=False)


def outcome(read):
    try:
        return read()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# ------------------------------------------------------------------ the writer

SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(10 ** 30, 10 ** 80)
           | st.floats() | st.sampled_from([1e-05, 0.1, -0.0, 1e300]) | st.text())
VALUES = st.recursive(SCALARS, lambda inner: (st.lists(inner, max_size=5)
                                              | st.dictionaries(st.text(), inner, max_size=5)),
                      max_leaves=30)


@seed(1009)
@FIXED
@given(VALUES)
@example({"empty": {}, "none": [], "nested": [[], {}, [[{}]], {"a": {"b": []}}]})
@example(["é", " ", "\x00", '"\\/', "\U0001f600", "\ud800", "tab\there"])
@example({"flags": [True, False, None, 0, 1, -1], "t": True, "n": None, "z": 0})
@example([1e-05, 0.1, 2.5, -0.0, float("inf"), float("nan"), 1e16])
@example({"big": 10 ** 100, "neg": -(10 ** 40), "list": [2 ** 64, -(2 ** 63)]})
@example(("a", ("b", 1), {"c": ("d",)}))
def test_the_writer_writes_what_json_dump_writes(value):
    assert cli._json_text(value) + "\n" == json_dump_text(value)


@pytest.mark.parametrize("value", [
    {10: "a", 9: "b", 100: "c"}, {2.5: 1, 1e-05: 2}, {True: 0, False: 1}, {None: [1]},
    {"a": {3: {}}}, {(1, 2): 0}, {1: 0, "a": 1}, [object()], {"a": {1, 2}},
])
def test_the_writer_converts_and_refuses_keys_and_values_as_json_dump_does(value):
    assert outcome(lambda: cli._json_text(value) + "\n") == outcome(lambda: json_dump_text(value))


# ------------------------------------------------------------------ the comparison

# pairs of values whose JSON texts differ though Python may call them equal
# or walk them alike, or agree though Python calls them unequal
TWINS = [(0.0, -0.0), (1, 1.0), (1, True), (1.0, True), (0, False), (0, 0.0), (68, "68"),
         (68, 68.0), (None, "null"), (float("nan"), float("nan")), (2 ** 64, 2.0 ** 64),
         (["a"], "a"), (["k"], {"k": 0}), ({1: 0}, {True: 0}), ({1: 0}, {1.0: 0})]
SCALAR_PAIRS = (SCALARS.map(lambda v: (v, v)) | st.sampled_from(TWINS)
                | st.sampled_from(TWINS).map(lambda pair: pair[::-1])
                | st.tuples(SCALARS, SCALARS))


def _containers(inner):
    """Pairs of arrays, each side a list or a tuple, and pairs of objects,
    with a key sometimes missing from one side."""
    arrays = st.tuples(st.lists(inner, max_size=4), st.sampled_from([list, tuple]),
                       st.sampled_from([list, tuple]))
    objects = st.tuples(st.dictionaries(st.text(max_size=3), inner, max_size=4),
                        st.sampled_from([None, "a", ""]))
    return (arrays.map(lambda t: (t[1](a for a, _ in t[0]), t[2](b for _, b in t[0])))
            | objects.map(lambda t: ({k: a for k, (a, _) in t[0].items()},
                                     {k: b for k, (_, b) in t[0].items() if k != t[1]})))


VALUE_PAIRS = st.recursive(SCALAR_PAIRS, _containers, max_leaves=30)


@seed(1010)
@FIXED
@given(st.dictionaries(st.text(max_size=3), VALUE_PAIRS, max_size=5),
       st.dictionaries(st.text(max_size=3), VALUES, max_size=2))
@example({"a": (0.0, -0.0), "b": (1, 1.0), "c": (1, True), "d": (1.0, True)}, {})
@example({"nested": ([[1, (2, 3)], {"x": [4]}], ([1, [2, 3]], {"x": (4,)}))}, {})
@example({"n": ([0.0], [-0.0]), "m": ({"k": [True]}, {"k": [1]})}, {"only": 1})
@example({"s": (["a"], "a"), "d": (["k"], {"k": 0}), "t": ({1: 0}, {True: 0})}, {})
@example({"i": ([1, 0], [True, False]), "j": ([1, True], [True, 1]), "e": ([], ())}, {})
@example({"r": ([[1], [2, 3]], [[1, 2], [3]]), "p": ([[0, 1], (2, 3)], ([0, 1], [2, 3.0])),
          "q": ([[], []], [(), ()]), "u": ([[1], "1"], [[1], ["1"]]), "v": ([["k"]], [{"k": 0}]),
          "w": ([["a"]], ["a"])}, {})
def test_differing_keys_name_what_comparing_every_dump_names(pairs, extra):
    doc = {**extra, **{k: a for k, (a, _) in pairs.items()}}
    written = {k: b for k, (_, b) in pairs.items()}
    assert differing_keys(doc, written) == oracle_differing_keys(doc, written)


@pytest.mark.parametrize("value", [68.0, True, "68", [68], None])
def test_a_value_of_another_json_type_fails_the_read_back_by_its_path(value):
    doc = {"levels": [{"count": 1}, {"count": 68}]}
    written = {"levels": [{"count": 1}, {"count": value}]}
    message = r"^it is not as ecseq writes it: levels\.1\.count differs$"
    with pytest.raises(ValueError, match=message):
        check_rewrite(doc, written, "it")
    check_rewrite(doc, {"levels": ({"count": 1}, {"count": 68})}, "it")


# ------------------------------------------------------------------ rows of ints

# keys that a template could mistake for its own syntax, or that json escapes
ROW_KEYS = st.sampled_from(["offset", "bits", "a", "{", "}", "{0}", '"q"', "%d", "%", "%%s",
                            "é", "\u2603", "", "b\\c", "1"])


@st.composite
def row_lists(draw):
    """A list of flat dicts: mostly rows that share one key set and hold
    exact ints, else with a bool or a float among them, an empty row, a row
    whose keys differ, or a row whose keys come in another order."""
    keys = draw(st.lists(ROW_KEYS, unique=True, max_size=4))
    rows = draw(st.lists(st.fixed_dictionaries({k: st.integers() | st.integers(10 ** 30, 10 ** 60)
                                                for k in keys}), min_size=1, max_size=8))
    step = draw(st.sampled_from([None] * 4 + ["scalar", "empty", "keys", "order"]))
    i = draw(st.integers(0, len(rows) - 1))
    if step == "scalar" and keys:
        rows[i][draw(st.sampled_from(keys))] = draw(st.booleans() | st.floats()
                                                    | st.sampled_from([1.0, 0.0, -0.0]))
    elif step == "empty":
        rows[i] = {}
    elif step == "keys":
        rows[i] = draw(st.dictionaries(ROW_KEYS, st.integers(), max_size=4))
    elif step == "order":
        rows[i] = dict(reversed(rows[i].items()))
    return rows


@seed(3650)
@FIXED
@given(row_lists())
@example([{"offset": 0, "bits": 12}, {"offset": 64, "bits": 9}])
@example([{"{": 1, "}": 2, "{0}": 3, '"q"': 4, "%d": 5, "é": 6}])
@example([{}, {}])
@example([{"a": 1}, {"b": 2}])
@example([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
@example([{"a": True}, {"a": 1}])
@example([{"a": 1}, {"a": 2.5}])
@example([{"a": 1}, {"a": 1}, {}])
def test_the_writer_writes_rows_as_json_dump_does(rows):
    assert cli._json_text(rows) + "\n" == json_dump_text(rows)
    assert cli._json_text({"rows": rows, "n": 1}) + "\n" == json_dump_text({"rows": rows, "n": 1})


@st.composite
def row_pairs(draw):
    """Two lists of rows, the second made from the first: rows with their keys
    in another order, values moved between keys, a value changed for an equal
    one of another type or for another int, or a key dropped or added."""
    rows = draw(row_lists())
    other = []
    for row in rows:
        items = list(row.items())
        step = draw(st.sampled_from([None, None, "order", "swap", "twin", "int", "drop",
                                     "add"]))
        if step == "order":
            items = draw(st.permutations(items))
        elif step == "swap" and len(items) > 1:
            (k1, v1), (k2, v2) = items[:2]
            items[:2] = [(k1, v2), (k2, v1)]
        elif step in ("twin", "int") and items:
            k, v = items[0]
            twin = draw(st.sampled_from([float(v), bool(v), v]) if type(v) is int
                        else st.just(v))
            items[0] = (k, twin if step == "twin" else draw(st.integers()))
        elif step == "drop" and items:
            items.pop()
        elif step == "add":
            items.append((draw(ROW_KEYS), draw(st.integers())))
        other.append(dict(items))
    return rows, other


@seed(3651)
@FIXED
@given(row_pairs())
@example(([{"x": 1, "y": 2}], [{"y": 1, "x": 2}]))
@example(([{"x": 1, "y": 2}, {"x": 3, "y": 4}], [{"y": 2, "x": 1}, {"x": 3, "y": 4}]))
def test_rows_compare_as_comparing_their_dumps_compares_them(pair):
    a, b = pair
    dumped_alike = not oracle_differing_keys({"rows": a}, {"rows": b})
    assert differing_keys({"rows": a}, {"rows": b}) == oracle_differing_keys({"rows": a},
                                                                             {"rows": b})
    assert _same_json(a, b) <= dumped_alike
    values = [v for row in a + b for v in row.values()]
    if set(map(type, values)) <= {int}:  # no twin of another type: equal means alike
        assert _same_json(a, b) == dumped_alike


@pytest.mark.parametrize("a, b, same", [
    ([{"x": 1, "y": 2}], [{"y": 1, "x": 2}], False),
    ([{"x": 1, "y": 2}], [{"y": 2, "x": 1}], True),
    ([{"a": 1}, {"a": 2}], [{"a": 1}, {"a": 2.0}], False),
    ([{"a": 1}], [{"a": 1.0}], False),
    ([{"a": 1}], [{"a": True}], False),
    ([{"a": 1.0}, {"a": 1}], [{"a": True}, {"a": 1}], False),
    ([{"a": 1, "b": 2}], [{"a": 1}], False),
    ([{"a": 1}], [{"a": 1, "b": 2}], False),
    ([{"a": 1}, {"a": 2}], [{"a": 1}, {"a": 2, "b": 3}], False),
    ([{"a": 1}, {"a": 2}], [{"a": 1}, {"b": 2}], False),
    ([{"a": 1}, {"b": 2}], [{"a": 1}, {"b": 2}], True),
    ([{"1": 0}], [{1: 0}], False),
    ([{1: 0}], [{"1": 0}], False),
    ([{1: 0}], [{1: 0}], False),
])
def test_rows_compare_by_type_and_by_key(a, b, same):
    assert _same_json(a, b) is same
    assert differing_keys({"r": a}, {"r": b}) == oracle_differing_keys({"r": a}, {"r": b})


# ------------------------------------------------------------------ the reader

def columns(dist):
    return dist.numerals, dist.weights, dist.deficit_weight, dist.denominator


def written_back(doc):
    """The per-mass oracle's reading of doc, if it writes doc back unchanged,
    else None.  The length is read as an exact int, and a deficit left out
    as "0/1", as the reader once read them."""
    try:
        dist = PerMassDistribution(json_exact(doc["length"], int), doc["masses"],
                                   doc.get("deficit", "0/1"))
        check_rewrite(doc, dist.to_json(), "distribution")
    except Exception:  # any form the oracle does not read back is refused
        return None
    return dist


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def near_written_docs(draw):
    """A distribution document in the form to_json writes, or a step away: a
    mass or the deficit unreduced or in another form, a zero mass, masses
    that miss 1, a key folded or cut, a length of another JSON type, or a
    key left out or added."""
    length = draw(st.integers(0, 6))
    numerals = draw(st.lists(st.integers(0, (1 << length) - 1), unique=True, max_size=12))
    weights = [draw(st.integers(1, 9)) for _ in numerals]
    deficit = draw(st.integers(0, 9))
    total = max(1, sum(weights) + deficit + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    masses = {format(v, f"0{length}b") if length else "": frac_to_str(Fraction(w, total))
              for v, w in zip(numerals, weights)}
    doc = {"length": length, "masses": masses, "deficit": frac_to_str(Fraction(deficit, total))}
    step = draw(st.sampled_from([None] * 8 + ["mass", "zero", "deficit", "key", "length",
                                              "no deficit", "extra"]))
    if step in ("mass", "deficit"):
        key = draw(st.sampled_from(sorted(masses))) if step == "mass" and masses else None
        a, b = map(int, (masses[key] if key is not None else doc["deficit"]).split("/"))
        form = draw(st.sampled_from([f"{3 * a}/{3 * b}", f"0{a}/{b}", f"+{a}/{b}", f" {a}/{b}",
                                     f"{a}/{b}\n", f"{a}/{b}".translate(ARABIC_INDIC), a / b]))
        if key is not None:
            masses[key] = form
        else:
            doc["deficit"] = form
    elif step == "zero" and len(masses) < 1 << length:
        masses[next(format(v, f"0{length}b") for v in range(1 << length)
                    if format(v, f"0{length}b") not in masses)] = "0/1"
    elif step == "key" and masses:
        key = next(iter(masses))
        masses[draw(st.sampled_from([f" {key}", f"{key}\n", key[1:], f"{key}0"]))] = \
            masses.pop(key)
    elif step == "length":
        doc["length"] = draw(st.sampled_from([float(length), bool(length), str(length)]))
    elif step == "no deficit":
        del doc["deficit"]
    elif step == "extra":
        doc["note"] = "x"
    return doc


@seed(3649)
@FIXED
@given(near_written_docs())
@example({"length": 0, "masses": {"": "1/1"}, "deficit": "0/1"})
@example({"length": 0, "masses": {"": "1/2"}, "deficit": "1/2"})
@example({"length": 3, "masses": {}, "deficit": "1/1"})
@example({"length": 2, "masses": {"00": "1/2", "11": "1/2"}})
@example({"length": 2, "masses": {"00": "0/1", "11": "1/1"}, "deficit": "0/1"})
@example({"length": 2, "masses": {"00": "1/2", "11": "1/2"}, "deficit": "0/3"})
def test_the_reader_reads_exactly_what_the_per_mass_oracle_writes_back(doc):
    oracle = written_back(doc)
    try:
        dist = FiniteDistribution.from_json(doc)
    except ValueError as exc:
        assert oracle is None
        assert len(str(exc).splitlines()) == 1
    else:
        assert oracle is not None
        assert columns(dist) == columns(oracle)
        assert dist.to_json() == doc


UNIFORM_2 = {"00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"}


def replaced(key, new_key=None, mass=None):
    """UNIFORM_2 with one key renamed, or one mass given another form."""
    return {(new_key if k == key and new_key is not None else k):
            (mass if k == key and mass is not None else m) for k, m in UNIFORM_2.items()}


def doc_of(length, masses, deficit):
    return {"length": length, "masses": masses, "deficit": deficit}


# forms to_json does not write: folded or foreign keys; masses or deficits that are
# decimals, signed, padded, non-ASCII, unreduced, zero, out of range or not strings;
# and documents with a key too many or too few, or a length that is not an int
REFUSED_FORMS = [
    *(doc_of(2, replaced("01", new_key=key), "0/1")
      for key in (" 01", "0 1", "01\n", "0 0", "0a", "012", "1", "０１", "0\ud800")),
    *(doc_of(2, replaced("01", mass=mass), "0/1")
      for mass in ("0.25", "+1/4", " 1/4", "1/4\n", "١/٤", "1_0/40", "5/4", "-1/4", "1/-4",
                   "1/0", "1", "1e-1", 0.25, [1], "2/8", "01/4", "1/" + "4" * 5000)),
    doc_of(2, {"00": "1/4,1/4", "01": "1/4"}, "1/4"),  # one mass that reads as two
    doc_of(2, {"00": "1/4/1", "01": "3"}, "0/1"),
    doc_of(2, {"00": "1/2", "01": "1/2", "10": "0/1"}, "0/1"),  # a zero mass
    *(doc_of(2, UNIFORM_2, deficit) for deficit in ("0", "0.0", " 0/1", "0/4", "00/1", None, 0)),
    doc_of(2, [["00", "1/1"]], "0/1"),
    doc_of(2, {"1": "1/1"}, "0/1"),
    *(doc_of(length, UNIFORM_2, "0/1") for length in (2.0, True, "2", -1)),
    {"length": 2, "masses": UNIFORM_2},
    {**doc_of(2, UNIFORM_2, "0/1"), "note": "x"},
]


@pytest.fixture(scope="module")
def adversary_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("adversary") / "dist.json"
    path.write_text(json.dumps(doc_of(2, UNIFORM_2, "0/1")))
    report = path.with_name("report.json")
    assert cli.main(["adversary", "--dist", str(path), "--n", "1", "--epsilon", "1/2",
                     "--report", str(report)]) == cli.EXIT_OK
    return json.loads(report.read_text())


@pytest.mark.parametrize("doc", REFUSED_FORMS)
def test_every_other_form_exits_2_or_fails_verify_in_one_line(doc, adversary_report, tmp_path,
                                                              capsys):
    assert written_back(doc) is None
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["adversary", "--dist", str(path), "--n", "1", "--epsilon", "1/2"]) \
        == cli.EXIT_BAD_PARAMS
    assert len(capsys.readouterr().err.splitlines()) == 1
    path.write_text(json.dumps({**adversary_report,
                                "parameters": {**adversary_report["parameters"], "dist": doc}}))
    assert cli.main(["verify", "--report", str(path)]) == cli.EXIT_VERIFY_FAILED
    assert len(capsys.readouterr().out.splitlines()) == 1
