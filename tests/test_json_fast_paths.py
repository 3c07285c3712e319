"""Differential properties of the two JSON fast paths against their oracles.

The writer `cli._json_text` must write what json.dumps(indent=2,
sort_keys=True) writes; the one-pass distribution reader must give the
columns, or the error, of the per-mass constructor `PerMassDistribution`.
Examples are drawn by hypothesis from a fixed seed with no example database,
so every run tests the same inputs.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ecseq import cli, core
from ecseq.core import ExactProb, FiniteDistribution

from oracles import PerMassDistribution, json_dump_text

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


# ------------------------------------------------------------------ the reader

def columns(dist):
    return dist.numerals, dist.weights, dist.deficit_weight, dist.denominator


def read_both(length, masses, deficit):
    """The outcome of the constructor and of the per-mass oracle on one input."""
    return (outcome(lambda: columns(FiniteDistribution(length, masses, deficit))),
            outcome(lambda: columns(PerMassDistribution(length, masses, deficit))))


@st.composite
def written_forms(draw):
    """(length, masses, deficit) in the form to_json writes, except that a mass
    may be zero or unreduced, the deficit may be non-zero, and the masses may
    miss 1 or leave [0, 1]."""
    length = draw(st.integers(1, 7))
    numerals = draw(st.lists(st.integers(0, (1 << length) - 1), unique=True, max_size=16))
    weights = [draw(st.integers(0, 9)) for _ in numerals]
    deficit = draw(st.integers(0, 9))
    total = max(1, sum(weights) + deficit + draw(st.sampled_from([0, 0, 0, 1, -1, -3])))

    def text(weight):
        scale = draw(st.sampled_from([1, 1, 2, 3, 12]))  # "2/4", "3/12" when not 1
        return f"{weight * scale}/{total * scale}"

    return (length, {format(v, f"0{length}b"): text(w) for v, w in zip(numerals, weights)},
            text(deficit))


@seed(3649)
@FIXED
@given(written_forms())
@example((3, {"001": "2/4", "010": "3/12", "100": "0/5", "111": "1/12"}, "2/12"))
@example((2, {"00": "0/1", "11": "0/3"}, "4/4"))
@example((4, {"0000": "1/1"}, "0/1"))
def test_the_one_pass_reader_agrees_with_the_per_mass_constructor(form):
    length, masses, deficit = form
    fast, slow = read_both(length, masses, deficit)
    assert fast == slow
    texts = (*masses.values(), deficit)
    if all(0 < b and a <= b for a, b in (map(int, t.split("/")) for t in texts)):
        # the form to_json writes takes one pass; the constructor checks the sum
        one_pass = core._text_columns(length, masses, deficit)
        assert one_pass is not None
        if sum(map(Fraction, texts)) == 1:
            assert one_pass == fast


UNIFORM_2 = {"00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"}


def replaced(key, new_key=None, mass=None):
    """UNIFORM_2 with one key renamed, or one mass given another form."""
    return {(new_key if k == key and new_key is not None else k):
            (mass if k == key and mass is not None else m) for k, m in UNIFORM_2.items()}


# every form the one-pass reader leaves to the per-mass path: folded or foreign
# keys, and masses or deficits that are decimals, signed, padded, non-ASCII,
# out of range or not strings
FALLBACK_FORMS = [
    (2, replaced("01", new_key=" 01"), "0/1"),
    (2, replaced("01", new_key="0 1"), "0/1"),
    (2, replaced("01", new_key="01\n"), "0/1"),
    (2, replaced("01", new_key="0 0"), "0/1"),  # a duplicate once folded
    (2, replaced("01", new_key="0a"), "0/1"),
    (2, replaced("01", new_key="012"), "0/1"),
    (2, replaced("01", new_key="1"), "0/1"),
    (2, replaced("01", new_key="０１"), "0/1"),
    (2, replaced("01", new_key="0\ud800"), "0/1"),
    (2, replaced("01", mass="0.25"), "0/1"),
    (2, replaced("01", mass="+1/4"), "0/1"),
    (2, replaced("01", mass=" 1/4"), "0/1"),
    (2, replaced("01", mass="1/4\n"), "0/1"),
    (2, replaced("01", mass="١/٤"), "0/1"),
    (2, replaced("01", mass="1_0/40"), "0/1"),
    (2, replaced("01", mass="5/4"), "0/1"),
    (2, replaced("01", mass="-1/4"), "0/1"),
    (2, replaced("01", mass="1/-4"), "0/1"),
    (2, replaced("01", mass="1/0"), "0/1"),
    (2, replaced("01", mass="1"), "0/1"),
    (2, replaced("01", mass="1e-1"), "0/1"),
    (2, replaced("01", mass=Fraction(1, 4)), "0/1"),
    (2, replaced("01", mass=ExactProb(1, 4)), "0/1"),
    (2, replaced("01", mass=0.25), "0/1"),
    (2, {"00": "1/4,1/4", "01": "1/4"}, "1/4"),  # one mass that reads as two
    (2, {"00": "1/4/1", "01": "3"}, "0/1"),
    (2, replaced("01", mass="1/" + "4" * 5000), "0/1"),  # past int's digit limit
    (2, UNIFORM_2, "0"),
    (2, UNIFORM_2, "0.0"),
    (2, UNIFORM_2, " 0/1"),
    (2, UNIFORM_2, ExactProb(0)),
    (2, UNIFORM_2, None),
    (2, [("00", "1/1")], "0/1"),  # no mapping
    (2, {1: "1/1"}, "0/1"),  # a key that is not text
    (0, {"": "1/1"}, "0/1"),  # the empty string, whose numeral int() does not read
    (0, {"": "1/2"}, "1/2"),
]


@pytest.mark.parametrize("length, masses, deficit", FALLBACK_FORMS)
def test_every_other_form_takes_the_per_mass_path_with_its_errors(length, masses, deficit):
    assert outcome(lambda: core._text_columns(length, masses, deficit)) is None
    fast, slow = read_both(length, masses, deficit)
    assert fast == slow


def test_the_written_form_is_read_without_the_per_mass_path(monkeypatch):
    def per_mass(*args):
        raise AssertionError("the written form went through the per-mass path")

    doc = FiniteDistribution.from_json(
        {"length": 5, "masses": {format(v, "05b"): "1/40" for v in range(30)},
         "deficit": "1/4"}).to_json()
    monkeypatch.setattr(core, "_per_mass_columns", per_mass)
    dist = FiniteDistribution.from_json(doc)
    assert (dist.denominator, dist.weights, dist.deficit_weight) == (40, (1,) * 30, 10)
    assert dist.to_json() == doc
