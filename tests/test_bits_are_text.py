"""Bits are '0'/'1' text throughout ecseq: only core names the BitString vestige."""

import re
from pathlib import Path

import pytest

import ecseq

SOURCES = sorted(Path(ecseq.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_but_core_names_bit_string(path):
    text = path.read_text()
    if path.name != "core.py":
        assert not re.search(r"\bBitString\b", text), f"{path.name} names BitString"
    assert ".to_text()" not in text, f"{path.name} calls to_text"


def test_the_package_exports_no_bit_string():
    assert not hasattr(ecseq, "BitString")
