"""ecseq has no runtime dependencies beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecseq

SOURCES = sorted(Path(ecseq.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_absolute_import_is_in_the_standard_library(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = sorted(name for name in names
                     if name.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # either would pull inspect, ast, dis and tokenize into every process
    code = "import sys, ecseq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(ecseq.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
