"""The benchmark's tracer patches ecseq entry points by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    entry_points = load_tracing().ENTRY_POINTS
    assert entry_points
    for module_name, attribute, *_ in entry_points:
        # the lookup Tracer.install makes before it patches anything
        module = importlib.import_module(f"ecseq.{module_name}")
        owner, _, attr = attribute.rpartition(".")
        owner = getattr(module, owner) if owner else module
        assert attr in owner.__dict__, f"ecseq.{module_name}.{attribute} is gone"
