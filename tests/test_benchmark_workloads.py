"""Every command line of the benchmark's jobs runs and passes its own checks."""

import importlib.util
from pathlib import Path

import pytest

import ecseq
from ecseq import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_every_workload_job_runs_clean(tmp_path, name):
    workload, seed = load_workloads()[name], 3
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    workload.setup(ecseq, inputs, [seed])
    for argv in workload.commands(inputs, work, seed):
        assert cli.main(argv) == cli.EXIT_OK, argv
    assert workload.check(inputs, work, seed) == []
