"""Every command line of the benchmark's jobs runs and passes its own checks,
untraced and under the benchmark's tracer."""

import importlib.util
from pathlib import Path

import pytest

import ecseq
from ecseq import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load("workloads").WORKLOADS


def run_job(tmp_path, name, seed=3):
    """Set up and run one job of a workload; returns the problems its check finds."""
    workload = load_workloads()[name]
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    workload.setup(ecseq, inputs, [seed])
    for argv in workload.commands(inputs, work, seed):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return workload.check(inputs, work, seed)


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_every_workload_job_runs_clean(tmp_path, name):
    assert run_job(tmp_path, name) == []


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_every_workload_job_runs_clean_under_the_tracer(tmp_path, name):
    # the tracer's size and out callbacks read names of the library after each
    # traced call, so a rename fails here and not only in a traced benchmark run
    tracing = load("tracing")
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        problems = run_job(tmp_path, name)
    finally:
        tracer.uninstall(undo)
    assert problems == []
    assert tracer.spans
    assert all(span[tracing.END] is not None for span in tracer.spans)  # every span closed
