"""End-to-end and per-layer benchmark of ecseq's CLI, stdlib only.

    python3 perfbench/run.py                       # all workloads, seed 0, 35 s each
    python3 perfbench/run.py --workload certify --seed 7 --seconds 35 --trace 0

One process runs one workload: a single closed-loop client that drives
`ecseq.cli.main` in-process against the checkout's `src/`, one fixed-size job
after another, for `--seconds`.  Each job is timed in ref units (see
calibration.py).  `--trace 1` alternates untraced and traced jobs on the same
seeds and prints the per-layer metrics; `--trace 0` prints the end-to-end
metrics.  The last line of standard output is the result as one JSON object.
See README.md for the metrics and workloads.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, report_digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
RECORDED = HERE / "recorded"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 600

END_TO_END = [("setup_s", "s"), ("job_ref.p50", "ref"), ("job_ref.tail", "ref"),
              ("throughput", "jobs/kref"), ("peak_rss_mb", "MB")]


def tail_percentile(values: list, beyond: int = TAIL_BEYOND) -> tuple:
    """(q, value) for the highest nearest-rank percentile q that leaves at least
    `beyond` samples above its rank, never reported below the median; q is 50
    when there are too few samples for anything higher."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    q = 100 * (n - beyond) // n
    if q <= 50:
        return 50, median
    rank = -(-q * n // 100)
    return q, max(ordered[rank - 1], median)


def import_ecseq():
    """Import ecseq afresh from the checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ecseq" or n.startswith("ecseq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ecseq = importlib.import_module("ecseq")
    importlib.import_module("ecseq.cli")
    return ecseq


def run_commands(cli, argvs: list) -> str:
    """Run a job's commands in order; the first failure, or "" when all exit 0."""
    for argv in argvs:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # one job's crash must not end the run
            return f"{argv[0]} raised {type(exc).__name__}: {exc}"
        if code != 0:
            return f"{argv[0]} exited {code}: {captured.getvalue().strip()[:200]}"
    return ""


def load_recorded(workload) -> dict:
    path = RECORDED / f"{workload.name}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["digests"]


class Run:
    """One workload in this process: set-up, then the closed job loop."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seeds = [seed + i for i in range(workload.seed_list_length)]
        self.base = SCRATCH / f"{workload.name}-{os.getpid()}"
        self.inputs = self.base / "inputs"
        self.work = self.base / "work"
        self.recorded = load_recorded(workload)
        self.failures = []
        self.changed = 0
        self.compared = 0
        self.cli = None

    def setup(self) -> list:
        """Import ecseq and write the inputs, several times; the seconds of each."""
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            shutil.rmtree(self.base, ignore_errors=True)
            self.inputs.mkdir(parents=True)
            self.work.mkdir()
            ecseq = import_ecseq()
            self.workload.setup(ecseq, self.inputs, self.seeds)
            times.append(time.perf_counter() - started)
        self.cli = ecseq.cli
        return times

    def job(self, index: int) -> tuple:
        """Run job `index`; (seed, failure message, wall seconds)."""
        seed = self.seeds[index % len(self.seeds)]
        argvs = self.workload.commands(self.inputs, self.work, seed)
        started = time.perf_counter()
        failure = run_commands(self.cli, argvs)
        return seed, failure, time.perf_counter() - started

    def settle(self, seed: int, failure: str) -> tuple:
        """Check a finished job's outputs, then clear them; (failed, report digests, bytes)."""
        digests, report_bytes = [], 0
        if not failure:
            try:
                problems = self.workload.check(self.inputs, self.work, seed)
                for name in self.workload.reports:
                    digests.append(report_digest(self.work / name))
                    report_bytes += (self.work / name).stat().st_size
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc}"]
            failure = "; ".join(problems)
        if failure:
            self.failures.append(f"seed {seed}: {failure}")
        elif str(seed) in self.recorded:
            self.compared += 1
            self.changed += digests != self.recorded[str(seed)]
        for path in self.work.iterdir():
            path.unlink()
        return bool(failure), digests, report_bytes

    def measure(self, seconds: float, max_jobs: int, tracer=None) -> dict:
        """Closed loop for `seconds`.  Each job is bracketed by calibration loops;
        with a tracer, jobs alternate untraced and traced on the same seed."""
        plain, traced = [], []
        attempted = failed = 0
        ref_before = calibration.time_calibration()
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            for mode in ("plain", "traced") if tracer else ("plain",):
                undo = None
                if mode == "traced":
                    tracer.job = index
                    undo = tracer.install()
                try:
                    seed, failure, job_s = self.job(index)
                finally:
                    if undo is not None:
                        tracer.uninstall(undo)
                ref_after = calibration.time_calibration()
                ref_s = (ref_before + ref_after) / 2
                ref_before = ref_after
                bad, _, report_bytes = self.settle(seed, failure)
                attempted += 1
                failed += bad
                row = (index, job_s, ref_s, report_bytes)
                (traced if mode == "traced" else plain).append(row)
            index += 1
            if time.perf_counter() >= deadline or index >= max_jobs:
                break
        return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed}

    def record(self) -> dict:
        """Report digests of every seed in the list, one untimed job each."""
        digests = {}
        for index, seed in enumerate(self.seeds):
            seed, failure, _ = self.job(index)
            bad, found, _ = self.settle(seed, failure)
            if bad:
                raise RuntimeError(self.failures[-1])
            digests[str(seed)] = found
        return digests

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


def end_to_end(setup_times: list, plain: list) -> tuple:
    job_s = [row[1] for row in plain]
    ref_s = [row[2] for row in plain]
    job_ref = [j / r for j, r in zip(job_s, ref_s)]
    q, tail = tail_percentile(job_ref)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_ref.p50": statistics.median(job_ref),
        "job_ref.tail": tail,
        "throughput": 1000 * len(job_ref) / sum(job_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    diagnostics = {"job_ref.tail.percentile": f"p{q} of {len(job_ref)} jobs",
                   "job_s.p50": statistics.median(job_s),
                   "ref_s.p50": statistics.median(ref_s),
                   "setup_s.samples": setup_times}
    return metrics, diagnostics


def per_layer(tracer, measured: dict) -> tuple:
    plain = {row[0]: row for row in measured["plain"]}
    traced = measured["traced"]
    metrics, shares = tracing.per_layer_summary(tracer, traced)
    # untraced over traced throughput, paired on the same jobs
    metrics["trace.overhead"] = (sum(t[1] / t[2] for t in traced)
                                 / sum(plain[t[0]][1] / plain[t[0]][2] for t in traced))
    SCRATCH.mkdir(exist_ok=True)
    spans_file = SCRATCH / f"spans-{measured['workload']}.jsonl"
    with open(spans_file, "w") as fh:
        for record in tracing.span_records(tracer):
            fh.write(json.dumps(record) + "\n")
    return metrics, {"layer_share": shares, "spans_file": str(spans_file.relative_to(ROOT))}


def run_workload(args) -> int:
    if not (SRC / "ecseq" / "cli.py").is_file():
        print(f"perfbench: no ecseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    try:
        setup_times = run.setup()
        if args.record:
            digests = run.record()
            RECORDED.mkdir(exist_ok=True)
            with open(RECORDED / f"{workload.name}.json", "w") as fh:
                json.dump({"seed_list": [run.seeds[0], run.seeds[-1]], "digests": digests},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {len(digests)} jobs of {workload.name}")
            return 0
        tracer = tracing.Tracer() if args.trace else None
        measured = run.measure(args.seconds, args.max_jobs, tracer)
        measured["workload"] = workload.name
    finally:
        run.close()
    if tracer:
        metrics, diagnostics = per_layer(tracer, measured)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, diagnostics = end_to_end(setup_times, measured["plain"])
        units = dict(END_TO_END)
    attempted, failed = measured["attempted"], measured["failed"]
    diagnostics.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "jobs": attempted, "error_rate": failed / attempted,
        "outputs_changed": run.changed, "outputs_compared": run.compared,
        "failures": run.failures[:5],
    })
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--max-jobs", str(args.max_jobs)]
        if args.record:
            argv.append("--record")
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            status = 1
            continue
        if args.record:
            print(lines[-1])
            continue
        diagnostics = json.loads(lines[-2])["diagnostics"]
        result = json.loads(lines[-1])
        results[name] = result
        status |= not result["correct"]
        print(f"== {name}  jobs {diagnostics['jobs']}  outputs_changed "
              f"{diagnostics['outputs_changed']}/{diagnostics['outputs_compared']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'error_rate':<46} {diagnostics['error_rate']:>14.6g} fraction")
        for key in ("job_s.p50", "ref_s.p50", "job_ref.tail.percentile", "layer_share"):
            if key in diagnostics:
                print(f"  ({key}: {diagnostics[key]})")
    if results:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=10**9,
                        help="stop after this many jobs even if time remains")
    parser.add_argument("--record", action="store_true",
                        help="store report digests of the seed list instead of timing")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
