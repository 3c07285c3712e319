"""Spans around ecseq's layer entry points, and the per-layer metrics built from them.

Only the traced process patches anything.  `install` replaces each entry
point below, on its module or class and on every ecseq module that imported
it by name, with a wrapper that records a span; `uninstall` puts the
originals back.  Hot inner helpers (`numeral_windows`, `RandomSource.below`,
`family_avoids`, ...) are left alone: a wrapper per call would swamp them, and
their cost shows up as self time of the entry point that called them.
Generators are never wrapped, for the same reason.
"""

import importlib
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, JOB, SIZE, OUT = range(7)
SPAN_FIELDS = ("name", "start", "end", "parent", "job", "size", "out")


def _arg(index):
    return lambda args, kwargs, result: args[index]


def _length(args, kwargs, result):
    return len(args[0])


def _search_rank(args, kwargs, result):
    """Candidates tried by the first-lex search: the returned family's rank + 1."""
    rank = 0
    for numeral in result.numerals():
        rank = (rank << result.window_length) | numeral
    return rank + 1


# (module, attribute on the module or "Class.method", span name, size, out)
# size records an input size, out an outcome count; both run after the call.
ENTRY_POINTS = [
    ("core", "BitString.to_bits", "core.to_bits", _length, None),
    ("core", "BitString.from_bits", "core.from_bits", None, None),
    ("core", "RandomSource.bits", "core.random_bits", _arg(1), None),
    ("core", "read_bit_file", "core.bit_file", None, None),
    ("core", "write_bit_file", "core.bit_file", None, None),
    ("spreader", "plan_allocation", "spreader.plan", None, None),
    ("spreader", "Allocation.from_export", "spreader.plan", None, None),
    ("spreader", "Allocation.source_map", "spreader.source_map", _arg(2), None),
    ("spreader", "spread_random", "spreader.spread_random", _arg(2),
     lambda args, kwargs, result: args[0].levels_built()),
    ("spreader", "recover_prefix", "spreader.recover_prefix", None, None),
    ("avoider", "build_avoiding_string", "avoider.build",
     lambda args, kwargs, result: args[0].length,
     lambda args, kwargs, result: result.resamples),
    ("avoider", "scan_violations", "avoider.scan_violations", None, None),
    ("proxy", "window_profile", "proxy.window_profile", None, None),
    ("proxy", "compress_bits", "proxy.compress_bits", _length, None),
    ("adversary", "truncated_search", "adversary.search", None, None),
    ("adversary", "positional_family_search", "adversary.search", None, _search_rank),
    ("adversary", "avoid_probability", "adversary.avoid_probability", None, None),
    ("forbidden", "two_level_family", "forbidden.two_level_family", None, None),
    ("forbidden", "derandomize_family", "forbidden.derandomize_family", None, None),
    ("forbidden", "family_avoid_probability", "forbidden.family_avoid_probability",
     None, None),
    ("forbidden", "interval_schedule", "forbidden.interval_schedule", None,
     lambda args, kwargs, result: len(result)),
    ("forbidden", "sample_uniform_set", "forbidden.sample_uniform_set", None, None),
    ("cli", "cmd_spread", "cli.spread", None, None),
    ("cli", "cmd_verify", "cli.verify", None, None),
    ("cli", "cmd_check_windows", "cli.check-windows", None, None),
    ("cli", "cmd_family", "cli.family", None, None),
    ("cli", "cmd_adversary", "cli.adversary", None, None),
    ("cli", "cmd_avoid", "cli.avoid", None, None),
    ("cli", "cmd_profile", "cli.profile", None, None),
]

LAYERS = ("core", "spreader", "avoider", "proxy", "adversary", "forbidden", "cli")

CLI_COMMANDS = ("spread", "verify", "check-windows", "family", "adversary", "avoid",
                "profile")

# Per-layer metrics, in output order.  Self times are per job in ref units;
# counts are exact per job; each is reported as the median over traced jobs.
PER_LAYER = (
    [("core.to_bits.self_ref", "ref"), ("core.to_bits.bits", "count"),
     ("core.random_bits.self_ref", "ref"), ("core.random_bits.bits", "count"),
     ("core.from_bits.self_ref", "ref"), ("core.bit_file.self_ref", "ref"),
     ("spreader.plan.self_ref", "ref"), ("spreader.source_map.self_ref", "ref"),
     ("spreader.source_map.positions", "count"),
     ("spreader.spread_random.self_ref", "ref"),
     ("spreader.recover_prefix.self_ref", "ref"),
     ("spreader.recover_prefix.windows", "count"), ("spreader.levels_built", "count"),
     ("avoider.build.self_ref", "ref"), ("avoider.scan_violations.self_ref", "ref"),
     ("avoider.resamples", "count"), ("avoider.useful_ratio", "ratio"),
     ("proxy.window_profile.self_ref", "ref"), ("proxy.compress_bits.self_ref", "ref"),
     ("proxy.compress_bits.bits", "count"),
     ("adversary.search.self_ref", "ref"), ("adversary.candidates", "count"),
     ("adversary.avoid_probability.self_ref", "ref"),
     ("forbidden.two_level_family.self_ref", "ref"),
     ("forbidden.derandomize_family.self_ref", "ref"),
     ("forbidden.derandomize.attempts", "count"),
     ("forbidden.family_avoid_probability.self_ref", "ref"),
     ("forbidden.interval_schedule.self_ref", "ref"),
     ("forbidden.schedule.useful_ratio", "ratio"),
     ("forbidden.sample_uniform_set.self_ref", "ref")]
    + [(f"cli.{c}.self_ref", "ref") for c in CLI_COMMANDS]
    + [("cli.report_bytes", "bytes"), ("trace.overhead", "ratio")]
)


class Tracer:
    """Collects spans in memory; `job` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def wrap(self, name, fn, size, out):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.job, None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if size is not None:
                record[SIZE] = size(args, kwargs, result)
            if out is not None:
                record[OUT] = out(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list:
        """Patch every entry point; returns what `uninstall` needs to undo it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "ecseq" or n.startswith("ecseq.")) and m is not None]
        undo = []
        for module_name, attribute, name, size, out in ENTRY_POINTS:
            module = importlib.import_module(f"ecseq.{module_name}")
            owner, _, attr = attribute.rpartition(".")
            owner = getattr(module, owner) if owner else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, size, out))
            else:
                patched = self.wrap(name, raw, size, out)
            undo.append((owner, attr, raw))
            setattr(owner, attr, patched)
            if owner is module:
                for other in modules:
                    if other is not module and other.__dict__.get(attr) is raw:
                        undo.append((other, attr, raw))
                        setattr(other, attr, patched)
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for c_lo, c_hi in sorted(children.get(index, ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


def job_metrics(spans: list, ref_s: float) -> tuple:
    """Per-layer metrics of one job, and its self seconds per layer.

    `spans` holds (run-wide index, span, self seconds) for the job's spans.
    """
    self_s = defaultdict(float)
    size = defaultdict(int)
    out = defaultdict(int)
    calls = defaultdict(int)
    top_out = defaultdict(int)
    drawn_in_build = 0
    attempts = 0
    schedule_tries = 0
    by_index = {index: span for index, span, _ in spans}
    for index, span, own in spans:
        name = span[NAME]
        self_s[name] += own
        calls[name] += 1
        if span[SIZE] is not None:
            size[name] += span[SIZE]
        if span[OUT] is not None:
            out[name] += span[OUT]
            top_out[name] = max(top_out[name], span[OUT])
        parent = by_index.get(span[PARENT])
        parent_name = parent[NAME] if parent is not None else None
        if name == "forbidden.family_avoid_probability" \
                and parent_name == "forbidden.derandomize_family":
            attempts += 1
        if name == "forbidden.derandomize_family" \
                and parent_name == "forbidden.interval_schedule":
            schedule_tries += 1
        if name == "core.random_bits":
            ancestor = parent
            while ancestor is not None and ancestor[NAME] != "avoider.build":
                ancestor = by_index.get(ancestor[PARENT])
            if ancestor is not None:
                drawn_in_build += span[SIZE]

    def ref(*names):
        return sum(self_s[n] for n in names) / ref_s

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "core.to_bits.self_ref": ref("core.to_bits"),
        "core.to_bits.bits": size["core.to_bits"],
        "core.random_bits.self_ref": ref("core.random_bits"),
        "core.random_bits.bits": size["core.random_bits"],
        "core.from_bits.self_ref": ref("core.from_bits"),
        "core.bit_file.self_ref": ref("core.bit_file"),
        "spreader.plan.self_ref": ref("spreader.plan"),
        "spreader.source_map.self_ref": ref("spreader.source_map"),
        "spreader.source_map.positions": size["spreader.source_map"],
        "spreader.spread_random.self_ref": ref("spreader.spread_random"),
        "spreader.recover_prefix.self_ref": ref("spreader.recover_prefix"),
        "spreader.recover_prefix.windows": calls["spreader.recover_prefix"],
        "spreader.levels_built": top_out["spreader.spread_random"],
        "avoider.build.self_ref": ref("avoider.build"),
        "avoider.scan_violations.self_ref": ref("avoider.scan_violations"),
        "avoider.resamples": out["avoider.build"],
        "avoider.useful_ratio": ratio(size["avoider.build"], drawn_in_build),
        "proxy.window_profile.self_ref": ref("proxy.window_profile"),
        "proxy.compress_bits.self_ref": ref("proxy.compress_bits"),
        "proxy.compress_bits.bits": size["proxy.compress_bits"],
        "adversary.search.self_ref": ref("adversary.search"),
        "adversary.candidates": out["adversary.search"],
        "adversary.avoid_probability.self_ref": ref("adversary.avoid_probability"),
        "forbidden.two_level_family.self_ref": ref("forbidden.two_level_family"),
        "forbidden.derandomize_family.self_ref": ref("forbidden.derandomize_family"),
        "forbidden.derandomize.attempts": attempts,
        "forbidden.family_avoid_probability.self_ref":
            ref("forbidden.family_avoid_probability"),
        "forbidden.interval_schedule.self_ref": ref("forbidden.interval_schedule"),
        "forbidden.schedule.useful_ratio":
            ratio(out["forbidden.interval_schedule"], schedule_tries),
        "forbidden.sample_uniform_set.self_ref": ref("forbidden.sample_uniform_set"),
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.self_ref"] = ref(f"cli.{command}")
    layer_s = defaultdict(float)
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds
    return metrics, layer_s


def per_layer_summary(tracer: Tracer, jobs: list) -> tuple:
    """Median per-layer metrics over traced jobs, and each layer's share of their time.

    `jobs` holds (job id, job seconds, ref seconds, report bytes) per traced job.
    """
    selfs = self_times(tracer.spans)
    by_job = defaultdict(list)
    for index, (span, own) in enumerate(zip(tracer.spans, selfs)):
        by_job[span[JOB]].append((index, span, own))
    rows = []
    layer_total = defaultdict(float)
    job_total = 0.0
    for job, job_s, ref_s, report_bytes in jobs:
        metrics, layer_s = job_metrics(by_job.get(job, []), ref_s)
        metrics["cli.report_bytes"] = report_bytes
        rows.append(metrics)
        job_total += job_s
        for layer, seconds in layer_s.items():
            layer_total[layer] += seconds
    medians = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    shares = {layer: layer_total[layer] / job_total for layer in LAYERS}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return medians, shares


def span_records(tracer: Tracer):
    """Spans as dicts, for writing out when the run ends."""
    for span in tracer.spans:
        yield dict(zip(SPAN_FIELDS, span))
