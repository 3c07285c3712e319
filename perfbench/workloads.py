"""The benchmark's workloads: the commands of one job, its inputs and its checks.

A job is a fixed sequence of `ecseq` commands run in-process through
`ecseq.cli.main`.  Job j of a run uses seed S + (j mod J), where S is the
run's workload seed and J the workload's seed-list length.  The output
checks here use no `ecseq` code, so a defect in a scanner or verifier cannot
hide itself.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_bit_text(path: Path) -> str:
    """Bit i of a packed bit file as character i of the returned text."""
    blob = path.read_bytes()
    if blob[:4] != b"ECS1":
        raise ValueError(f"{path.name}: not a packed bit file")
    count = int.from_bytes(blob[4:12], "little")
    value = int.from_bytes(blob[12:], "little") & ((1 << count) - 1)
    return format(value, f"0{count}b")[::-1] if count else ""


def _packed_digest(path: Path) -> str:
    """SHA-256 over the bit count and payload, as ecseq's reports record it."""
    blob = path.read_bytes()
    return hashlib.sha256(blob[4:12] + blob[12:]).hexdigest()


class Workload:
    name = ""
    why = ""
    seed_list_length = 0
    reports = ()

    def setup(self, ecseq, inputs: Path, seeds: list) -> None:
        """Generate and write the inputs of every seed in the run's list."""

    def commands(self, inputs: Path, work: Path, seed: int) -> list:
        raise NotImplementedError

    def check(self, inputs: Path, work: Path, seed: int) -> list:
        """Problems found in the outputs of one finished job."""
        return []


class SpreadCheck(Workload):
    name = "spread-check"
    why = ("one long spread string written, replayed and window-checked: "
           "the core bit layer and the spreader do the work")
    seed_list_length = 64
    length = 1 << 17
    reports = ("spread.report.json",)

    def commands(self, inputs, work, seed):
        s = str(seed)
        return [
            ["spread", "--length", str(self.length), "--seed", s,
             "--out", str(work / "spread.bits"), "--alloc-out", str(work / "alloc.json"),
             "--report", str(work / "spread.report.json")],
            ["verify", "--report", str(work / "spread.report.json")],
            ["check-windows", "--bits", str(work / "spread.bits"),
             "--alloc", str(work / "alloc.json"), "--m-max", "13", "--samples", "20",
             "--seed", s],
        ]

    def check(self, inputs, work, seed):
        report = _read_json(work / "spread.report.json")
        bits = work / "spread.bits"
        problems = []
        if int.from_bytes(bits.read_bytes()[4:12], "little") != self.length:
            problems.append("spread output has the wrong length")
        if _packed_digest(bits) != report["results"]["output_sha256"]:
            problems.append("spread output differs from the digest in its report")
        return problems


class AvoidScan(Workload):
    name = "avoid-scan"
    why = ("one avoiding string built, rescanned and profiled: the avoider's "
           "scan and resampling, the core bit layer and the proxy coder do the work")
    seed_list_length = 64
    length = 1 << 15
    window, stride = 256, 64
    reports = ("avoid.report.json", "profile.report.json")

    def commands(self, inputs, work, seed):
        s = str(seed)
        return [
            ["family", "--alpha", "3/10", "--levels", "8,9,10,11,12", "--seed", s,
             "--out", str(work / "family.json")],
            ["avoid", "--family", str(work / "family.json"), "--length", str(self.length),
             "--seed", s, "--out", str(work / "avoid.bits"),
             "--report", str(work / "avoid.report.json")],
            ["verify", "--report", str(work / "avoid.report.json")],
            ["profile", "--bits", str(work / "avoid.bits"), "--window", str(self.window),
             "--stride", str(self.stride), "--report", str(work / "profile.report.json")],
            ["verify", "--report", str(work / "profile.report.json")],
        ]

    def check(self, inputs, work, seed):
        text = _read_bit_text(work / "avoid.bits")
        problems = []
        if len(text) != self.length:
            problems.append("avoid output has the wrong length")
        for level in _read_json(work / "family.json")["levels"]:
            n = level["length"]
            for numeral in level["strings_hex"]:
                forbidden = format(int(numeral, 16), f"0{n}b")
                at = text.find(forbidden)
                if at >= 0:
                    problems.append(f"forbidden string {forbidden} occurs at {at}")
        rows = _read_json(work / "profile.report.json")["results"]["rows"]
        if len(rows) != (self.length - self.window) // self.stride + 1:
            problems.append("profile has the wrong number of windows")
        return problems


class Certify(Workload):
    name = "certify"
    why = ("short strings and exact rationals: the first-lex adversary search, "
           "derandomization and the interval schedule do the work")
    seed_list_length = 64
    epsilon = "1/4"
    # input name -> (RandomSource stream, support size, string length)
    distributions = {"derandomize": (1, 1024, 32),
                     "adversary_a": (2, 128, 13), "adversary_b": (3, 128, 13)}
    adversaries = ("adversary_a", "adversary_b")
    reports = ("two_level.report.json", "derandomize.report.json",
               *(f"{label}.report.json" for label in adversaries), "schedule.report.json")

    @staticmethod
    def _distribution(ecseq, seed: int, stream: int, support: int, length: int) -> dict:
        """`support` distinct strings with integer weights 1..16, normalised, no deficit."""
        rs = ecseq.core.RandomSource(seed, stream)
        chosen = {}
        while len(chosen) < support:
            numeral = rs.below(1 << length)
            if numeral not in chosen:
                chosen[numeral] = None
        weights = {numeral: rs.below(16) + 1 for numeral in chosen}
        total = sum(weights.values())
        masses = {}
        for numeral, weight in weights.items():
            mass = Fraction(weight, total)
            masses[format(numeral, f"0{length}b")] = f"{mass.numerator}/{mass.denominator}"
        return {"length": length, "masses": masses, "deficit": "0/1"}

    def setup(self, ecseq, inputs, seeds):
        for seed in seeds:
            for label, (stream, support, length) in self.distributions.items():
                doc = self._distribution(ecseq, seed, stream, support, length)
                with open(inputs / f"{label}-{seed}.json", "w") as fh:
                    json.dump(doc, fh)

    def commands(self, inputs, work, seed):
        s = str(seed)
        steps = [
            ("two_level", ["family", "--alpha", "3/5", "--epsilon", self.epsilon,
                           "--n-min", "8", "--seed", s]),
            ("derandomize", ["family", "--derandomize",
                             str(inputs / f"derandomize-{seed}.json"),
                             "--alpha", "3/5", "--epsilon", self.epsilon,
                             "--level-length", "8", "--seed", s]),
        ]
        for label in self.adversaries:
            steps.append((label, ["adversary", "--dist", str(inputs / f"{label}-{seed}.json"),
                                  "--n", "3", "--epsilon", self.epsilon]))
        steps.append(("schedule", ["family", "--alpha", "9/10", "--schedule", "1",
                                   "--n-min", "10", "--seed", s]))
        out = []
        for label, argv in steps:
            report = str(work / f"{label}.report.json")
            out.append(argv + ["--report", report])
            out.append(["verify", "--report", report])
        return out

    def check(self, inputs, work, seed):
        """Recompute each adversary certificate by a direct loop over its distribution."""
        problems = []
        for label in self.adversaries:
            dist = _read_json(inputs / f"{label}-{seed}.json")
            report = _read_json(work / f"{label}.report.json")
            family = report["results"]["family"]
            n, targets = family["window_length"], family["strings"]
            avoiding = Fraction(dist["deficit"])
            for text, mass in dist["masses"].items():
                if all(text[i:i + n] != t for i, t in enumerate(targets)):
                    avoiding += Fraction(mass)
            if len(targets) + n - 1 != dist["length"]:
                problems.append(f"{label}: family does not cover the distribution's length")
            if Fraction(report["certificates"]["avoid_probability"]) != avoiding:
                problems.append(f"{label}: certificate differs from the direct recount")
            if not avoiding < Fraction(self.epsilon):
                problems.append(f"{label}: certificate is not below epsilon")
        return problems


WORKLOADS = {w.name: w for w in (SpreadCheck(), AvoidScan(), Certify())}


def report_digest(path: Path) -> str:
    """SHA-256 of a report's results and certificates in canonical JSON."""
    doc = _read_json(path)
    canonical = json.dumps({"results": doc["results"], "certificates": doc["certificates"]},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
