"""Command-line surface: deterministic runs, bit-file I/O, JSON reports.

Every subcommand is a pure function of its flags; all randomness flows from
--seed.  Each report kind has one entry in KINDS: `run` computes the results
and certificates a command reports, and `check` re-derives them for
`verify`, which compares every field and trusts none.

Exit codes: 0 success, 1 verification failure, 2 bad parameters,
3 budget exhausted.
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import adversary, avoider, forbidden, proxy, spreader
from .core import (BitString, CertificateError, ExactProb, FiniteDistribution,
                   RandomSource, frac_to_str, json_exact, read_bit_file, write_bit_file)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_BUDGET = 3

# Errors that mean the inputs cannot be run: a bad flag or input file exits 2,
# and a report whose replay raises one of these does not reproduce.
INPUT_ERRORS = (ValueError, ZeroDivisionError, CertificateError, spreader.CoverageError)

# A report is a JSON object with these keys; verify ignores the wall time.
REPORT_KEYS = ("command", "seed", "parameters", "results", "certificates", "wall_time_s")


def _sha256_bits(bits: BitString) -> str:
    h = hashlib.sha256()
    h.update(len(bits).to_bytes(8, "little"))
    h.update(bits.to_packed_bytes())
    return h.hexdigest()


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _alpha(parameters: dict) -> Fraction:
    return forbidden.read_alpha(parameters["alpha"])


def _epsilon(parameters: dict) -> ExactProb:
    return ExactProb(Fraction(json_exact(parameters["epsilon"], str)))


def _run_spread(p: dict, seed) -> tuple:
    weights = spreader.weight_preset(p["weights"])
    if p["certified_start_level"] != spreader.choose_start_level(weights):
        raise ValueError(f"the certified start level of {p['weights']} is not "
                         f"{p['certified_start_level']}")
    alloc = spreader.plan_allocation(weights, start_level=p["start_level"],
                                     max_level=p["max_level"])
    omega, tau = spreader.spread_random(alloc, RandomSource(seed), p["length"])
    return ({"output_sha256": _sha256_bits(omega), "source_bits_used": len(tau),
             "levels_built": alloc.levels_built()},
            {"density_budget": frac_to_str(alloc.budget_used()),
             "start_level_certificate": frac_to_str(
                 spreader.start_level_certificate(weights, alloc.start_level))},
            (omega, alloc))


def _run_family(p: dict, seed) -> tuple:
    family, cert = forbidden.two_level_family(_alpha(p), _epsilon(p), p["n_min"],
                                              RandomSource(seed))
    doc = family.to_json()
    return ({"random_length": cert.random_length, "top_length": cert.top_length,
             "threshold": cert.threshold, "sample_size": cert.sample_size, "family": doc},
            {"miss_bound": frac_to_str(cert.miss_bound),
             "top_cardinality": str(cert.top_cardinality),
             "top_size_bound": str(cert.top_size_bound)},
            doc)


def _run_family_levels(p: dict, seed) -> tuple:
    lengths = [json_exact(n, int) for n in p["lengths"]]
    family = forbidden.random_level_family(_alpha(p), lengths, RandomSource(seed))
    doc = family.to_json()
    return ({"family": doc}, {f"size_bound_{n}": str(family.size_bound(n)) for n in lengths},
            doc)


def _derandomized(family, certificate) -> tuple:
    doc = family.to_json()
    return {"family": doc}, {"avoid_probability": frac_to_str(certificate)}, doc


def _run_family_derandomize(p: dict, seed, dist: FiniteDistribution = None) -> tuple:
    """dist is p["dist"] already parsed, when the caller has it at hand."""
    if dist is None:
        dist = FiniteDistribution.from_json(p["dist"])
    return _derandomized(*forbidden.derandomize_family(
        dist, _alpha(p), _epsilon(p), RandomSource(seed),
        level_length=p["level_length"]))


def _check_family_derandomize(p: dict, seed, results: dict) -> tuple:
    return _derandomized(*forbidden.recertify_family(
        FiniteDistribution.from_json(p["dist"]), _alpha(p), _epsilon(p),
        forbidden.LevelFamily.from_json(results["family"]),
        level_length=p["level_length"]))[:2]


def _schedule_dists(p: dict) -> Callable:
    if p["dist_family"] != "uniform":
        raise ValueError(f"unknown distribution family {p['dist_family']!r}")
    return FiniteDistribution.uniform


def _scheduled(entries: list) -> tuple:
    intervals = [{"lower": e.lower, "upper": e.upper, "epsilon": frac_to_str(e.epsilon),
                  "certificate": frac_to_str(e.certificate), "family": e.family.to_json()}
                 for e in entries]
    return ({"intervals": intervals},
            {f"interval_{i}": r["certificate"] for i, r in enumerate(intervals, start=1)},
            {"intervals": intervals})


def _run_family_schedule(p: dict, seed) -> tuple:
    return _scheduled(forbidden.interval_schedule(
        _schedule_dists(p), _alpha(p), p["count"], RandomSource(seed),
        first_length=p["first_length"], max_length=p["max_length"]))


def _check_family_schedule(p: dict, seed, results: dict) -> tuple:
    witnesses = [forbidden.LevelFamily.from_json(entry["family"])
                 for entry in results["intervals"]]
    return _scheduled(forbidden.recertify_schedule(
        _schedule_dists(p), _alpha(p), p["count"], witnesses,
        first_length=p["first_length"], max_length=p["max_length"]))[:2]


def _adversary(dist, family) -> tuple:
    doc = family.to_json()
    return ({"N": len(family.targets), "family": doc},
            {"avoid_probability": frac_to_str(family.certificate),
             "deficit": frac_to_str(dist.deficit)},
            doc)


def _run_adversary(p: dict, seed, dist: FiniteDistribution = None) -> tuple:
    """dist is p["dist"] already parsed, when the caller has it at hand."""
    if dist is None:
        dist = FiniteDistribution.from_json(p["dist"])
    return _adversary(dist, adversary.truncated_search(dist, p["n"], _epsilon(p)))


def _check_adversary(p: dict, seed, results: dict) -> tuple:
    dist = FiniteDistribution.from_json(p["dist"])
    targets = adversary.PositionalFamily.from_json(results["family"]).targets
    certificate = adversary.avoid_probability(dist, adversary.PositionalFamily(p["n"], targets))
    if not certificate < _epsilon(p):
        raise CertificateError(f"avoid probability {frac_to_str(certificate)} is not below "
                               f"{p['epsilon']}")
    return _adversary(dist, adversary.PositionalFamily(p["n"], targets, certificate))[:2]


def _run_avoid(p: dict, seed) -> tuple:
    family = forbidden.LevelFamily.from_json(p["family"])
    result = avoider.build_avoiding_string(
        avoider.AvoidanceInstance(family, p["length"], p["budget"], RandomSource(seed)))
    return ({"succeeded": result.succeeded, "resamples": result.resamples,
             "residual_violations": result.residual_violations,
             "output_sha256": _sha256_bits(result.string) if result.succeeded else None},
            {"violations": 0 if result.succeeded else result.residual_violations},
            result.string)


def _profile(bits: BitString, window: int, stride: int) -> tuple:
    profile = proxy.window_profile(bits, window, stride)
    return profile.to_json(), {}, profile


def _run_profile(p: dict, seed) -> tuple:
    if p["bits_text"] is None:
        raise ValueError("the report does not inline its bits")
    bits = BitString.from_text(p["bits_text"])
    if (_sha256_bits(bits), len(bits)) != (p["bits_sha256"], p["bit_count"]):
        raise ValueError("the inlined bits do not match bits_sha256 and bit_count")
    return _profile(bits, p["window"], p["stride"])


class Kind(NamedTuple):
    run: Callable    # (parameters, seed) -> (results, certificates, what the command writes)
    check: Callable  # (parameters, seed, results) -> (results, certificates), re-derived


def _replay(run: Callable) -> Callable:
    """The check of a generating kind: run it again, reading no reported result."""
    return lambda parameters, seed, results: run(parameters, seed)[:2]


# One entry per report kind.  The generating kinds are checked by running them
# again.  The search kinds re-certify the witness family their report records
# instead of repeating the search, which would double the cost of verifying.
KINDS = {
    "spread": Kind(_run_spread, _replay(_run_spread)),
    "family": Kind(_run_family, _replay(_run_family)),
    "family-levels": Kind(_run_family_levels, _replay(_run_family_levels)),
    "family-derandomize": Kind(_run_family_derandomize, _check_family_derandomize),
    "family-schedule": Kind(_run_family_schedule, _check_family_schedule),
    "adversary": Kind(_run_adversary, _check_adversary),
    "avoid": Kind(_run_avoid, _replay(_run_avoid)),
    "profile": Kind(_run_profile, _replay(_run_profile)),
}


def _run(args, command: str, seed, parameters: dict, run: Callable = None) -> tuple:
    """Run one report kind, by default through its table entry, and write its
    report when --report names a file; returns what the run returned."""
    started = time.perf_counter()
    results, certificates, written = (run or KINDS[command].run)(parameters, seed)
    if args.report:
        _write_json(args.report, {
            "command": command, "seed": seed, "parameters": parameters,
            "results": results, "certificates": certificates,
            "wall_time_s": round(time.perf_counter() - started, 6)})
    return results, certificates, written


def cmd_spread(args) -> int:
    certified = spreader.choose_start_level(spreader.weight_preset(args.weights))
    parameters = {"weights": args.weights,
                  "start_level": certified if args.m0 is None else args.m0,
                  "certified_start_level": certified, "length": args.length,
                  "max_level": args.max_level, "format": args.format}
    results, _, (omega, alloc) = _run(args, "spread", args.seed, parameters)
    write_bit_file(args.out, omega, fmt=args.format)
    if args.alloc_out:
        _write_json(args.alloc_out, alloc.export())
    print(f"spread: wrote {args.length} bits to {args.out} (start level "
          f"{alloc.start_level}, {results['source_bits_used']} source bits)")
    return EXIT_OK


def cmd_check_windows(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    bits = read_bit_file(args.bits)
    alloc = spreader.Allocation.from_export(_load_json(args.alloc))
    frontier = alloc.least_uncovered()
    usable = len(bits) if frontier is None else min(len(bits), frontier)
    top = min(args.m_max, usable.bit_length() - 1)  # the highest level whose windows fit
    if top < alloc.start_level:
        print(f"warning: the highest level that fits m-max and {usable} usable bits is "
              f"{top}, below start level {alloc.start_level}; nothing to check")
        return EXIT_OK
    # every window's coverage is proved from the allocation itself, and the
    # whole-file pass shows that all copies of each source bit agree, so every
    # window of a level up to top recovers the same source prefix
    faults = spreader.coverage_faults(alloc, usable, top)
    disagreeing = spreader.disagreements(alloc, bits, usable)
    if faults or disagreeing:
        print(f"check-windows: {len(faults)} coverage fault(s), {len(disagreeing)} "
              f"position(s) disagree with other copies of their source bit")
        for v in (faults + disagreeing)[:20]:
            print(f"  {v}")
        return EXIT_VERIFY_FAILED
    print(f"check-windows: coverage proved for every window of [0, {usable}) at levels "
          f"{alloc.start_level}..{top}; all windows pass up to level {top}")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.n_min < 1:
        raise ValueError(f"--n-min must be at least 1, got {args.n_min}")
    modes = [flag for flag, value in (("--schedule", args.schedule), ("--levels", args.levels),
                                      ("--derandomize", args.derandomize)) if value is not None]
    if len(modes) > 1:
        raise ValueError(f"{', '.join(modes)}: give only one of --schedule, --levels and "
                         f"--derandomize")
    if args.level_length is not None and args.derandomize is None:
        raise ValueError("--level-length applies only with --derandomize")
    alpha = frac_to_str(Fraction(args.alpha))
    epsilon = frac_to_str(ExactProb(Fraction(args.epsilon)))
    run = None  # the kind's own run, unless a parsed input can be handed over
    if args.schedule is not None:
        kind = "family-schedule"
        parameters = {"alpha": alpha, "count": args.schedule, "first_length": args.n_min,
                      "max_length": args.max_length, "dist_family": "uniform"}
    elif args.levels is not None:
        kind = "family-levels"
        lengths = sorted({int(tok) for tok in args.levels.split(",")})
        if lengths[0] < 1:
            raise ValueError(f"--levels lengths must be at least 1, got {lengths[0]}")
        parameters = {"alpha": alpha, "lengths": lengths}
    elif args.derandomize is not None:
        kind = "family-derandomize"
        dist = FiniteDistribution.from_json(_load_json(args.derandomize))
        parameters = {"alpha": alpha, "epsilon": epsilon, "level_length": args.level_length,
                      "dist": dist.to_json()}
        run = partial(_run_family_derandomize, dist=dist)
    else:
        kind = "family"
        parameters = {"alpha": alpha, "epsilon": epsilon, "n_min": args.n_min}
    results, certificates, written = _run(args, kind, args.seed, parameters, run)
    if args.out:
        _write_json(args.out, written)
    if args.schedule is not None:
        print(f"family: {len(results['intervals'])} disjoint certified intervals")
    elif args.levels is not None:
        sizes = [len(level["strings_hex"]) for level in results["family"]["levels"]]
        print(f"family: explicit random levels {parameters['lengths']}, sizes {sizes}")
    elif args.derandomize is not None:
        print(f"family: derandomized, avoid probability "
              f"{certificates['avoid_probability']} < {epsilon}")
    else:
        print(f"family: lengths ({results['random_length']}, {results['top_length']}), "
              f"miss bound {certificates['miss_bound']} < {epsilon}")
    return EXIT_OK


def cmd_adversary(args) -> int:
    dist = FiniteDistribution.from_json(_load_json(args.dist))
    parameters = {"n": args.n, "epsilon": frac_to_str(ExactProb(Fraction(args.epsilon))),
                  "dist": dist.to_json()}
    results, certificates, family = _run(args, "adversary", None, parameters,
                                         partial(_run_adversary, dist=dist))
    if args.out:
        _write_json(args.out, family)
    print(f"adversary: n={args.n} N={results['N']} "
          f"certificate {certificates['avoid_probability']} < {parameters['epsilon']}")
    return EXIT_OK


def cmd_avoid(args) -> int:
    family = forbidden.LevelFamily.from_json(_load_json(args.family))
    parameters = {"family": family.to_json(), "length": args.length, "budget": args.budget}
    results, _, string = _run(args, "avoid", args.seed, parameters)
    if not results["succeeded"]:
        print(f"avoid: budget exhausted after {results['resamples']} resamples, "
              f"{results['residual_violations']} residual violations")
        return EXIT_BUDGET
    if args.out:
        write_bit_file(args.out, string, fmt=args.format)
    print(f"avoid: success in {results['resamples']} resamples")
    return EXIT_OK


def cmd_profile(args) -> int:
    bits = read_bit_file(args.bits)
    parameters = {"bits_sha256": _sha256_bits(bits), "window": args.window,
                  "stride": args.stride, "bit_count": len(bits),
                  "bits_text": bits.to_text() if len(bits) <= 1 << 16 else None}
    # the bits are at hand here, and a report inlines them only up to 2**16
    _, _, profile = _run(args, "profile", None, parameters,
                         lambda p, seed: _profile(bits, p["window"], p["stride"]))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("offset,bits\n")
            for o, s in zip(profile.offsets, profile.sizes):
                fh.write(f"{o},{s}\n")
    print(f"profile: {len(profile.offsets)} windows, min {profile.min_size} bits, "
          f"mean {profile.mean_size:.1f} bits")
    return EXIT_OK


def _canonical(fields: dict, key: str):
    return json.dumps(fields[key], sort_keys=True) if key in fields else None


def cmd_verify(args) -> int:
    doc = _load_json(args.report)
    sections = ("parameters", "results", "certificates")
    if not (isinstance(doc, dict) and all(key in doc for key in REPORT_KEYS)
            and all(isinstance(doc[key], dict) for key in sections)):
        raise ValueError(f"not a report: expected a JSON object with {', '.join(REPORT_KEYS)}, "
                         f"where {', '.join(sections)} are objects")
    kind = KINDS.get(doc["command"]) if isinstance(doc["command"], str) else None
    if kind is None:
        raise ValueError(f"no verifier for command {doc['command']!r}")
    try:
        derived = dict(zip(sections[1:],
                           kind.check(doc["parameters"], doc["seed"], doc["results"])))
    except INPUT_ERRORS + (KeyError, TypeError) as exc:
        print(f"verify: FAIL the report does not reproduce: {type(exc).__name__}: {exc}")
        return EXIT_VERIFY_FAILED
    problems = [f"{section}.{key}" for section, fields in derived.items()
                for key in sorted(fields.keys() | doc[section].keys())
                if _canonical(fields, key) != _canonical(doc[section], key)]
    for field in problems:
        print(f"verify: FAIL {field} does not reproduce")
    if problems:
        return EXIT_VERIFY_FAILED
    print(f"verify: OK ({doc['command']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecseq",
        description="Spread-sequence generator, forbidden-family constructions, "
                    "and exact-probability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spread", help="generate a spread bit sequence")
    p.add_argument("--weights", default="inverse-triangular")
    p.add_argument("--m0", type=int, default=None,
                   help="override the certified start level")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-level", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--alloc-out", default=None)
    p.add_argument("--format", choices=["ascii", "packed"], default="packed")
    p.add_argument("--report", default=None)

    p = sub.add_parser("check-windows",
                       help="prove window coverage and check every copy of every source bit")
    p.add_argument("--bits", required=True)
    p.add_argument("--alloc", required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=50,
                   help="accepted for old command lines; selects nothing")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for old command lines; selects nothing")

    p = sub.add_parser("family", help="build a certified forbidden family")
    p.add_argument("--alpha", required=True, help="rational like 3/5")
    p.add_argument("--epsilon", default="1/2", help="rational like 1/4")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--levels", default=None,
                   help="comma-separated lengths: emit explicit random level sets")
    p.add_argument("--derandomize", default=None,
                   help="distribution JSON to derandomize against")
    p.add_argument("--level-length", type=int, default=None)
    p.add_argument("--schedule", type=int, default=None,
                   help="build this many disjoint certified intervals")
    p.add_argument("--max-length", type=int, default=24)
    p.add_argument("--report", default=None)

    p = sub.add_parser("adversary", help="positional forbidden strings by search")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("avoid", help="build a string avoiding a family")
    p.add_argument("--family", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["ascii", "packed"], default="packed")
    p.add_argument("--report", default=None)

    p = sub.add_parser("profile", help="compression proxy profile of a bit file")
    p.add_argument("--bits", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("verify", help="re-derive every certificate in a report")
    p.add_argument("--report", required=True)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at each call, so a cmd_* replaced on the module is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # a negative size names its flag; a negative seed is valid and masked
        for name, value in vars(args).items():
            if type(value) is int and value < 0 and name != "seed":
                raise ValueError(f"--{name.replace('_', '-')} must be non-negative, "
                                 f"got {value}")
        return command(args)
    except INPUT_ERRORS + (OSError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"ecseq {args.command}: error: {message}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
