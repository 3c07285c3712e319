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
from typing import Callable, NamedTuple

from . import adversary, avoider, forbidden, proxy, spreader
from .core import (BitString, CertificateError, ExactProb, FiniteDistribution,
                   RandomSource, frac_to_str, read_bit_file, write_bit_file)

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
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _epsilon(parameters: dict) -> ExactProb:
    return ExactProb(Fraction(parameters["epsilon"]))


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
    family, cert = forbidden.two_level_family(Fraction(p["alpha"]), _epsilon(p), p["n_min"],
                                              RandomSource(seed))
    return ({"random_length": cert.random_length, "top_length": cert.top_length,
             "threshold": cert.threshold, "sample_size": cert.sample_size,
             "family": family.to_json()},
            {"miss_bound": frac_to_str(cert.miss_bound),
             "top_cardinality": str(cert.top_cardinality),
             "top_size_bound": str(cert.top_size_bound)},
            family.to_json())


def _run_family_levels(p: dict, seed) -> tuple:
    family = forbidden.random_level_family(Fraction(p["alpha"]), p["lengths"],
                                           RandomSource(seed))
    return ({"family": family.to_json()},
            {f"size_bound_{n}": str(family.size_bound(n)) for n in p["lengths"]},
            family.to_json())


def _derandomized(family, certificate) -> tuple:
    return ({"family": family.to_json()}, {"avoid_probability": frac_to_str(certificate)},
            family.to_json())


def _run_family_derandomize(p: dict, seed) -> tuple:
    return _derandomized(*forbidden.derandomize_family(
        FiniteDistribution.from_json(p["dist"]), Fraction(p["alpha"]), _epsilon(p),
        RandomSource(seed), level_length=p["level_length"]))


def _check_family_derandomize(p: dict, seed, results: dict) -> tuple:
    return _derandomized(*forbidden.recertify_family(
        FiniteDistribution.from_json(p["dist"]), Fraction(p["alpha"]), _epsilon(p),
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
        _schedule_dists(p), Fraction(p["alpha"]), p["count"], RandomSource(seed),
        first_length=p["first_length"], max_length=p["max_length"]))


def _check_family_schedule(p: dict, seed, results: dict) -> tuple:
    witnesses = [forbidden.LevelFamily.from_json(entry["family"])
                 for entry in results["intervals"]]
    return _scheduled(forbidden.recertify_schedule(
        _schedule_dists(p), Fraction(p["alpha"]), p["count"], witnesses,
        first_length=p["first_length"]))[:2]


def _adversary(dist, family) -> tuple:
    return ({"N": family.position_count, "family": family.to_json()},
            {"avoid_probability": frac_to_str(family.certificate),
             "deficit": frac_to_str(dist.deficit)},
            family.to_json())


def _run_adversary(p: dict, seed) -> tuple:
    dist = FiniteDistribution.from_json(p["dist"])
    return _adversary(dist, adversary.truncated_search(dist, p["n"], _epsilon(p)))


def _check_adversary(p: dict, seed, results: dict) -> tuple:
    dist = FiniteDistribution.from_json(p["dist"])
    strings = adversary.PositionalFamily.from_json(results["family"]).strings
    certificate = adversary.avoid_probability(dist, adversary.PositionalFamily(p["n"], strings))
    if not certificate < _epsilon(p):
        raise CertificateError(f"avoid probability {frac_to_str(certificate)} is not below "
                               f"{p['epsilon']}")
    return _adversary(dist, adversary.PositionalFamily(p["n"], strings, certificate))[:2]


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
    bits = read_bit_file(args.bits)
    alloc = spreader.Allocation.from_export(_load_json(args.alloc))
    if args.m_max < alloc.start_level:
        print(f"warning: m-max {args.m_max} below start level {alloc.start_level}; "
              "nothing to check")
        return EXIT_OK
    rs = RandomSource(args.seed)
    violations = []
    consensus = {}  # source index -> bit, shared across windows

    frontier = alloc.least_uncovered()
    usable = len(bits) if frontier is None else min(len(bits), frontier)
    top = min(args.m_max, usable.bit_length() - 1)  # the highest level whose windows fit
    mapping = alloc.source_map(0, usable)
    bit_list = bits.to_bits()

    # whole-file pass: every repetition of one source bit must agree
    firsts = {}
    for p in range(usable):
        j = mapping[p]
        b = bit_list[p]
        if j in firsts:
            if bit_list[firsts[j]] != b:
                violations.append({"position": p, "source_bit": j,
                                   "disagrees_with_position": firsts[j]})
        else:
            firsts[j] = p

    for m in range(alloc.start_level, top + 1):
        size = 1 << m
        top_count = alloc.source_count_through(m)
        base_count = top_count - alloc.counts()[m]
        max_start = usable - size
        if max_start + 1 <= args.samples:
            starts = list(range(max_start + 1))
        else:
            starts = sorted(rs.substream(m).below(max_start + 1)
                            for _ in range(args.samples))
        for k in starts:
            tally = {}
            for j in mapping[k:k + size]:
                tally[j] = tally.get(j, 0) + 1
            missing = [j for j in range(top_count) if j not in tally]
            doubled = [j for j in range(base_count, top_count) if tally.get(j, 0) != 1]
            if missing or doubled:
                violations.append({"k": k, "m": m, "missing": missing[:8],
                                   "not_exactly_once": doubled[:8]})
                continue
            try:
                prefix = spreader.recover_prefix(alloc, bits.window(k, size), k % size, m)
            except spreader.InconsistentWindowError as exc:
                violations.append({"k": k, "m": m, "inconsistent": str(exc)})
                continue
            for j, b in enumerate(prefix.bits()):
                if consensus.setdefault(j, b) != b:
                    violations.append({"k": k, "m": m, "disagrees_at_source_bit": j})
                    break
    if violations:
        print(f"check-windows: {len(violations)} violated window(s)")
        for v in violations[:20]:
            print(f"  {v}")
        return EXIT_VERIFY_FAILED
    print(f"check-windows: all windows pass up to level {top}")
    return EXIT_OK


def cmd_family(args) -> int:
    alpha = frac_to_str(Fraction(args.alpha))
    epsilon = frac_to_str(ExactProb(Fraction(args.epsilon)))
    if args.schedule:
        kind = "family-schedule"
        parameters = {"alpha": alpha, "count": args.schedule, "first_length": args.n_min,
                      "max_length": args.max_length, "dist_family": "uniform"}
    elif args.levels:
        kind = "family-levels"
        parameters = {"alpha": alpha,
                      "lengths": sorted({int(tok) for tok in args.levels.split(",")})}
    elif args.derandomize:
        kind = "family-derandomize"
        dist = FiniteDistribution.from_json(_load_json(args.derandomize))
        parameters = {"alpha": alpha, "epsilon": epsilon, "level_length": args.level_length,
                      "dist": dist.to_json()}
    else:
        kind = "family"
        parameters = {"alpha": alpha, "epsilon": epsilon, "n_min": args.n_min}
    results, certificates, written = _run(args, kind, args.seed, parameters)
    if args.out:
        _write_json(args.out, written)
    if args.schedule:
        print(f"family: {len(results['intervals'])} disjoint certified intervals")
    elif args.levels:
        sizes = [len(level["strings_hex"]) for level in results["family"]["levels"]]
        print(f"family: explicit random levels {parameters['lengths']}, sizes {sizes}")
    elif args.derandomize:
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
    results, certificates, family = _run(args, "adversary", None, parameters)
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
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("check-windows", help="verify window coverage and recovery")
    p.add_argument("--bits", required=True)
    p.add_argument("--alloc", required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_windows)

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
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("adversary", help="positional forbidden strings by search")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("avoid", help="build a string avoiding a family")
    p.add_argument("--family", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["ascii", "packed"], default="packed")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("profile", help="compression proxy profile of a bit file")
    p.add_argument("--bits", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="re-derive every certificate in a report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS + (OSError,) as exc:
        print(f"ecseq {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
