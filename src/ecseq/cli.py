"""Command-line surface: deterministic runs, bit-file I/O, JSON reports.

Every subcommand is a pure function of its flags; all randomness flows from
--seed.  Each report kind has one entry in KINDS: the names of its
parameters, a `run` that computes the results and certificates a command
reports, and a `check` that re-derives them for `verify`.  A command and
`verify` read every parameter through PARAMETERS, by its exact JSON type,
and a report holds each in canonical form.  `verify` compares every field,
the parameters too, and trusts none.  `family` reads which kind it runs, the
flags that kind reads and their defaults from FAMILY_KINDS.

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
from .core import (CertificateError, ExactProb, FiniteDistribution, RandomSource, differing_keys,
                   fold_bits, frac_to_str, json_exact, pack_bits, read_bit_file, row_values,
                   write_bit_file)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_BUDGET = 3

# Errors that mean the inputs cannot be run: a bad flag or input file exits 2,
# and a report whose replay raises one of these does not reproduce.
INPUT_ERRORS = (ValueError, ZeroDivisionError, CertificateError, spreader.CoverageError)

# A report is a JSON object with exactly these keys; verify checks only the
# wall time's type.
REPORT_KEYS = ("command", "seed", "parameters", "results", "certificates", "wall_time_s")


def _sha256_bits(bits: str) -> str:
    h = hashlib.sha256()
    h.update(len(bits).to_bytes(8, "little"))
    h.update(pack_bits(bits))
    return h.hexdigest()


_quote = json.encoder.encode_basestring_ascii  # the C string encoder json.dumps uses


def _json_key(key) -> str:
    """A dict key that is not a str as json.dumps writes it: converted the
    way json converts it, and refused where json refuses it."""
    return json.dumps({key: 0})[1:-4]


def _json_text(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, where
    pad is the newline and indent of value's own line.  That call runs json's
    pure-Python encoder, because of the indent; here every str and exact int,
    the bulk of each file, is written inline by _quote and int.__repr__, a
    list of rows of exact ints through _int_rows, and only other scalars
    (floats, booleans and null) go through json.dumps."""
    inner = pad + "  "
    if isinstance(value, dict):
        # an exact int v formats as int.__repr__(v)
        items = [f"{_quote(k) if type(k) is str else _json_key(k)}: "
                 f"{_quote(v) if type(v) is str else v if type(v) is int else _json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = type(value[0]) is dict and _int_rows(value, inner) or ("," + inner).join([
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
            else _json_text(v, inner) for v in value])
        return "[" + inner + items + pad + "]"
    return json.dumps(value)


def _int_rows(items, pad: str):
    """The items of a list of dicts that hold the same str keys and only exact
    ints, such as a profile's rows, as _json_text writes them at pad, joined
    by commas: one template per row, filled from all their values at once.
    None for any other list."""
    if set(map(type, items)) != {dict} or set(map(type, items[0])) != {str}:
        return None
    keys = sorted(items[0])
    values = row_values(items, keys)
    if values is None or set(map(type, values)) != {int}:
        return None
    inner = pad + "  "
    row = "{" + inner + ("," + inner).join(_quote(k).replace("%", "%%") + ": %d" for k in keys)
    return ("," + pad).join([row + pad + "}"] * len(items)) % tuple(values)


def _write_json(path, doc) -> None:
    """Write doc byte for byte as json.dump(doc, fh, indent=2, sort_keys=True)
    and a newline would."""
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _same(value):
    return value


def _exact(kind: type, *choices) -> tuple:
    """The (read, write) pair of a parameter that JSON gives as exactly a kind
    (and as one of choices, when any are named) and a report holds unchanged."""
    def read(value):
        json_exact(value, kind)
        if choices and value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return read, _same


# (read, write) of each report parameter, by name: read takes its JSON form to the
# value a run takes, and write gives that value's canonical JSON form.
PARAMETERS = {
    "alpha": (forbidden.read_alpha, frac_to_str),
    "epsilon": (lambda value: ExactProb(Fraction(json_exact(value, str))), frac_to_str),
    "lengths": (lambda value: sorted(json_exact(n, int) for n in value), _same),
    "level_length": (lambda value: value if value is None else json_exact(value, int), _same),
    # looked up at each call, so a from_json replaced on the class is the one run
    "dist": (lambda doc: FiniteDistribution.from_json(doc), FiniteDistribution.to_json),
    "family": (forbidden.LevelFamily.from_json, forbidden.LevelFamily.to_json),
    "bits_text": (lambda text: text if text is None else fold_bits(json_exact(text, str)),
                  lambda bits: None if bits is None or len(bits) > 1 << 16 else bits),
    "format": _exact(str, "ascii", "packed"),
    "dist_family": _exact(str, "uniform"),
    **dict.fromkeys(("weights", "bits_sha256"), _exact(str)),
    **dict.fromkeys(("start_level", "certified_start_level", "length", "max_level", "n_min",
                     "count", "first_length", "max_length", "n", "budget", "window", "stride",
                     "bit_count"), _exact(int)),
}


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
    family, cert = forbidden.two_level_family(p["alpha"], p["epsilon"], p["n_min"],
                                              RandomSource(seed))
    if cert.top_size_bound >= 10 ** 4300:  # and so may the top's cardinality, written below
        raise ValueError(f"at {cert.top_length // cert.random_length} blocks of "
                         f"{cert.random_length} bits the top_size_bound floor(2**("
                         f"{frac_to_str(p['alpha'] * cert.top_length)})) has more than "
                         f"4300 digits")
    doc = family.to_json()
    return ({"random_length": cert.random_length, "top_length": cert.top_length,
             "threshold": cert.threshold, "sample_size": cert.sample_size, "family": doc},
            {"miss_bound": frac_to_str(cert.miss_bound),
             "top_cardinality": str(cert.top_cardinality),
             "top_size_bound": str(cert.top_size_bound)},
            doc)


def _run_family_levels(p: dict, seed) -> tuple:
    family = forbidden.random_level_family(p["alpha"], p["lengths"], RandomSource(seed))
    doc = family.to_json()
    return ({"family": doc},
            {f"size_bound_{n}": str(family.size_bound(n)) for n in p["lengths"]}, doc)


def _derandomized(family, certificate) -> tuple:
    doc = family.to_json()
    return {"family": doc}, {"avoid_probability": frac_to_str(certificate)}, doc


def _run_family_derandomize(p: dict, seed) -> tuple:
    return _derandomized(*forbidden.derandomize_family(
        p["dist"], p["alpha"], p["epsilon"], RandomSource(seed), level_length=p["level_length"]))


def _check_family_derandomize(p: dict, seed, results: dict) -> tuple:
    return _derandomized(*forbidden.recertify_family(
        p["dist"], p["alpha"], p["epsilon"], forbidden.LevelFamily.from_json(results["family"]),
        level_length=p["level_length"]))[:2]


def _scheduled(entries: list) -> tuple:
    intervals = [{"lower": e.lower, "upper": e.upper, "epsilon": frac_to_str(e.epsilon),
                  "certificate": frac_to_str(e.certificate), "family": e.family.to_json()}
                 for e in entries]
    return ({"intervals": intervals},
            {f"interval_{i}": r["certificate"] for i, r in enumerate(intervals, start=1)},
            {"intervals": intervals})


def _run_family_schedule(p: dict, seed) -> tuple:
    return _scheduled(forbidden.interval_schedule(
        FiniteDistribution.uniform, p["alpha"], p["count"], RandomSource(seed),
        first_length=p["first_length"], max_length=p["max_length"]))


def _check_family_schedule(p: dict, seed, results: dict) -> tuple:
    witnesses = [forbidden.LevelFamily.from_json(entry["family"])
                 for entry in results["intervals"]]
    return _scheduled(forbidden.recertify_schedule(
        FiniteDistribution.uniform, p["alpha"], p["count"], witnesses,
        first_length=p["first_length"], max_length=p["max_length"]))[:2]


def _adversary(dist, family) -> tuple:
    doc = family.to_json()
    return ({"N": len(family.targets), "family": doc},
            {"avoid_probability": frac_to_str(family.certificate),
             "deficit": frac_to_str(dist.deficit)},
            doc)


def _run_adversary(p: dict, seed) -> tuple:
    return _adversary(p["dist"], adversary.truncated_search(p["dist"], p["n"], p["epsilon"]))


def _check_adversary(p: dict, seed, results: dict) -> tuple:
    targets = adversary.PositionalFamily.from_json(results["family"]).targets
    certificate = adversary.avoid_probability(p["dist"],
                                              adversary.PositionalFamily(p["n"], targets))
    if not certificate < p["epsilon"]:
        raise CertificateError(f"avoid probability {frac_to_str(certificate)} is not below "
                               f"{frac_to_str(p['epsilon'])}")
    return _adversary(p["dist"], adversary.PositionalFamily(p["n"], targets, certificate))[:2]


def _run_avoid(p: dict, seed) -> tuple:
    result = avoider.build_avoiding_string(
        avoider.AvoidanceInstance(p["family"], p["length"], p["budget"], RandomSource(seed)))
    return ({"succeeded": result.succeeded, "resamples": result.resamples,
             "residual_violations": result.residual_violations,
             "output_sha256": _sha256_bits(result.string) if result.succeeded else None},
            {"violations": 0 if result.succeeded else result.residual_violations},
            result.string)


def _run_profile(p: dict, seed) -> tuple:
    bits = p["bits_text"]
    if bits is None:
        raise ValueError("the report does not inline its bits")
    if (_sha256_bits(bits), len(bits)) != (p["bits_sha256"], p["bit_count"]):
        raise ValueError("the inlined bits do not match bits_sha256 and bit_count")
    profile = proxy.window_profile(bits, p["window"], p["stride"])
    return profile.to_json(), {}, profile


class Kind(NamedTuple):
    parameters: tuple  # the names of its parameters, each read and written by PARAMETERS
    run: Callable    # (values, seed) -> (results, certificates, what the command writes)
    check: Callable = None  # (values, seed, results) -> (results, certificates), re-derived
    seeded: bool = True  # the report's seed is an int, or else null


# One entry per report kind.  A generating kind has no check: verify runs it
# again.  The search kinds re-certify the witness family their report records
# instead of repeating the search, which would double the cost of verifying.
KINDS = {
    "spread": Kind(("weights", "start_level", "certified_start_level", "length", "max_level",
                    "format"), _run_spread),
    "family": Kind(("alpha", "epsilon", "n_min"), _run_family),
    "family-levels": Kind(("alpha", "lengths"), _run_family_levels),
    "family-derandomize": Kind(("alpha", "epsilon", "level_length", "dist"),
                               _run_family_derandomize, _check_family_derandomize),
    "family-schedule": Kind(("alpha", "count", "first_length", "max_length", "dist_family"),
                            _run_family_schedule, _check_family_schedule),
    "adversary": Kind(("dist", "n", "epsilon"), _run_adversary, _check_adversary, seeded=False),
    "avoid": Kind(("family", "length", "budget"), _run_avoid),
    "profile": Kind(("bits_text", "bits_sha256", "bit_count", "window", "stride"), _run_profile,
                    seeded=False),
}


def _parameters(kind: Kind, given: dict) -> tuple:
    """The value of each of a kind's parameters, read through PARAMETERS from
    the form given, and the canonical form of each, which a report holds."""
    values = {name: PARAMETERS[name][0](given[name]) for name in kind.parameters}
    return values, {name: PARAMETERS[name][1](value) for name, value in values.items()}


def _run(args, command: str, given: dict) -> tuple:
    """Run a report kind, seeded by --seed if it is seeded, and write its report when
    --report names a file; returns the canonical parameters and the run's values."""
    started = time.perf_counter()
    seed = args.seed if KINDS[command].seeded else None
    values, parameters = _parameters(KINDS[command], given)
    results, certificates, written = KINDS[command].run(values, seed)
    if args.report:
        _write_json(args.report, {
            "command": command, "seed": seed, "parameters": parameters,
            "results": results, "certificates": certificates,
            "wall_time_s": round(time.perf_counter() - started, 6)})
    return parameters, results, certificates, written


def cmd_spread(args) -> int:
    certified = spreader.choose_start_level(spreader.weight_preset(args.weights))
    _, results, _, (omega, alloc) = _run(args, "spread", {
        "weights": args.weights, "start_level": certified if args.m0 is None else args.m0,
        "certified_start_level": certified, "length": args.length,
        "max_level": args.max_level, "format": args.format})
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
    alloc = spreader.Allocation.from_export(_load_json(args.alloc), len(bits))
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
        fields = ("position", "source_bit", "disagrees_with_position")
        for v in [*faults, *(dict(zip(fields, d)) for d in disagreeing[:20])][:20]:
            print(f"  {v}")
        return EXIT_VERIFY_FAILED
    print(f"check-windows: coverage proved for every window of [0, {usable}) at levels "
          f"{alloc.start_level}..{top}; all windows pass up to level {top}")
    return EXIT_OK


def _read_levels(text: str) -> list:
    try:
        lengths = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--levels must be lengths joined by commas, such as 8,9,10, "
                         f"got {text!r}") from None
    if min(lengths) < 1:
        raise ValueError(f"--levels lengths must be at least 1, got {min(lengths)}")
    return lengths


# The kinds `family` runs, by the flag that selects each (None: the two-level
# family, run when no mode flag is given): the kind, the flag each parameter but
# alpha is read from, and the summary line made from (parameters, results,
# certificates).  A flag not given takes its FAMILY_DEFAULTS value, or None.
FAMILY_KINDS = {
    "--schedule": ("family-schedule", {"count": "--schedule", "first_length": "--n-min",
                                       "max_length": "--max-length"},
                   lambda p, r, c: f"{len(r['intervals'])} disjoint certified intervals"),
    "--levels": ("family-levels", {"lengths": "--levels"},
                 lambda p, r, c: f"explicit random levels {p['lengths']}, sizes "
                                 f"{[len(lv['strings_hex']) for lv in r['family']['levels']]}"),
    "--derandomize": ("family-derandomize", {"epsilon": "--epsilon",
                                             "level_length": "--level-length",
                                             "dist": "--derandomize"},
                      lambda p, r, c: f"derandomized, avoid probability {c['avoid_probability']} "
                                      f"< {p['epsilon']}"),
    None: ("family", {"epsilon": "--epsilon", "n_min": "--n-min"},
           lambda p, r, c: f"lengths ({r['random_length']}, {r['top_length']}), miss bound "
                           f"{c['miss_bound']} < {p['epsilon']}"),
}
FAMILY_DEFAULTS = {"--epsilon": "1/2", "--n-min": 2, "--max-length": 24}
FAMILY_READERS = {"--levels": _read_levels, "--derandomize": _load_json}  # others: as parsed


def cmd_family(args) -> int:
    given = {"--" + k.replace("_", "-"): v for k, v in vars(args).items() if v is not None}
    modes = [mode for mode in FAMILY_KINDS if mode in given] or [None]
    if len(modes) > 1:
        *others, last = filter(None, FAMILY_KINDS)
        raise ValueError(f"{', '.join(modes)}: give only one of {', '.join(others)} and {last}")
    kind, flags, summary = FAMILY_KINDS[modes[0]]
    unread = [flag for _, reads, _ in FAMILY_KINDS.values() for flag in reads.values()
              if flag in given and flag not in flags.values()]
    if unread:
        readers = [mode or "the two-level family"
                   for mode, (_, reads, _) in FAMILY_KINDS.items() if unread[0] in reads.values()]
        raise ValueError(f"{unread[0]} applies only with {' or '.join(readers)}")
    # dist_family is read only by a schedule: its distributions are the uniform ones
    parameters, results, certificates, written = _run(args, kind, {
        "alpha": args.alpha, "dist_family": "uniform", **{
            name: FAMILY_READERS.get(flag, _same)(given.get(flag, FAMILY_DEFAULTS.get(flag)))
            for name, flag in flags.items()}})
    if args.out:
        _write_json(args.out, written)
    print(f"family: {summary(parameters, results, certificates)}")
    return EXIT_OK


def cmd_adversary(args) -> int:
    parameters, results, certificates, family = _run(args, "adversary", {
        "dist": _load_json(args.dist), "n": args.n, "epsilon": args.epsilon})
    if args.out:
        _write_json(args.out, family)
    print(f"adversary: n={args.n} N={results['N']} "
          f"certificate {certificates['avoid_probability']} < {parameters['epsilon']}")
    return EXIT_OK


def cmd_avoid(args) -> int:
    _, results, _, string = _run(args, "avoid", {
        "family": _load_json(args.family), "length": args.length, "budget": args.budget})
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
    parameters = {"bits_text": bits, "bits_sha256": _sha256_bits(bits), "bit_count": len(bits),
                  "window": args.window, "stride": args.stride}
    *_, profile = _run(args, "profile", parameters)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("offset,bits\n")
            for o, s in zip(profile.offsets, profile.sizes):
                fh.write(f"{o},{s}\n")
    print(f"profile: {len(profile.offsets)} windows, min {profile.min_size} bits, "
          f"mean {profile.mean_size:.1f} bits")
    return EXIT_OK


def _envelope_faults(doc: dict, kind: Kind) -> list:
    """What is wrong with a report's top level besides its three sections."""
    faults = [f"top-level key {key!r} is not a report key" for key in doc
              if key not in REPORT_KEYS]
    seed, wall = doc["seed"], doc["wall_time_s"]
    if kind.seeded and type(seed) is not int:
        faults.append(f"seed must be an integer for {doc['command']}, got {seed!r}")
    elif not kind.seeded and seed is not None:
        faults.append(f"seed must be null for {doc['command']}, got {seed!r}")
    if type(wall) not in (int, float) or not 0 <= wall < float("inf"):
        faults.append(f"wall_time_s must be a non-negative number, got {wall!r}")
    return faults


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
    faults = _envelope_faults(doc, kind)
    for fault in faults:
        print(f"verify: FAIL {fault}")
    if faults:
        return EXIT_VERIFY_FAILED
    try:
        values, parameters = _parameters(kind, doc["parameters"])
        check = kind.check or (lambda values, seed, results: kind.run(values, seed)[:2])
        derived = dict(zip(sections, (parameters, *check(values, doc["seed"], doc["results"]))))
    except INPUT_ERRORS + (KeyError, TypeError) as exc:
        print(f"verify: FAIL the report does not reproduce: {type(exc).__name__}: {exc}")
        return EXIT_VERIFY_FAILED
    problems = [f"{section}.{key}" for section, fields in derived.items()
                for key in differing_keys(doc[section], fields)]
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
    p.add_argument("--epsilon",
                   help="rational like 1/4 (default 1/2); two-level and --derandomize only")
    p.add_argument("--n-min", type=int,
                   help="least random or first level length (default 2); two-level and "
                        "--schedule only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--levels", help="comma-separated lengths: emit explicit random level sets")
    p.add_argument("--derandomize", help="distribution JSON to derandomize against")
    p.add_argument("--level-length", type=int, help="the random level's length; --derandomize only")
    p.add_argument("--schedule", type=int, help="build this many disjoint certified intervals")
    p.add_argument("--max-length", type=int, help="max top length (default 24); --schedule only")
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
