"""Command line front end.

Subcommands construct instances, enumerate faces, verify the closed-form
counts against the exact enumeration, report redundant rows, and emit
JSON/CSV reports. Every enumerating command, `profile` included, goes
through one faces.Analysis and its caps, and none runs a linear program.
Machine output goes to stdout, human-readable errors to stderr.

Exit codes: 0 success (and, for verify, all checks pass), 1 a verification
check failed, 2 usage error, 3 input error (infeasible, unbounded where
boundedness is required, divisibility violation, size cap exceeded), 4
internal error (a failed invariant, i.e. a bug; one line on stderr).

JSON documents carry schema_version 1. Identical invocations produce
byte-identical output once --no-timing drops the only nondeterministic
fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import constructors, faces, formulas, hvector, model
from .errors import InputError

SCHEMA_VERSION = 1
VERIFY_SEEDS = (0, 1, 2)
CHECK_NAMES = ("oracle_match", "euler", "h_independence", "ubt",
               "lemma41", "thm42_strict")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _timer():
    start = time.perf_counter()
    return lambda: round((time.perf_counter() - start) * 1000, 3)


def _read_polytope(path: str) -> model.HPolytope:
    try:
        with open(path, "rb") as fh:
            return model.parse_hrep(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


class UsageError(Exception):
    pass


def _require_at_least(args, name: str, low: int) -> None:
    """Reject an integer option below `low`; an omitted option passes."""
    value = getattr(args, name)
    if value is not None and value < low:
        raise UsageError(f"--{name} must be at least {low}, got {value}")


def _build_instance(args) -> model.HPolytope:
    """The constructor instance named by args.family, args.n and args.d."""
    fixed = constructors.FAMILIES[args.family].fixed_dim
    if fixed is None and args.d is None:
        raise UsageError(f"family {args.family!r} requires --d")
    if fixed is not None and args.d is not None and args.d != fixed:
        raise UsageError(f"family {args.family!r} is {fixed}-dimensional")
    return constructors.from_family(
        model.FamilyTag(args.family, args.n, fixed or args.d))


def cmd_construct(args) -> int:
    p = _build_instance(args)
    text = model.serialize_hrep(p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_fvector(args) -> int:
    elapsed = _timer()
    p = _read_polytope(args.infile)
    if args.method == "formula":
        if p.family is None:
            raise InputError(
                "formula method requires a recognized family tag "
                "('# family: NAME n=.. d=..') in the input file")
        f = constructors.FAMILIES[p.family.name].f_vector(p.family.n, p.family.d)
    else:
        f = faces.Analysis(p, args.max_subsets).f_vector
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "fvector",
        "n": p.n,
        "d": p.dim,
        "method": args.method,
        "family": p.family.name if p.family else None,
        "f": list(f),
    }
    if not args.no_timing:
        doc["timing_ms"] = {"total": elapsed()}
    _emit(doc)
    return 0


def cmd_hvector(args) -> int:
    _require_at_least(args, "repeat", 1)
    elapsed = _timer()
    p = _read_polytope(args.infile)
    analysis = faces.Analysis(p)
    seeds = [args.seed + i for i in range(args.repeat)]
    per_seed = [hvector.indegree_hvector(analysis, s) for s in seeds]
    agree = len(set(per_seed)) == 1
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "hvector",
        "n": p.n,
        "d": p.dim,
        "seeds": seeds,
        "h_per_seed": [list(h) for h in per_seed],
        "agree": agree,
        "h": list(per_seed[0]),
    }
    if not args.no_timing:
        doc["timing_ms"] = {"total": elapsed()}
    _emit(doc)
    return 0


def cmd_verify(args) -> int:
    total = _timer()
    timing: dict[str, float] = {}
    notes: list[str] = []
    p = _build_instance(args)
    analysis = faces.Analysis(p, args.max_subsets)
    n, d = p.n, p.dim

    stage = _timer()
    bounded = analysis.bounded
    timing["bounded"] = stage()

    stage = _timer()
    f_enum = analysis.f_vector
    timing["enumerate"] = stage()

    stage = _timer()
    f_formula = constructors.FAMILIES[args.family].f_vector(n, d)
    timing["formula"] = stage()

    profile = model.li2_profile(p)
    h_transform = hvector.h_from_f(f_enum)

    checks: dict[str, bool] = {}
    checks["oracle_match"] = f_enum == f_formula

    if bounded:
        reduced = sum((-1) ** k * f_enum[k] for k in range(d))
        checks["euler"] = reduced == 1 - (-1) ** d
    else:
        alternating = sum((-1) ** k * f_enum[k] for k in range(d + 1))
        checks["euler"] = alternating == 0
        notes.append("euler: unbounded instance, checked alternating sum = 0")

    stage = _timer()
    h_indegree = None
    if bounded:
        per_seed = [hvector.indegree_hvector(analysis, s) for s in VERIFY_SEEDS]
        h_indegree = per_seed[0]
        checks["h_independence"] = (len(set(per_seed)) == 1
                                    and per_seed[0] == h_transform)
    else:
        checks["h_independence"] = True
        notes.append("h_independence: skipped, orientation needs a bounded polytope")
    timing["hvector"] = stage()

    stage = _timer()
    checks["ubt"] = hvector.strengthened_ubt_check(analysis, n).satisfied
    timing["ubt"] = stage()

    stage = _timer()
    if profile.is_li2 and d >= 4 and bounded:
        ridge = formulas.ridge_bound_report(n, profile.n_prime, d,
                                            observed=f_enum[d - 2])
        checks["lemma41"] = ridge.satisfied
        if ridge.note:
            notes.append(f"lemma41: {ridge.note}")
        checks["thm42_strict"] = all(
            f_enum[k] < formulas.fk_dual_cyclic(n, d, k) for k in range(d - 1))
    else:
        checks["lemma41"] = checks["thm42_strict"] = True
        notes.append("lemma41: skipped, needs a bounded two-variable system with d >= 4")
        notes.append("thm42_strict: skipped, needs a bounded two-variable system with d >= 4")
    timing["bounds"] = stage()

    overall = all(checks[name] for name in CHECK_NAMES)
    timing["total"] = total()

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "instance": {"family": args.family, "n": n, "d": d},
        "bounded": bounded,
        "f_enumerated": list(f_enum),
        "f_formula": list(f_formula),
        "h_indegree": list(h_indegree) if h_indegree is not None else None,
        "h_from_f": list(h_transform),
        "checks": {name: checks[name] for name in CHECK_NAMES},
        "notes": notes,
        "pass": overall,
    }
    if not args.no_timing:
        doc["timing_ms"] = timing

    if args.json:
        _emit(doc)
    else:
        print(f"instance: {args.family} n={n} d={d} "
              f"({'bounded' if bounded else 'unbounded'})")
        print(f"f (enumerated): {' '.join(map(str, f_enum))}")
        print(f"f (formula):    {' '.join(map(str, f_formula))}")
        if h_indegree is not None:
            print(f"h (indegree):   {' '.join(map(str, h_indegree))}")
        print(f"h (from f):     {' '.join(map(str, h_transform))}")
        for name in CHECK_NAMES:
            print(f"check {name}: {'pass' if checks[name] else 'FAIL'}")
        for note in notes:
            print(f"note: {note}")
        print(f"overall: {'pass' if overall else 'FAIL'}")
    return 0 if overall else 1


def cmd_profile(args) -> int:
    p = _read_polytope(args.infile)
    profile = model.li2_profile(p)
    warnings: list[str] = []
    redundant: list[int] | None = None
    exit_code = 0
    try:
        redundant = sorted(faces.Analysis(p).redundant)
        if redundant:
            warnings.append(
                "redundant rows present; the separation bounds assume a "
                "nonredundant system")
    except InputError as exc:
        warnings.append(f"redundancy scan skipped: {exc}")
        exit_code = 3
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "profile",
        "n": p.n,
        "d": p.dim,
        "is_li2": profile.is_li2,
        "n_prime": profile.n_prime,
        "single_var_count": profile.single_var_count,
        "pair_counts": [{"pair": list(pair), "count": count}
                        for pair, count in sorted(profile.pair_counts.items())],
        "redundant_indices": redundant,
        "warnings": warnings,
    }
    _emit(doc)
    return exit_code


def cmd_report_ratio(args) -> int:
    _require_at_least(args, "step", 1)
    _require_at_least(args, "decimal", 0)
    ns = list(range(args.n_start, args.n_end + 1, args.step))
    if not ns:
        raise UsageError("empty n range")
    rows = formulas.ratio_report(args.d, ns, args.k, args.slack)
    if args.csv:
        header = ["n", "f_dual_cyclic", "f_pstar", "ratio", "threshold",
                  "within_envelope"]
        if args.decimal is not None:
            header.append("ratio_decimal")
        print(",".join(header))
        for r in rows:
            cells = [str(r.n), str(r.f_dual_cyclic), str(r.f_pstar),
                     str(r.ratio), str(r.threshold), str(r.within_envelope).lower()]
            if args.decimal is not None:
                scaled = r.ratio.numerator * 10 ** args.decimal // r.ratio.denominator
                text = str(scaled).rjust(args.decimal + 1, "0")
                cells.append(f"{text[:-args.decimal] or '0'}.{text[-args.decimal:]}"
                             if args.decimal else text)
            print(",".join(cells))
        return 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "report-ratio",
        "d": args.d,
        "k": args.k,
        "envelope_slack": args.slack,
        "rows": [{
            "n": r.n,
            "f_dual_cyclic": r.f_dual_cyclic,
            "f_pstar": r.f_pstar,
            "ratio": str(r.ratio),
            "threshold": str(r.threshold),
            "residue": str(r.residue),
            "within_envelope": r.within_envelope,
        } for r in rows],
    }
    _emit(doc)
    return 0


def cmd_report_bounds(args) -> int:
    n, np_, d = args.n, args.n_prime, args.d
    deficit = formulas.two_variable_deficit(np_, d)
    ridge = formulas.ridge_bound_report(n, np_, d)
    separation = formulas.separation_bound_reports(n, np_, d)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "report-bounds",
        "n": n,
        "n_prime": np_,
        "d": d,
        "ridge_bound": str(ridge.formula_value),
        "ridge_note": ridge.note,
        "ridge_count_max": formulas.binom(n, 2),
        "deficit": str(deficit),
        "deficit_vacuous": deficit <= 0,
        "per_k": [{
            "k": k,
            "f_dual_cyclic": formulas.fk_dual_cyclic(n, d, k),
            "bound_proof_chain": str(row.formula_value),
            "bound_literal": str(formulas.thm42_bound_literal(n, np_, d, k)),
        } for k, row in enumerate(separation)],
    }
    _emit(doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="li2poly",
        description="Exact face enumeration and complexity bounds for "
                    "two-variable-per-inequality polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write an H-rep for a known family")
    c.add_argument("family", choices=tuple(constructors.FAMILIES))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    f = sub.add_parser("fvector", help="f-vector of an H-rep file")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--method", choices=("enumerate", "formula"), required=True)
    f.add_argument("--max-subsets", type=int)
    f.add_argument("--no-timing", action="store_true")
    f.set_defaults(func=cmd_fvector)

    h = sub.add_parser("hvector", help="indegree h-vector under seeded objectives")
    h.add_argument("--in", dest="infile", required=True)
    h.add_argument("--seed", type=int, required=True)
    h.add_argument("--repeat", type=int, default=1)
    h.add_argument("--no-timing", action="store_true")
    h.set_defaults(func=cmd_hvector)

    v = sub.add_parser("verify", help="enumerate, evaluate formulas, check bounds")
    v.add_argument("family", choices=("pstar", "dualcyclic", "prism3"))
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int)
    v.add_argument("--json", action="store_true")
    v.add_argument("--max-subsets", type=int)
    v.add_argument("--no-timing", action="store_true")
    v.set_defaults(func=cmd_verify)

    pr = sub.add_parser("profile", help="two-variable profile and redundancy report")
    pr.add_argument("--in", dest="infile", required=True)
    pr.set_defaults(func=cmd_profile)

    rep = sub.add_parser("report", help="formula-only reports")
    repsub = rep.add_subparsers(dest="report_kind", required=True)

    rr = repsub.add_parser("ratio", help="dual cyclic / paired polygon ratios")
    rr.add_argument("--d", type=int, required=True)
    rr.add_argument("--k", type=int, required=True)
    rr.add_argument("--n-start", type=int, required=True)
    rr.add_argument("--n-end", type=int, required=True)
    rr.add_argument("--step", type=int, required=True)
    rr.add_argument("--csv", action="store_true")
    rr.add_argument("--decimal", type=int)
    rr.add_argument("--slack", type=int, default=8)
    rr.set_defaults(func=cmd_report_ratio)

    rb = repsub.add_parser("bounds", help="ridge and separation bound values")
    rb.add_argument("--n", type=int, required=True)
    rb.add_argument("--n-prime", type=int, required=True)
    rb.add_argument("--d", type=int, required=True)
    rb.set_defaults(func=cmd_report_bounds)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        message = " ".join(str(exc).split()) or "assertion failed"
        print(f"internal error: {message}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
