"""Command line front end.

Subcommands construct instances, enumerate faces, verify the closed-form
counts against the exact enumeration, report redundant rows, and emit
JSON/CSV reports. Every enumerating command, `profile` included, goes
through one faces.Analysis and its work cap, and none runs a linear
program; verify checks the cap before it builds its instance. A command
imports constructors, formulas and hvector only if it runs them.
Machine output goes to stdout, human-readable errors to stderr.

Exit codes: 0 success (and, for verify, all checks pass), 1 a verification
check failed, 2 usage error, 3 rejected input (any ValueError: infeasible,
unbounded, not simple, divisibility, size cap) or unwritable output, 4
internal error (a failed invariant, i.e. a bug; one line on stderr), 141
the reader closed stdout early (128 + SIGPIPE; nothing on stderr).

_emit writes every JSON document in one frame: schema_version 1 and the
command first, then the command's own fields, and last the timing_ms
block, the only nondeterministic fields, which --no-timing drops so that
identical invocations print byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import faces, model

VERIFY_SEEDS = (0, 1, 2)
VACUOUS_RIDGE = "vacuous: bound is at least C(n,2)"


def _emit(command: str, fields: dict, timing: dict | None = None) -> None:
    """Print one JSON document in the frame every command shares:
    schema_version and command first, then `fields` in their order, then
    timing_ms if `timing` is given."""
    doc = {"schema_version": 1, "command": command, **fields}
    if timing is not None:
        doc["timing_ms"] = timing
    print(json.dumps(doc, indent=2))


def _timer():
    start = time.perf_counter()
    return lambda: round((time.perf_counter() - start) * 1000, 3)


def _read_polytope(path: str) -> model.HPolytope:
    try:
        with open(path, "rb") as fh:
            return model.parse_hrep(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


class UsageError(Exception):
    pass


def _require_at_least(args, name: str, low: int) -> None:
    """Reject an integer option below `low`; an omitted option passes."""
    value = getattr(args, name)
    if value is not None and value < low:
        flag = name.replace("_", "-")
        raise UsageError(f"--{flag} must be at least {low}, got {value}")


def _family_tag(args) -> model.FamilyTag:
    """The constructor instance named by args.family, args.n and args.d."""
    from . import constructors
    fixed = constructors.FAMILIES[args.family].fixed_dim
    if fixed is None and args.d is None:
        raise UsageError(f"family {args.family!r} requires --d")
    if fixed is not None and args.d is not None and args.d != fixed:
        raise UsageError(f"family {args.family!r} is {fixed}-dimensional")
    _require_at_least(args, "n", 0)
    _require_at_least(args, "d", 0)
    return model.FamilyTag(args.family, args.n, fixed or args.d)


def cmd_construct(args) -> int:
    from . import constructors
    p = constructors.from_family(_family_tag(args))
    text = model.serialize_hrep(p)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_fvector(args) -> int:
    _require_at_least(args, "max_work", 1)
    elapsed = _timer()
    p = _read_polytope(args.infile)
    if args.method == "formula":
        if p.family is None:
            raise ValueError(
                "formula method requires a recognized family tag "
                "('# family: NAME n=.. d=..') in the input file")
        if (p.family.n, p.family.d) != (p.n, p.dim):
            raise ValueError(f"family tag n={p.family.n} d={p.family.d} does "
                             f"not match the header n={p.n} d={p.dim}")
        from . import constructors
        f = constructors.FAMILIES[p.family.name].f_vector(p.family.n, p.family.d)
    else:
        f = faces.Analysis(p, args.max_work).f_vector
    _emit("fvector", {
        "n": p.n,
        "d": p.dim,
        "method": args.method,
        "family": p.family.name if p.family else None,
        "f": list(f),
    }, None if args.no_timing else {"total": elapsed()})
    return 0


def cmd_hvector(args) -> int:
    _require_at_least(args, "repeat", 1)
    elapsed = _timer()
    p = _read_polytope(args.infile)
    analysis = faces.Analysis(p)
    from . import hvector
    seeds = [args.seed + i for i in range(args.repeat)]
    per_seed = [hvector.indegree_hvector(analysis, s) for s in seeds]
    _emit("hvector", {
        "n": p.n,
        "d": p.dim,
        "seeds": seeds,
        "h_per_seed": [list(h) for h in per_seed],
        "agree": len(set(per_seed)) == 1,
        "h": list(per_seed[0]),
    }, None if args.no_timing else {"total": elapsed()})
    return 0


def cmd_verify(args) -> int:
    from . import constructors, formulas, hvector
    _require_at_least(args, "max_work", 1)
    total = _timer()
    timing: dict[str, float] = {}

    def timed(stage: str, compute):
        """compute()'s value; its milliseconds go to timing[stage]."""
        elapsed = _timer()
        value = compute()
        timing[stage] = elapsed()
        return value

    tag = _family_tag(args)
    faces.check_caps(tag.n, tag.d, args.max_work)  # exit before building an over-cap instance
    p = constructors.from_family(tag)
    analysis = faces.Analysis(p, args.max_work)
    n, d = p.n, p.dim
    bounded = timed("bounded", lambda: analysis.bounded)
    f_enum = timed("enumerate", lambda: analysis.f_vector)
    f_formula = timed("formula", lambda: constructors.FAMILIES[args.family].f_vector(n, d))
    profile = model.li2_profile(p)
    h_transform = hvector.h_from_f(f_enum)
    # Orienting the edges needs a bounded polytope; the stage is timed either way.
    per_seed = timed("hvector", lambda: [hvector.indegree_hvector(analysis, s)
                                         for s in VERIFY_SEEDS] if bounded else [])
    two_variable = profile.is_li2 and d >= 4 and bounded
    checks = {  # in the order the output lists them
        "oracle_match": f_enum == f_formula,
        # P itself counted: 1 for a polytope, 0 for a pointed unbounded polyhedron.
        "euler": sum((-1) ** k * f_enum[k] for k in range(d + 1)) == int(bounded),
        "h_independence": not bounded or set(per_seed) == {h_transform},
        "ubt": timed("ubt", lambda: hvector.strengthened_ubt_check(analysis)),
        **timed("bounds", lambda: {
            "lemma41": analysis.facet_adjacency_count
                       <= formulas.lemma41_bound(n, profile.n_prime, d),
            "thm42_strict": all(f_enum[k] < formulas.fk_dual_cyclic(n, d, k)
                                for k in range(d - 1)),
        } if two_variable else dict.fromkeys(("lemma41", "thm42_strict"), True)),
    }
    notes = [] if bounded else [
        "euler: unbounded instance, checked alternating sum = 0",
        "h_independence: skipped, orientation needs a bounded polytope"]
    if not two_variable:
        notes += [f"{name}: skipped, needs a bounded two-variable system with d >= 4"
                  for name in ("lemma41", "thm42_strict")]
    elif formulas.two_variable_deficit(profile.n_prime, d) <= 0:
        notes.append(f"lemma41: {VACUOUS_RIDGE}")

    overall = all(checks.values())
    timing["total"] = total()

    if args.json:
        _emit("verify", {
            "instance": {"family": args.family, "n": n, "d": d},
            "bounded": bounded,
            "f_enumerated": list(f_enum),
            "f_formula": list(f_formula),
            "h_indegree": list(per_seed[0]) if per_seed else None,
            "h_from_f": list(h_transform),
            "checks": checks,
            "notes": notes,
            "pass": overall,
        }, None if args.no_timing else timing)
    else:
        print(f"instance: {args.family} n={n} d={d} "
              f"({'bounded' if bounded else 'unbounded'})")
        print(f"f (enumerated): {' '.join(map(str, f_enum))}")
        print(f"f (formula):    {' '.join(map(str, f_formula))}")
        if per_seed:
            print(f"h (indegree):   {' '.join(map(str, per_seed[0]))}")
        print(f"h (from f):     {' '.join(map(str, h_transform))}")
        for name, ok in checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
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
    except ValueError as exc:
        warnings.append(f"redundancy scan skipped: {exc}")
        exit_code = 3
    _emit("profile", {
        "n": p.n,
        "d": p.dim,
        "is_li2": profile.is_li2,
        "n_prime": profile.n_prime,
        "single_var_count": profile.single_var_count,
        "pair_counts": [{"pair": list(pair), "count": count}
                        for pair, count in sorted(profile.pair_counts.items())],
        "redundant_indices": redundant,
        "warnings": warnings,
    })
    return exit_code


def cmd_report_ratio(args) -> int:
    from . import formulas
    _require_at_least(args, "step", 1)
    _require_at_least(args, "decimal", 0)
    ns = list(range(args.n_start, args.n_end + 1, args.step))
    if not ns:
        raise UsageError("empty n range")
    rows = formulas.ratio_report(args.d, ns, args.k)
    places = args.decimal
    if places is not None:
        for row in rows:  # the ratio truncated to `places` decimals
            whole, rest = divmod(row["ratio"] * 10 ** places // 1, 10 ** places)
            row["ratio_decimal"] = f"{whole}.{rest:0{places}d}" if places else str(whole)
    if args.csv:
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(str(value).lower() for value in row.values()))
        return 0
    _emit("report-ratio", {
        "d": args.d,
        "k": args.k,
        # Each row's fields in order: ints and bools as they are, the rest as strings.
        "rows": [{name: value if isinstance(value, int) else str(value)
                  for name, value in row.items()} for row in rows],
    })
    return 0


def cmd_report_bounds(args) -> int:
    from . import formulas
    n, np_, d = args.n, args.n_prime, args.d
    ridge = formulas.lemma41_bound(n, np_, d)  # validates d >= 4 first
    deficit = formulas.two_variable_deficit(np_, d)
    _emit("report-bounds", {
        "n": n,
        "n_prime": np_,
        "d": d,
        "ridge_bound": str(ridge),
        "ridge_note": VACUOUS_RIDGE if deficit <= 0 else "",
        "ridge_count_max": formulas.binom(n, 2),
        "deficit": str(deficit),
        "deficit_vacuous": deficit <= 0,
        "per_k": [{
            "k": k,
            "f_dual_cyclic": formulas.fk_dual_cyclic(n, d, k),
            "bound_proof_chain": str(formulas.thm42_bound(n, np_, d, k)),
            "bound_literal": str(formulas.thm42_bound_literal(n, np_, d, k)),
        } for k in range(d - 1)],
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="li2poly",
        description="Exact face enumeration and complexity bounds for "
                    "two-variable-per-inequality polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write an H-rep for a known family")
    c.add_argument("family", choices=model.FAMILY_NAMES)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    f = sub.add_parser("fvector", help="f-vector of an H-rep file")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--method", choices=("enumerate", "formula"), required=True)
    f.add_argument("--max-work", type=int, default=faces.DEFAULT_MAX_WORK)
    f.add_argument("--no-timing", action="store_true")
    f.set_defaults(func=cmd_fvector)

    h = sub.add_parser("hvector", help="indegree h-vector under seeded objectives")
    h.add_argument("--in", dest="infile", required=True)
    h.add_argument("--seed", type=int, required=True)
    h.add_argument("--repeat", type=int, default=1)
    h.add_argument("--no-timing", action="store_true")
    h.set_defaults(func=cmd_hvector)

    v = sub.add_parser("verify", help="enumerate, evaluate formulas, check bounds")
    v.add_argument("family", choices=model.FAMILY_NAMES)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int)
    v.add_argument("--json", action="store_true")
    v.add_argument("--max-work", type=int, default=faces.DEFAULT_MAX_WORK)
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
    rr.set_defaults(func=cmd_report_ratio)

    rb = repsub.add_parser("bounds", help="ridge and separation bound values")
    rb.add_argument("--n", type=int, required=True)
    rb.add_argument("--n-prime", type=int, required=True)
    rb.add_argument("--d", type=int, required=True)
    rb.set_defaults(func=cmd_report_bounds)

    return parser


def run(argv) -> int:
    import gc  # main() froze the start-up heap; run() must not, as it also runs in-process
    # No import garbage is left under main()'s freeze, yet without this call verify's
    # peak RSS rose by up to 0.1 MiB; a full collection also clears the free lists.
    gc.collect()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    gc.collect()  # frees argparse's parser, about 70 KB of reference cycles
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        message = " ".join(str(exc).split()) or "assertion failed"
        print(f"internal error: {message}", file=sys.stderr)
        return 4


def main() -> None:
    import gc
    gc.freeze()  # one process, one command: what lives now lives until exit, unwalked
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # With fd 1 on the null device the exit flush cannot raise again. A
        # closed pipe exits quietly with 128 + SIGPIPE, as a shell would.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = 141
        else:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
