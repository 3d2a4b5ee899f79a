"""li2poly benchmark: the real CLI end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; stdlib only. The program is run from
``src/`` as it stands, so nothing needs to be installed.

Workloads (fixed command lists; every command's output is checked):

- ``verify_li2``: ``verify pstar`` on (12,6) and (13,7), the paper's
  headline two-variable instances. Face lattice, geometry and h-vector work
  dominate; (13,7) is unbounded and runs the recession rays.
- ``verify_dense``: ``verify dualcyclic`` on (10,4) and (9,5). Same
  pipeline, dense rows and large moment-curve entries; the simplex
  dominates.
- ``file_scan``: the one-pass file commands on inputs built at set-up:
  ``fvector --method enumerate`` on pstar(12,6) (one lattice build),
  ``profile`` on dual_cyclic(24,6) (large dense LPs, no face work), and an
  over-cap probe on dual_cyclic(60,7): ``fvector`` and ``hvector`` are each
  expected to exit 3 within PROBE_DEADLINE_S and are killed when it passes.

The seed permutes the rows of the ``file_scan`` input files; f-vectors and
profiles do not depend on row order, so the expected outputs do not either.
The ``verify_*`` workloads build their instances inside the CLI and do not
use the seed.

With ``--trace 0`` one client runs a closed loop: it starts each command as
a subprocess only after the previous one has ended, and repeats passes over
the command list while another pass still fits in ``--seconds``. It reports
the medians over passes of:

- ``setup_s``: building the workload's input files through ``li2poly
  construct`` (with the seeded row permutation) and reading their
  closed-form f-vectors through ``fvector --method formula``; median of
  SETUP_ROUNDS rounds;
- ``wall_s``: wall time of one pass, summed over its commands;
- ``cpu_s``: user plus system CPU of the pass's commands;
- ``peak_rss_mb``: the largest maximum RSS of any command in the pass.

Each command is started and timed by ``perfbench/spawn.py``, a small
process of its own, so the RSS figure is the command's and not the
benchmark's.

With ``--trace 1`` it runs one untraced pass and two traced passes, in which
each command runs through ``perfbench/tracer.py``, and reports the
per-layer metrics named in BENCHMARK.json: call counts, self seconds (span
time minus child-span time), inclusive seconds, work yields and the tracing
overhead. Call counts and yields must be identical in both traced passes.

A command fails on a wrong exit code, stdout that differs from
``perfbench/expected/<label>.out`` (its output at the commit that defined
the benchmark), a closed-form mismatch, or a missed deadline. An over-cap
probe that is still running at its deadline is counted in
``cli.killed_at_deadline`` and ``killed`` instead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the seed, the environment and per-command
figures. A table of every metric goes to stderr. Each run keeps its inputs,
outputs and spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spawn import exit_on_sigterm, spawn
from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
WORK = ROOT / ".perfbench"

SETUP_ROUNDS = 5
TRACED_PASSES = 2
HARD_STOP_S = 170.0  # every run must end within 180 s
PROBE_DEADLINE_S = 2.0


def _h_from_f(f: list[int]) -> list[int]:
    """h_i = sum_{k>=i} (-1)^(k-i) C(k,i) f_k, computed here independently."""
    d = len(f) - 1
    return [sum((-1) ** (k - i) * math.comb(k, i) * f[k] for k in range(i, d + 1))
            for i in range(d + 1)]


def _check_verify(key: str):
    def check(doc: dict, closed: dict) -> list[str]:
        f = closed[key]
        problems = []
        if doc["f_enumerated"] != f:
            problems.append(f"f_enumerated {doc['f_enumerated']} != closed form {f}")
        if doc["h_from_f"] != _h_from_f(f):
            problems.append("h_from_f differs from the transform of the closed form")
        if doc["bounded"] and doc["h_indegree"] != _h_from_f(f):
            problems.append("h_indegree differs from the transform of the closed form")
        if doc["pass"] is not True:
            problems.append("verify did not pass")
        return problems
    return check


def _check_fvector(key: str):
    def check(doc: dict, closed: dict) -> list[str]:
        if doc["f"] != closed[key]:
            return [f"f {doc['f']} != closed form {closed[key]}"]
        return []
    return check


def _check_no_redundant(doc: dict, closed: dict) -> list[str]:
    if doc["redundant_indices"] != []:
        return [f"dual cyclic rows reported redundant: {doc['redundant_indices']}"]
    return []


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]  # "{key}" stands for the input file of instance key
    deadline_s: float
    exit_code: int = 0
    closed_form_check: Callable[[dict, dict], list[str]] | None = None
    probe: bool = False  # over-cap probe: a kill at the deadline is not a failure


@dataclass(frozen=True)
class Workload:
    instances: tuple[tuple[str, int, int], ...]  # (family, n, d)
    closed_form: tuple[str, ...]  # instance keys whose closed-form f set-up reads
    seeded: bool
    commands: tuple[Command, ...]


def _verify(family: str, n: int, d: int, deadline_s: float) -> Command:
    key = f"{family}_{n}_{d}"
    return Command(f"verify_{key}",
                   ("verify", family, "--n", str(n), "--d", str(d), "--json",
                    "--no-timing"),
                   deadline_s, closed_form_check=_check_verify(key))


WORKLOADS = {
    "verify_li2": Workload(
        (("pstar", 12, 6), ("pstar", 13, 7)),
        ("pstar_12_6", "pstar_13_7"), False,
        (_verify("pstar", 12, 6, 75.0), _verify("pstar", 13, 7, 75.0))),
    "verify_dense": Workload(
        (("dualcyclic", 10, 4), ("dualcyclic", 9, 5)),
        ("dualcyclic_10_4", "dualcyclic_9_5"), False,
        (_verify("dualcyclic", 10, 4, 40.0), _verify("dualcyclic", 9, 5, 40.0))),
    "file_scan": Workload(
        (("pstar", 12, 6), ("dualcyclic", 24, 6), ("dualcyclic", 60, 7)),
        ("pstar_12_6",), True,
        (Command("fvector_pstar_12_6",
                 ("fvector", "--method", "enumerate", "--in", "{pstar_12_6}",
                  "--no-timing"),
                 30.0, closed_form_check=_check_fvector("pstar_12_6")),
         Command("profile_dualcyclic_24_6", ("profile", "--in", "{dualcyclic_24_6}"),
                 60.0, closed_form_check=_check_no_redundant),
         Command("overcap_fvector_dualcyclic_60_7",
                 ("fvector", "--method", "enumerate", "--in",
                  "{dualcyclic_60_7}", "--no-timing"),
                 PROBE_DEADLINE_S, exit_code=3, probe=True),
         Command("overcap_hvector_dualcyclic_60_7",
                 ("hvector", "--seed", "0", "--in", "{dualcyclic_60_7}",
                  "--no-timing"),
                 PROBE_DEADLINE_S, exit_code=3, probe=True))),
}


@dataclass
class Outcome:
    label: str
    exit: int | None  # None when killed at the deadline
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None  # the tracer's document, on traced passes
    problems: list[str] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        return self.exit is None


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


class SetupError(Exception):
    pass


def _measure_command(argv: list[str], stem: Path, deadline_s: float) -> dict:
    """Run argv through spawn.py; return its exit, wall_s, cpu_s and rss_mb."""
    helper = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "spawn.py"), str(deadline_s),
         str(stem.with_suffix(".out")), str(stem.with_suffix(".err")), "--", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        report, _ = helper.communicate()
    except BaseException:
        helper.terminate()  # the helper kills and reaps the command first
        helper.wait()
        raise
    if helper.returncode != 0:
        raise RuntimeError(f"spawn.py exited {helper.returncode} for {argv}")
    return json.loads(report)


def _cli(args: list[str], scratch: Path) -> str:
    """Run a set-up command; its failure aborts the run."""
    code, _, _ = spawn([sys.executable, "-m", "li2poly.cli", *args],
                       str(scratch / "setup.out"), str(scratch / "setup.err"),
                       HARD_STOP_S)
    if code != 0:
        raise SetupError(f"li2poly {' '.join(args)} exited {code}: "
                         + (scratch / "setup.err").read_text(errors="replace")[-500:])
    return (scratch / "setup.out").read_text()


def _permute_rows(path: Path, rng: random.Random) -> None:
    lines = path.read_text().splitlines()
    head = 0
    while lines[head].startswith("#"):
        head += 1
    rows = lines[head + 1:]
    rng.shuffle(rows)
    path.write_text("\n".join(lines[:head + 1] + rows) + "\n")


def set_up(workload: Workload, seed: int, run_dir: Path) -> tuple[dict, dict]:
    """Build the input files; return (key -> path, key -> closed-form f)."""
    inputs = {}
    for family, n, d in workload.instances:
        key = f"{family}_{n}_{d}"
        path = run_dir / f"{key}.hrep"
        _cli(["construct", family, "--n", str(n), "--d", str(d), "--out", str(path)],
             run_dir)
        if workload.seeded:
            _permute_rows(path, random.Random(f"{seed}/{key}"))
        inputs[key] = str(path)
    closed = {}
    for key in workload.closed_form:
        out = _cli(["fvector", "--method", "formula", "--in", inputs[key],
                    "--no-timing"], run_dir)
        closed[key] = json.loads(out)["f"]
    return inputs, closed


def _expected(label: str) -> str:
    return (EXPECTED / f"{label}.out").read_text()


def check(cmd: Command, outcome: Outcome, closed: dict) -> list[str]:
    if outcome.killed:
        return [] if cmd.probe else [f"killed at its {cmd.deadline_s} s deadline"]
    problems = []
    if outcome.exit != cmd.exit_code:
        problems.append(f"exit {outcome.exit}, expected {cmd.exit_code}")
    if outcome.stdout != _expected(cmd.label):
        problems.append(f"stdout differs from expected/{cmd.label}.out")
    if not problems and cmd.closed_form_check is not None:
        problems += cmd.closed_form_check(json.loads(outcome.stdout), closed)
    return problems


def run_pass(workload: Workload, inputs: dict, closed: dict, run_dir: Path,
             name: str, traced: bool, hard_stop: float) -> Pass:
    outcomes = []
    for i, cmd in enumerate(workload.commands):
        args = [a.format(**inputs) for a in cmd.argv]
        stem = run_dir / f"{name}-{cmd.label}"
        spans = stem.with_suffix(".spans.json")
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(i),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "li2poly.cli", *args]
        deadline = min(cmd.deadline_s, hard_stop - time.perf_counter())
        usage = _measure_command(argv, stem, deadline)
        trace = None
        if traced and usage["exit"] is not None and spans.exists():
            trace = json.loads(spans.read_text())
            stdout = trace["stdout"]
        else:
            stdout = stem.with_suffix(".out").read_text(errors="replace")
        outcomes.append(Outcome(cmd.label, usage["exit"], stdout, usage["wall_s"],
                                usage["cpu_s"], usage["rss_mb"], trace))
    for cmd, outcome in zip(workload.commands, outcomes):
        outcome.problems = check(cmd, outcome, closed)
    return Pass(outcomes)


def layer_stats(p: Pass) -> dict[str, float]:
    """Per-function calls, self and inclusive seconds, and derived yields."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    extra: Counter = Counter()
    for outcome in p.outcomes:
        if outcome.trace is None:
            continue
        spans = outcome.trace["spans"]
        child_s = [0.0] * len(spans)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, _, name, start, end, x in spans:
            calls[name] += 1
            self_s[name] += end - start - child_s[sid]
            total_s[name] += end - start
            if x is not None:
                extra[name] += x
    stats: dict[str, float] = {}
    traced = {f"{m}.{fn}" for m, names in TRACED.items() for fn in names}
    for name in traced | set(calls):
        stats[f"{name}.calls"] = calls[name]
        stats[f"{name}.self_s"] = self_s[name]
        stats[f"{name}.total_s"] = total_s[name]
    for name in list(self_s):  # cli.self_s is cli.run minus all traced children
        module = name.split(".")[0]
        stats[f"{module}.self_s"] = stats.get(f"{module}.self_s", 0.0) + self_s[name]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    relint = calls["geometry.relative_interior_point"]
    square = calls["ratlin.solve_linear_system"]
    stats["faces.candidate_yield"] = ratio(extra["faces.face_lattice"], relint)
    stats["faces.vertex_yield"] = ratio(extra["faces.enumerate_vertices"], square)
    stats["ratlin.singular_frac"] = ratio(extra["ratlin.solve_linear_system"], square)
    stats["simplex.solve_lp_max.mean_rows"] = ratio(
        extra["simplex.solve_lp_max"], calls["simplex.solve_lp_max"])
    return stats


def _is_work_count(key: str) -> bool:
    return key.endswith((".calls", "_yield", "_frac", ".mean_rows"))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "li2poly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _git_commit(),
            "src_sha256": digest.hexdigest(),
            "loadavg_1m_start": os.getloadavg()[0]}


def _metric_specs(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def _metrics(section: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in _metric_specs(section)}


def _tally(passes: list[Pass]) -> tuple[int, int, int, list[str]]:
    attempted = failed = kills = 0
    problems = []
    for i, p in enumerate(passes):
        for o in p.outcomes:
            attempted += 1
            kills += o.killed and not o.problems
            if o.problems:
                failed += 1
                problems.append(f"pass {i} {o.label}: {'; '.join(o.problems)}")
    return attempted, failed, kills, problems


def _per_command(passes: list[Pass]) -> dict:
    table: dict[str, dict] = {}
    for p in passes:
        for o in p.outcomes:
            row = table.setdefault(o.label, {"wall_s": [], "cpu_s": [],
                                             "rss_mb": [], "exit": []})
            row["wall_s"].append(o.wall_s)
            row["cpu_s"].append(o.cpu_s)
            row["rss_mb"].append(o.rss_mb)
            row["exit"].append("killed" if o.killed else o.exit)
    return table


def measure(workload: Workload, seed: int, seconds: int, run_dir: Path,
            hard_stop: float) -> tuple[dict, list[Pass], dict]:
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        inputs, closed = set_up(workload, seed, run_dir)
        setup_times.append(time.perf_counter() - start)
    begin = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(workload, inputs, closed, run_dir,
                               f"pass{len(passes)}", False, hard_stop))
        spent = time.perf_counter() - begin
        if spent + passes[-1].wall_s > min(seconds, hard_stop - begin):
            break
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(p.wall_s for p in passes),
              "cpu_s": statistics.median(p.cpu_s for p in passes),
              "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes)}
    return values, passes, {"setup_s_rounds": setup_times}


def measure_traced(workload: Workload, seed: int, run_dir: Path,
                   hard_stop: float) -> tuple[dict, list[Pass], dict]:
    inputs, closed = set_up(workload, seed, run_dir)
    plain = run_pass(workload, inputs, closed, run_dir, "untraced", False, hard_stop)
    traced = [run_pass(workload, inputs, closed, run_dir, f"traced{i}", True,
                       hard_stop) for i in range(TRACED_PASSES)]
    for p in traced:
        for o, ref in zip(p.outcomes, plain.outcomes):
            if not o.killed and not ref.killed and o.stdout != ref.stdout:
                o.problems.append("traced stdout differs from the untraced run")
    stats = [layer_stats(p) for p in traced]
    mismatched = sorted(
        k for k in set(stats[0]) | set(stats[1])
        if _is_work_count(k) and stats[0].get(k) != stats[1].get(k))
    values = {k: v for k, v in stats[0].items() if _is_work_count(k)}
    for k in stats[0]:
        if k.endswith("_s"):
            values[k] = statistics.median(s.get(k, 0.0) for s in stats)
    values["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / plain.wall_s - 1)
    values["cli.killed_at_deadline"] = statistics.median(
        _tally([p])[2] for p in [plain, *traced])
    calls_per_command = {o.label: Counter(s[2] for s in o.trace["spans"])
                         for o in traced[0].outcomes if o.trace is not None}
    absent = sorted({name for p in traced for o in p.outcomes if o.trace
                     for name in o.trace["absent"]})
    record = {"absent": absent, "work_count_mismatch": mismatched,
              "calls_per_command": calls_per_command}
    return values, [plain, *traced], record


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}", file=sys.stderr)
    for name, value in sorted(values.items()):
        unit = units.get(name) or ("s" if name.endswith("_s") else
                                   "count" if name.endswith(".calls") else "")
        print(f"  {name:<48} {value:>14.6g} {unit}", file=sys.stderr)


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    workload = WORKLOADS[name]
    env = environment()
    run_dir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    hard_stop = time.perf_counter() + HARD_STOP_S
    if trace:
        values, passes, extra = measure_traced(workload, seed, run_dir, hard_stop)
        section = "per_layer"
    else:
        values, passes, extra = measure(workload, seed, seconds, run_dir, hard_stop)
        section = "end_to_end"
    attempted, failed, kills, problems = _tally(passes)
    if trace and extra["work_count_mismatch"]:
        problems.append("work counts differ between the two traced passes: "
                        + ", ".join(extra["work_count_mismatch"]))
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    record = {"workload": name, "seed": seed, "seed_applies": workload.seeded,
              "trace": trace, "seconds": seconds, "passes": len(passes),
              "failed_frac": failed / attempted, "killed_at_deadline": kills,
              "environment": env, "per_command": _per_command(passes), **extra}
    units = {m["name"]: m["unit"] for m in _metric_specs(section)}
    seed_note = "" if workload.seeded else " (unused: verify builds its own instances)"
    _print_table(f"{name} seed={seed}{seed_note} trace={trace} passes={len(passes)} "
                 f"failed_frac={failed / attempted:.4g} killed={kills}",
                 values, units)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": _metrics(section, values)}
    (run_dir / "record.json").write_text(
        json.dumps({"record": record, "result": result, "all_values": values},
                   indent=1))
    print(json.dumps(record))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    exit_on_sigterm()
    if not (SRC / "li2poly" / "cli.py").is_file():
        print(f"error: no li2poly sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)  # every command runs the sources as they stand
    try:
        if args.workload == "all":
            results = {f"{name}/trace{t}": run_one(name, args.seed, args.seconds, t)
                       for name in WORKLOADS for t in (0, 1)}
            print(json.dumps(results))
        else:
            print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                                     args.trace)))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
