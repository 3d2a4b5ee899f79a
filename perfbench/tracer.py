"""Run one li2poly command in-process with a span around each traced function.

    python3 perfbench/tracer.py OUT.json TRACE_ID -- <li2poly arguments...>

The command runs through ``li2poly.cli.run(argv)`` after every function
named in TRACED has been replaced, in each ``li2poly`` namespace that holds
it (``from .x import y`` bindings included), by a wrapper that records a
span. Nothing in the package itself changes. Spans stay in memory and are
written to OUT.json, with the command's exit code and stdout, when the
command ends. A function that no longer exists is listed as absent.

A span is ``[id, parent_id, name, start_s, end_s, extra]``; ``parent_id`` is
-1 for the root and ``extra`` is the per-function quantity from EXTRA.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import pkgutil
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# formulas is closed-form and costs microseconds, so it stays inside the
# caller's self time; so do the tiny ratlin vector helpers (dot, vec_add,
# ...), whose millions of calls would otherwise dominate the trace.
TRACED = {
    "cli": ("run",),
    "constructors": ("convex_polygon", "pstar", "dual_cyclic", "prism3",
                     "from_family"),
    "model": ("parse_hrep", "serialize_hrep", "li2_profile"),
    "ratlin": ("rank", "solve_linear_system", "solve_affine", "affine_rank"),
    "simplex": ("solve_lp_max", "max_min_slack"),
    "geometry": ("relative_interior_point", "feasible_point", "is_bounded",
                 "redundant_constraints", "is_full_dimensional"),
    "faces": ("enumerate_vertices", "recession_ray_candidates",
              "face_lattice", "f_vector", "is_simple",
              "facet_adjacency_count", "edge_graph"),
    "hvector": ("indegree_hvector", "orient_edges",
                "objective_independence_check", "strengthened_ubt_check"),
}

# Quantities the yield and size metrics need, taken from (args, result).
EXTRA = {
    "faces.enumerate_vertices": lambda args, result: len(result),
    "faces.face_lattice": lambda args, result: len(result),
    "ratlin.solve_linear_system": lambda args, result: int(result is None),
    "simplex.solve_lp_max": lambda args, result: len(args[1]),
}


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if extra is not None:
                try:
                    span[5] = extra(args, result)
                except (TypeError, IndexError):
                    pass  # signature or result type changed; span keeps None
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every TRACED function wherever it is bound; return absent names."""
    import li2poly
    for info in pkgutil.iter_modules(li2poly.__path__):
        importlib.import_module(f"li2poly.{info.name}")
    wrappers = {}  # id(original) -> (original, wrapper)
    absent = []
    for module_name, names in TRACED.items():
        module = sys.modules.get(f"li2poly.{module_name}")
        for fn_name in names:
            qualified = f"{module_name}.{fn_name}"
            fn = getattr(module, fn_name, None)
            if fn is None:
                absent.append(qualified)
            else:
                wrappers[id(fn)] = (fn, tracer.wrap(qualified, fn))
    for name, module in list(sys.modules.items()):
        if name != "li2poly" and not name.startswith("li2poly."):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)
    return absent


def main(argv: list[str]) -> int:
    out_path, trace_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json TRACE_ID -- ARGS...")
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    absent = install(tracer)
    from li2poly import cli

    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.run(command)
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"trace_id": int(trace_id), "argv": command, "exit": code,
                   "wall_s": wall, "absent": absent,
                   "stdout": captured.getvalue(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
