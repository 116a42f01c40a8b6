"""In-memory spans around the public functions of each symhyp module.

`Tracer.install()` wraps every public function defined in the traced
modules, plus `MatrixField.__call__`.  The modules import each other with
`from .x import f`, so every binding of the same function object in every
loaded symhyp module is replaced, not only the defining one.  A span is
[name, start, end, parent index, counts]; spans stay in memory until
`dump` writes them, with the run id they share, at the end of the program
run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

MODULES = ("config", "catalog", "fields", "hypotheses", "solver",
           "functionals", "estimates", "cli")


def _solve_steps(args, kwargs, result):
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
    return {"member_steps": scenario.grid.nt - 1}


def _scan_members(args, kwargs, report):
    passes = [p for p in (report.coarse, report.fine) if p is not None]
    return {"members": len(passes) * report.ensemble,
            "degenerate": sum(p.degenerate for p in passes)}


def _observe_members(args, kwargs, report):
    return {"members": len(report.ratios), "degenerate": report.degenerate}


def _energy_members(args, kwargs, report):
    fine = report.ratios_fine or ()
    return {"members": len(report.ratios) + len(fine),
            "degenerate": report.degenerate
            + sum(1 for r in fine if math.isnan(r))}


#: counts taken from a call's arguments and result, by span name
_COUNTERS = {
    "solver.solve": _solve_steps,
    "estimates.scan_carleman": _scan_members,
    "estimates.estimate_observability": _observe_members,
    "estimates.verify_energy_estimate": _energy_members,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of the loaded MODULES; returns how many.

        A library run never imports `cli`, so that module may be absent.
        """
        from symhyp.fields import MatrixField

        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "symhyp" or k.startswith("symhyp.")]
        wrapped = 0
        for short in MODULES:
            mod = sys.modules.get(f"symhyp.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for holder in loaded:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, traced)
                wrapped += 1
        MatrixField.__call__ = self.wrap("fields.field_evals",
                                         MatrixField.__call__)
        return wrapped + 1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)


def aggregate(spans: list[list]) -> dict:
    """Per-name and per-module calls, self time, total time and counts.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    by_module: dict[str, dict] = {}
    root_time = 0.0
    for k, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[k]
        if parent < 0:
            root_time += dur
        for key, table in ((name, by_name),
                           (name.split(".", 1)[0], by_module)):
            row = table.setdefault(key, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0, "min_self_s": 0.0,
                                         "counts": {}})
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += dur
            row["min_self_s"] = min(row["min_self_s"], self_s)
            for ck, cv in (counts or {}).items():
                row["counts"][ck] = row["counts"].get(ck, 0) + cv
    return {"by_name": by_name, "by_module": by_module,
            "root_s": root_time, "spans": len(spans)}
