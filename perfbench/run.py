"""symhyp benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|small]

Runs one workload as a closed loop with one client: program runs start one
after another, each in a fresh interpreter on the checkout's `src`, until
`--seconds` have passed (at least MIN_RUNS runs of each kind).  Every run's
outputs are checked: at seed 0 against the reference recorded in
`reference/`, at any seed for finite constants and for bytes identical to
the first run of this invocation.  With `--trace 1` runs alternate between
untraced and traced (see tracer.py) and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric with its unit and sample count, and the provenance.  Exits 2
without a result when the checkout holds no symhyp source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import workloads
from tracer import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench-runs"

MIN_RUNS = 2          # per kind: the rerun check needs two runs
CHILD_LIMIT_S = 120   # a program run still going after this is killed
STOP_STARTING_S = 100  # no new program run after this, whatever --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: (name, unit) of the end-to-end metrics, medians over untraced runs
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("work_per_s", "1/s"))

#: (name, unit) of the per-layer metrics, medians over traced runs;
#: metrics in the units "count" and "bytes" must repeat exactly
PER_LAYER = (
    ("config.import_s", "s"), ("config.resolve_s", "s"),
    ("config.self_s", "s"), ("catalog.self_s", "s"),
    ("fields.self_s", "s"),
    ("fields.sample_field.calls", "count"),
    ("fields.sample_field.self_s", "s"),
    ("fields.field_evals.calls", "count"),
    ("fields.random_smooth_gridfunction.self_s", "s"),
    ("fields.eig_bounds.calls", "count"),
    ("hypotheses.calls", "count"), ("hypotheses.self_s", "s"),
    ("solver.self_s", "s"),
    ("solver.solve.calls", "count"), ("solver.solve.member_steps", "count"),
    ("solver.solve.self_s", "s"), ("solver.solve.us_per_member_step", "us"),
    ("solver.max_char_speed.calls", "count"),
    ("solver.max_char_speed.self_s", "s"),
    ("solver.residual.calls", "count"), ("solver.residual.self_s", "s"),
    ("functionals.self_s", "s"),
    ("functionals.carleman_terms.calls", "count"),
    ("functionals.carleman_terms.self_s", "s"),
    ("functionals.carleman_terms.ms_per_call", "ms"),
    ("functionals.energy_ledger.self_s", "s"),
    ("functionals.observability_ratio.self_s", "s"),
    ("estimates.self_s", "s"),
    ("estimates.members_generated", "count"),
    ("estimates.members_nondegenerate", "count"),
    ("estimates.nondegenerate_frac", "fraction"),
    ("cli.self_s", "s"), ("cli.rows", "count"), ("cli.bytes", "bytes"),
    ("trace.spans", "count"), ("trace.overhead_frac", "fraction"),
)
EXACT_UNITS = ("count", "bytes")


def launch(workload: str, size: str, seed: int, out: Path, mode: str,
           limit_s: float) -> dict:
    """Start one program run, wait for it, return its clock and rusage."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--out", str(out),
           "--mode", mode]
    alarm = max(1, int(limit_s))
    with open(out / "stdout.txt", "wb") as so, \
            open(out / "stderr.txt", "wb") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se,
                                preexec_fn=lambda: signal.alarm(alarm))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawn": spawn, "exit": end, "rc": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def layer_metrics(agg: dict, cli_rows: int, cli_bytes: int,
                  import_s: float, resolve_s: float) -> dict:
    """Per-layer values of one traced run (overhead is added later)."""
    by_name, by_module = agg["by_name"], agg["by_module"]

    def get(table, key, field):
        return table.get(key, {}).get(field, 0)

    def count(table, key, name):
        return table.get(key, {}).get("counts", {}).get(name, 0)

    steps = count(by_name, "solver.solve", "member_steps")
    carl_calls = get(by_name, "functionals.carleman_terms", "calls")
    members = count(by_module, "estimates", "members")
    good = members - count(by_module, "estimates", "degenerate")
    values = {
        "config.import_s": import_s, "config.resolve_s": resolve_s,
        "hypotheses.calls": get(by_module, "hypotheses", "calls"),
        "solver.solve.member_steps": steps,
        "solver.solve.us_per_member_step":
            1e6 * get(by_name, "solver.solve", "total_s") / steps
            if steps else 0.0,
        "functionals.carleman_terms.ms_per_call":
            1e3 * get(by_name, "functionals.carleman_terms", "total_s")
            / carl_calls if carl_calls else 0.0,
        "estimates.members_generated": members,
        "estimates.members_nondegenerate": good,
        "estimates.nondegenerate_frac": good / members if members else 0.0,
        "cli.rows": cli_rows, "cli.bytes": cli_bytes,
        "trace.spans": agg["spans"],
    }
    for name, _ in PER_LAYER:
        if name in values or name == "trace.overhead_frac":
            continue
        key, field = name.rsplit(".", 1)
        table = by_module if "." not in key else by_name
        values[name] = get(table, key, field)
    return values


class Invocation:
    """One benchmark invocation: its program runs and their checks."""

    def __init__(self, args):
        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.dir = RUNS_DIR / f"{args.workload}-{args.size}-seed{args.seed}" \
                              f"-trace{args.trace}"
        ref = HERE / "reference" / args.size / f"{args.workload}.json"
        self.reference = json.loads(ref.read_text()) \
            if args.seed == 0 and ref.exists() else None
        self.problems: list[str] = []
        if args.seed == 0 and self.reference is None:
            self.problems.append(f"no reference at {ref.relative_to(ROOT)}")
        self.first = None      # (digests, constants) of the first good run
        self.data_rows = 0     # CSV rows below the headers, first good run
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.runs = {"plain": 0, "trace": 0}
        self.attempted = 0
        self.failed = 0
        self.versions = {}

    def preflight(self) -> None:
        """The fixed timedep grid must be admissible on the final grid."""
        if self.args.workload != "timedep-observe":
            return
        out = self.dir / "preflight"
        res = launch(self.args.workload, self.args.size, self.args.seed, out,
                     "preflight", CHILD_LIMIT_S)
        if res["rc"] != 0:
            self.problems.append("preflight failed: " + stderr_tail(out))
            return
        rep = json.loads((out / "report.json").read_text())
        if rep["nt"] < rep["admissible_nt"]:
            self.problems.append(f"fixed nt={rep['nt']} is below "
                                 f"admissible_time_nodes="
                                 f"{rep['admissible_nt']}")

    def run_one(self, mode: str, limit_s: float) -> None:
        out = self.dir / f"{mode}{self.attempted:03d}"
        res = launch(self.args.workload, self.args.size, self.args.seed, out,
                     mode, limit_s)
        self.attempted += 1
        self.runs[mode] += 1
        try:
            problems = self._examine(out, res, mode)
        except Exception:  # a broken output is a failed run, not a crash
            problems = ["outputs could not be checked: "
                        + traceback.format_exc(limit=3).replace("\n", " | ")]
        if problems:
            self.failed += 1
            self.problems.extend(f"{out.name}: {p}" for p in problems)
        for name in self.spec["outputs"]:
            (out / name).unlink(missing_ok=True)

    def _examine(self, out: Path, res: dict, mode: str) -> list[str]:
        if res["rc"] != 0:
            return [f"exit status {res['rc']}: {stderr_tail(out)}"]
        report = json.loads((out / "report.json").read_text())
        self.versions = report["versions"]
        src = ROOT / "src"
        if not Path(report["symhyp_file"]).resolve().is_relative_to(src):
            return [f"imported symhyp from {report['symhyp_file']}"]
        marks = report["marks"]
        if "setup_end" not in marks:
            return ["the setup boundary (resolve_scenario) was never reached"]
        stdout = (out / "stdout.txt").read_text()
        constants = workloads.parse_constants(self.args.workload, stdout)
        digests = oracle.digest(out, self.spec["outputs"])
        problems = []
        if self.first is None:
            self.first = (digests, constants)
            self.data_rows = sum(_data_rows(out / n)
                                 for n in self.spec["outputs"])
            problems += oracle.nonfinite_constants(constants)
            if self.reference is not None:
                problems += oracle.compare(self.reference, oracle.summarize(
                    out, self.spec["outputs"], constants))
        elif (digests, constants) != self.first:
            problems.append("outputs differ from the first run of the same "
                            "code and seed")
        csv_bytes = sum(d["bytes"] for d in digests.values())
        wall = res["exit"] - res["spawn"]
        setup = marks["setup_end"] - res["spawn"]
        units = workloads.work_units(self.args.workload, self.args.size,
                                     stdout, csv_bytes)
        sample = {
            "wall_s": wall, "setup_s": setup,
            "peak_rss_mb": res["maxrss_kb"] * 1024 / 1e6,
            "work_per_s": units / (wall - setup),
        }
        if mode == "trace":
            agg = aggregate(json.loads((out / "spans.json").read_text())
                            ["spans"])
            problems += self._check_spans(agg, wall)
            via_cli = self.spec["verb"] is not None
            sample["layers"] = layer_metrics(
                agg,
                self.data_rows if via_cli else 0,
                csv_bytes if via_cli else 0,
                marks["import_end"] - marks["import_start"],
                marks["setup_end"] - marks["import_end"])
            counted = self.spec["counted_by"]
            if counted and sample["layers"][counted] != units:
                problems.append(f"{counted}={sample['layers'][counted]} but "
                                f"the work units say {units}")
        if not problems:
            (self.traced if mode == "trace" else self.plain).append(sample)
        return problems

    @staticmethod
    def _check_spans(agg: dict, wall: float) -> list[str]:
        problems = [f"span {k} has negative self time {v['min_self_s']!r}"
                    for k, v in agg["by_name"].items()
                    if v["min_self_s"] < -1e-9]
        if agg["root_s"] > wall:
            problems.append(f"span self times sum to {agg['root_s']!r} s, "
                            f"more than the traced wall {wall!r} s")
        return problems

    def end_to_end(self) -> dict:
        return {name: _median([s[name] for s in self.plain])
                for name, _ in END_TO_END}

    def per_layer(self) -> dict:
        layers = [s["layers"] for s in self.traced]
        values = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            seen = [lay[name] for lay in layers]
            if unit not in EXACT_UNITS:
                values[name] = _median(seen)
                continue
            if len(set(seen)) > 1:
                self.problems.append(f"count {name} differs between traced "
                                     f"runs: {seen}")
            values[name] = seen[0] if seen else None
        traced_wall = _median([s["wall_s"] for s in self.traced])
        plain_wall = _median([s["wall_s"] for s in self.plain])
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 \
            if traced_wall and plain_wall else None
        return values


def _median(values):
    return statistics.median(values) if values else None


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def stderr_tail(out: Path, lines: int = 5) -> str:
    err = (out / "stderr.txt").read_text(errors="replace").strip()
    return " | ".join(err.splitlines()[-lines:]) or "(no stderr)"


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(inv: Invocation) -> dict:
    args = inv.args
    return {
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "versions": inv.versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "sizes": workloads.WORKLOADS[args.workload]["sizes"][args.size],
        "seconds": args.seconds, "trace": args.trace,
        "client": "closed loop, 1 client, 1 program run at a time",
        "samples": {"plain": len(inv.plain), "traced": len(inv.traced)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symhyp" / "__init__.py").is_file():
        print(f"no symhyp source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    begun = time.monotonic()
    inv = Invocation(args)
    shutil.rmtree(inv.dir, ignore_errors=True)
    inv.dir.mkdir(parents=True)
    inv.preflight()
    modes = ("plain", "trace") if args.trace else ("plain",)
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= STOP_STARTING_S or (
                elapsed >= args.seconds
                and min(inv.runs[m] for m in modes) >= MIN_RUNS):
            break
        inv.run_one(modes[inv.attempted % len(modes)],
                    min(CHILD_LIMIT_S, 170 - (time.monotonic() - begun)))

    wanted = PER_LAYER if args.trace else END_TO_END
    shown = {**inv.end_to_end(), **(inv.per_layer() if args.trace else {})}
    metrics = {name: {"value": shown[name], "unit": unit}
               for name, unit in wanted}
    if any(m["value"] is None for m in metrics.values()):
        inv.problems.append("some metrics have no successful run")

    for p in inv.problems:
        print(f"problem: {p}")
    n_plain = len(inv.plain)
    for name, unit in END_TO_END:
        print(f"{name} = {shown[name]!r} {unit} (median of {n_plain} "
              f"untraced runs)")
    rate = inv.spec["unit_name"]
    note = "; bytes go to the page cache, not a disk measurement" \
        if rate == "csv_mb_per_s" else ""
    print(f"{rate} = {shown['work_per_s']!r} (work_per_s of "
          f"{args.workload}{note})")
    print(f"fail_frac = {inv.failed / max(inv.attempted, 1)!r} "
          f"({inv.failed} of {inv.attempted} runs)")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name} = {shown[name]!r} {unit} "
                  f"(median of {len(inv.traced)} traced runs)")
    prov = provenance(inv)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    (inv.dir / "result.json").write_text(json.dumps(
        {"provenance": prov, "problems": inv.problems, "metrics": metrics,
         "plain": inv.plain, "traced": inv.traced}, indent=1))
    print(json.dumps({"correct": not inv.problems,
                      "attempted": inv.attempted, "failed": inv.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
