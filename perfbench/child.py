"""One program run of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --size full|small --seed N
        --out DIR --mode plain|trace|preflight

`run.py` starts this with PYTHONPATH pointing at the checkout's `src`.
`plain` runs the workload as a user would and only reads the clock at the
setup boundary; `trace` also wraps the symhyp modules (see tracer.py) and
writes DIR/spans.json; `preflight` records the admissible nt of the
`timedep-observe` grid and does no work.  Clock marks are CLOCK_MONOTONIC
readings, comparable with those of `run.py`, and go to DIR/report.json.
"""

import argparse
import csv
import importlib
import json
import sys
import time
from pathlib import Path

import workloads


def _mark_setup_end(cli, marks: dict) -> None:
    """Record when the CLI's resolve_scenario first returns."""
    inner = cli.resolve_scenario

    def resolve_scenario(cfg):
        result = inner(cfg)
        marks.setdefault("setup_end", time.monotonic())
        return result

    cli.resolve_scenario = resolve_scenario


def _run_cli(cli, name: str, size: str, seed: int, out: Path,
             marks: dict) -> int:
    cfg_path = out / "config.yaml"
    cfg_path.write_text(workloads.config_yaml(name, size))
    _mark_setup_end(cli, marks)
    return cli.main([workloads.WORKLOADS[name]["verb"], "--config",
                     str(cfg_path), "--out", str(out), "--seed", str(seed)])


def _run_timedep(sh, size: str, seed: int, out: Path, marks: dict) -> int:
    scenario = workloads.timedep_scenario(size)
    marks["setup_end"] = time.monotonic()
    p = workloads.WORKLOADS["timedep-observe"]["sizes"][size]
    report = sh.estimate_observability(scenario, ensemble=p["ensemble"],
                                       seed=seed, modes=p["modes"])
    with open(out / "observability.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("scenario", "member", "ratio"))
        for i, r in enumerate(report.ratios):
            writer.writerow((report.scenario, i, repr(r)))
    print(f"observability: scenario={report.scenario} "
          f"T={report.t_final!r} T_min={report.t_min!r} "
          f"ensemble={len(report.ratios)} degenerate={report.degenerate}")
    print(f"  C_obs={report.c_obs!r}")
    print(f"  verdict: {report.verdict}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", required=True, choices=("full", "small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--mode", required=True,
                    choices=("plain", "trace", "preflight"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    # a CLI user pays for importing the cli module; a library user does not
    via_cli = workloads.WORKLOADS[args.workload]["verb"] is not None
    marks = {"import_start": time.monotonic()}
    entry = importlib.import_module("symhyp.cli" if via_cli else "symhyp")
    marks["import_end"] = time.monotonic()
    sh = sys.modules["symhyp"]
    report = {"symhyp_file": sh.__file__}

    if args.mode == "preflight":
        scenario = workloads.timedep_scenario(args.size)
        report["nt"] = scenario.grid.nt
        report["admissible_nt"] = sh.admissible_time_nodes(scenario)
        rc = 0
    else:
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer(f"{args.workload}/seed{args.seed}/{args.out.name}")
            report["wrapped"] = tracer.install()
        if via_cli:
            rc = _run_cli(entry, args.workload, args.size, args.seed,
                          args.out, marks)
        else:
            rc = _run_timedep(sh, args.size, args.seed, args.out, marks)
        marks["work_end"] = time.monotonic()
        if tracer is not None:
            tracer.dump(args.out / "spans.json")

    import numpy
    import scipy
    report["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    report["marks"] = marks
    report["exit"] = rc
    sys.stdout.flush()
    (args.out / "report.json").write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
