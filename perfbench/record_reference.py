"""Record the seed-0 reference outputs the benchmark checks runs against.

    python3 perfbench/record_reference.py [--size full|small] [NAME ...]

Runs each named workload (default: all) once at seed 0 and writes the
compact summary of its outputs (see oracle.py) to
perfbench/reference/<size>/<name>.json.  Recording a new reference changes
what the benchmark accepts: it is a benchmark change of its own, never part
of a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import oracle
import workloads
from run import CHILD_LIMIT_S, HERE, ROOT, RUNS_DIR, git_sha, src_digest, \
    stderr_tail, launch


def record(name: str, size: str) -> dict:
    out = RUNS_DIR / f"record-{name}-{size}"
    shutil.rmtree(out, ignore_errors=True)
    res = launch(name, size, 0, out, "plain", CHILD_LIMIT_S)
    if res["rc"] != 0:
        raise SystemExit(f"{name}: program run failed: {stderr_tail(out)}")
    spec = workloads.WORKLOADS[name]
    constants = workloads.parse_constants(name, (out / "stdout.txt")
                                          .read_text())
    bad = oracle.nonfinite_constants(constants)
    if bad:
        raise SystemExit(f"{name}: {bad}")
    summary = oracle.summarize(out, spec["outputs"], constants)
    summary["recorded_from"] = {"git_sha": git_sha(),
                                "src_sha256": src_digest(),
                                "workload": name, "size": size, "seed": 0,
                                "sizes": spec["sizes"][size]}
    shutil.rmtree(out)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("names", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    if not (ROOT / "src" / "symhyp").is_dir():
        print("no symhyp source to record from", file=sys.stderr)
        return 2
    dest = HERE / "reference" / args.size
    dest.mkdir(parents=True, exist_ok=True)
    for name in args.names:
        path = dest / f"{name}.json"
        path.write_text(json.dumps(record(name, args.size), indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
