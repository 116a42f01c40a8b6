"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at its small size through the same `run.py` the
benchmark uses.  The file is not named test_*.py, so the repository's own
test command does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _bench(name: str, trace: int, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--size",
         "small", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(name: str, trace: int) -> dict:
    proc = _bench(name, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"], proc.stdout
    assert res["failed"] == 0 and res["attempted"] >= 2 * (1 + trace)
    return res


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_match_run_py():
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == dict(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    res = _result(name, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == _units("end_to_end")
    for metric in res["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_counts_and_bound_self_times(name):
    first = _result(name, 1)
    detail = json.loads((run.RUNS_DIR / f"{name}-small-seed0-trace1"
                         / "result.json").read_text())
    second = _result(name, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} \
        == _units("per_layer")
    for key, unit in run.PER_LAYER:
        if unit in run.EXACT_UNITS:
            assert first["metrics"][key] == second["metrics"][key], key
    for sample in detail["traced"]:
        selfs = [sample["layers"][f"{m}.self_s"]
                 for m in ("config", "catalog", "fields", "hypotheses",
                           "solver", "functionals", "estimates", "cli")]
        assert min(selfs) >= 0.0
        assert sum(selfs) <= sample["wall_s"]


def _numeric_paths(ref: dict):
    """(container, key) of every number the oracle checks with a scale."""
    for key, value in ref["constants"].items():
        if isinstance(value, float) and value != 0.0:
            yield ref["constants"], key
    for summary in ref["files"].values():
        for col in summary["columns"].values():
            if col["kind"] == "number" and col["max_abs"] != 0.0:
                yield col, "max_abs"
                yield col, "sum_abs"
        for row in summary["sample"]:
            for j, col in enumerate(summary["header"], start=1):
                spec = summary["columns"][col]
                # values far below their column's largest magnitude sit
                # under the tolerance by design
                if spec["kind"] == "number" \
                        and abs(row[j]) >= 1e-2 * spec["max_abs"] > 0.0:
                    yield row, j


@pytest.mark.parametrize("size", ("full", "small"))
@pytest.mark.parametrize("name", NAMES)
def test_oracle_catches_a_1e9_relative_change(name, size):
    path = run.HERE / "reference" / size / f"{name}.json"
    ref = json.loads(path.read_text())
    assert oracle.compare(ref, ref) == []
    checked = 0
    for rel, caught in ((1e-9, True), (1e-15, False)):
        got = json.loads(path.read_text())
        for holder, key in _numeric_paths(got):
            original = holder[key]
            holder[key] = original * (1.0 + rel)
            assert bool(oracle.compare(ref, got)) is caught, (key, original)
            holder[key] = original
            checked += 1
    assert checked > 2


def test_timedep_grid_is_admissible():
    for size in ("full", "small"):
        out = run.RUNS_DIR / f"selftest-preflight-{size}"
        shutil.rmtree(out, ignore_errors=True)
        res = run.launch("timedep-observe", size, 0, out, "preflight", 60)
        assert res["rc"] == 0
        report = json.loads((out / "report.json").read_text())
        assert report["nt"] == \
            workloads.WORKLOADS["timedep-observe"]["sizes"][size]["nt"]
        assert report["nt"] >= report["admissible_nt"]


def test_refuses_a_checkout_without_the_program():
    bare = run.RUNS_DIR / "selftest-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = _bench("solve-csv", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
