"""Compact summaries of a workload's outputs, and the check against them.

A summary keeps, per CSV file, the header and row count; per numeric
column the largest finite magnitude, the sum and the sum of magnitudes
(both with math.fsum, so independent of row order) and the count of
non-finite values; per text column its distinct values; and every
`stride`-th row plus the last.  It also keeps the printed constants.

A number passes when it is within REL_TOL times the largest magnitude of
its column of the reference (sums: REL_TOL times the column's sum of
magnitudes; constants: REL_TOL times their own magnitude).  Non-finite
values must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

REL_TOL = 1e-12
SAMPLE_ROWS = 24
MAX_DISTINCT = 16


def digest(out_dir: Path, names) -> dict:
    """sha256 of each output file's bytes, with its size."""
    found = {}
    for name in names:
        data = (out_dir / name).read_bytes()
        found[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "bytes": len(data)}
    return found


def _number(text: str):
    # `solve` writes numpy scalars through repr(), which numpy 2 renders
    # as "np.float64(...)"; the number inside is what the oracle checks
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[11:-1]
    try:
        return float(text)
    except ValueError:
        return None


def summarize_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    stride = max(1, len(body) // SAMPLE_ROWS)
    picked = sorted(set(range(0, len(body), stride)) | {len(body) - 1}) \
        if body else []
    columns = {}
    parsed = []
    for j, name in enumerate(header):
        values = [_number(r[j]) for r in body]
        if all(v is not None for v in values):
            finite = [v for v in values if math.isfinite(v)]
            columns[name] = {
                "kind": "number",
                "max_abs": max((abs(v) for v in finite), default=0.0),
                "sum": math.fsum(finite),
                "sum_abs": math.fsum(abs(v) for v in finite),
                "nonfinite": len(values) - len(finite)}
        else:
            values = [r[j] for r in body]
            distinct = sorted(set(values))
            columns[name] = {"kind": "text",
                             "values": distinct[:MAX_DISTINCT],
                             "distinct": len(distinct)}
        parsed.append(values)
    sample = [[i] + [col[i] for col in parsed] for i in picked]
    return {"header": header, "rows": len(body), "stride": stride,
            "columns": columns, "sample": sample}


def summarize(out_dir: Path, outputs, constants: dict) -> dict:
    return {"files": {name: summarize_csv(out_dir / name)
                      for name in outputs},
            "constants": constants}


def _close(got, want, scale: float) -> bool:
    if isinstance(want, str) or isinstance(got, str) or want is None \
            or got is None:
        return got == want
    if not (math.isfinite(want) and math.isfinite(got)):
        return (math.isnan(want) and math.isnan(got)) or got == want
    return abs(got - want) <= REL_TOL * scale


def compare(ref: dict, got: dict) -> list[str]:
    """Every place where `got` misses the reference summary `ref`."""
    problems = []
    for name, want in ref["constants"].items():
        have = got["constants"].get(name)
        scale = abs(want) if isinstance(want, float) else 0.0
        if not _close(have, want, scale):
            problems.append(f"constant {name}: {have!r} != {want!r}")
    for fname, rf in ref["files"].items():
        gf = got["files"].get(fname)
        if gf is None:
            problems.append(f"{fname}: missing")
            continue
        shape = [f"{fname}: {key} {gf[key]!r} != {rf[key]!r}"
                 for key in ("header", "rows", "stride") if gf[key] != rf[key]]
        if shape:
            problems.extend(shape)
            continue
        for col, rc in rf["columns"].items():
            gc = gf["columns"][col]
            if rc["kind"] != gc["kind"]:
                problems.append(f"{fname}:{col}: kind {gc['kind']}")
                continue
            if rc["kind"] == "text":
                if gc != rc:
                    problems.append(f"{fname}:{col}: text values differ")
                continue
            for key, scale in (("max_abs", rc["max_abs"]),
                               ("sum", rc["sum_abs"]),
                               ("sum_abs", rc["sum_abs"]),
                               ("nonfinite", 0.0)):
                if not _close(gc[key], rc[key], scale):
                    problems.append(f"{fname}:{col}: {key} {gc[key]!r} "
                                    f"!= {rc[key]!r}")
        scales = [rf["columns"][c].get("max_abs", 0.0) for c in rf["header"]]
        for rrow, grow in zip(rf["sample"], gf["sample"]):
            for col, scale, want, have in zip(["row"] + rf["header"],
                                              [0.0] + scales, rrow, grow):
                if not _close(have, want, scale):
                    problems.append(f"{fname}: row {rrow[0]} {col} "
                                    f"{have!r} != {want!r}")
    return problems


def nonfinite_constants(constants: dict) -> list[str]:
    """Printed constants that are missing or not finite numbers."""
    return [f"constant {k} = {v!r}" for k, v in constants.items()
            if v is None or (isinstance(v, float) and not math.isfinite(v))]
