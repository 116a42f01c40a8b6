"""Command-line entry point: experiment orchestration and CSV emission.

Verbs: check | solve | carleman | observe | energy | identities | scenarios.
Each experiment verb reads a YAML config (--config), whose keys its flags
override before validation, prints a summary to stdout, and writes CSV
artifacts into the output directory: cells are formatted a column at a
time by `_column`, floats by `repr` (full round-trip precision), integers
by `str`, and text quoted as `csv.writer` quotes a field, so the writer
only joins cells into lines.
`solution.csv` is formatted one time row at a time, in contiguous ranges
of time rows split across processes: one per usable CPU, each with at least
MIN_CELLS_PER_PROCESS cells, so a small table stays in one process.  The
split does not change the bytes.  Exit status is 0 only when every executed
check passed; a hypothesis refusal or an invariant violation exits 1,
configuration errors exit 2.  Outputs carry no timestamps, so identical
config + seed reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .catalog import catalog, scenario_status
from .config import RunConfig, parse_config, resolve_scenario
from .errors import ConfigError, HypothesisRefusal, SymhypError
from .estimates import (
    estimate_observability,
    scan_carleman,
    verify_energy_estimate,
)
from .fields import (
    SIDES,
    Scenario,
    bump_profile,
    random_initial_profile,
    random_smooth_separable,
)
from .functionals import conjugation_defect, ibp_identity_defect
from .hypotheses import check_hypotheses
from .solver import solve

#: identity defects must shrink by at least this factor under node doubling
IDENTITY_SHRINK_FACTOR = 3.5

#: the fewest cells a CSV-formatting process gets, so a table of fewer than
#: twice this many is formatted in one process: forking and spooling a
#: worker costs about what formatting 10,000 cells does
MIN_CELLS_PER_PROCESS = 20_000

VERB_EXPERIMENTS = {
    "check": "hypotheses",
    "solve": "solve",
    "carleman": "carleman-scan",
    "observe": "observability",
    "energy": "energy",
    "identities": "identities",
}


def _text(cell: str) -> str:
    """A text cell as csv.writer's minimal quoting writes it: unchanged
    without a delimiter, quote or line break, else by csv.writer itself."""
    if not any(ch in cell for ch in ',"\r\n'):
        return cell
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerow((cell, ""))
    return fh.getvalue()[:-2]  # the empty field's "," and the "\n"


def _column(values) -> list[str]:
    """One CSV column as cell text: floats by repr, integers by str, and
    any other value by str, quoted as csv.writer quotes a field."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    # float() first: numpy 2 scalars repr as "np.float64(...)"
    return [repr(float(v)) if isinstance(v, float)
            else str(v) if isinstance(v, int)
            else _text(str(v)) for v in values]


def _fmt(value) -> str:
    """A scalar for stdout, in the same text as its CSV cell."""
    return _column((value,))[0]


def _table(rows) -> list[list[list[str]]]:
    """Rows of cells as the single block of formatted columns."""
    return [[_column(col) for col in zip(*rows)]]


def _write_blocks(fh, blocks) -> None:
    """Write each block of equal-length cell-text columns as CSV lines."""
    for columns in blocks:
        if len(columns) == 1:  # csv.writer quotes a row's one empty field
            columns = [[cell or '""' for cell in columns[0]]]
        lines = list(map(",".join, zip(*columns, strict=True)))
        if lines:
            fh.write("\n".join(lines))
            fh.write("\n")


class _Blocks(Sequence):
    """Blocks formatted when read: block k is make(k), for k < count."""

    def __init__(self, make, count: int):
        self._make, self._count = make, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k):
        if not 0 <= k < self._count:  # also ends iteration
            raise IndexError(k)
        return self._make(k)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or cannot
    read its CPU affinity."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _write_csv(path: Path, header, blocks, cells: int = 0) -> None:
    """Write the header, then each block of equal-length columns of cell
    text, as `_column` makes them.

    The bytes are those of csv.writer with lineterminator "\n": a text
    cell comes quoted from `_column`, and the writer only joins cells into
    lines.  A generator of blocks streams the table one block at a time.
    `cells`, when given, is the table's cell count and `blocks` a sequence:
    its contiguous ranges of blocks are then formatted in up to one process
    per usable CPU, each with at least MIN_CELLS_PER_PROCESS cells.
    """
    head = [[name] for name in _column(header)]
    procs = min(_usable_cpus(), cells // MIN_CELLS_PER_PROCESS,
                len(blocks)) if cells else 1
    with open(path, "w", newline="") as fh:
        if procs < 2:
            _write_blocks(fh, itertools.chain([head], blocks))
        else:
            _write_split(fh, path, head, blocks, procs)


def _write_split(fh, path: Path, head, blocks: Sequence, procs: int) -> None:
    """Blocks in `procs` contiguous ranges: this process writes the header
    and the first range to `fh`; a forked worker per later range writes it
    to an unnamed spool file, which the kernel appends to `fh` once the
    worker has exited.  A failed worker is an OSError naming `path`."""
    ends = [len(blocks) * k // procs for k in range(procs + 1)]
    ranges = list(zip(ends[1:-1], ends[2:]))
    spools, pids = [], []  # pids of the workers not yet reaped
    try:
        for first, stop in ranges:
            spools.append(tempfile.TemporaryFile(dir=path.parent))
            # so that a worker cannot repeat output buffered here
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _spool_range(spools[-1], fh.encoding, blocks, first, stop)
            pids.append(pid)
        _write_blocks(fh, itertools.chain(
            [head], map(blocks.__getitem__, range(ends[1]))))
        fh.flush()
        for (first, stop), spool in zip(ranges, spools):
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if code := os.waitstatus_to_exitcode(status):
                exc = OSError(f"the process formatting blocks {first} to "
                              f"{stop - 1} exited with status {code}")
                exc.filename = str(path)
                raise exc
            size, sent = os.fstat(spool.fileno()).st_size, 0
            while sent < size:  # a kernel copy, never held in memory here
                sent += os.sendfile(fh.fileno(), spool.fileno(), sent,
                                    size - sent)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def _spool_range(spool, encoding: str, blocks: Sequence, first: int,
                 stop: int) -> None:
    """A forked worker's whole life: write blocks first..stop-1 to `spool`
    and leave through os._exit, which never unwinds into the frames (and
    open files) it shares with the parent."""
    code = 1
    try:
        try:
            text = io.TextIOWrapper(spool, encoding=encoding, newline="")
            _write_blocks(text, map(blocks.__getitem__, range(first, stop)))
            text.flush()
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())  # the traceback, to stderr
            sys.stderr.flush()
    finally:
        os._exit(code)


def _initial_data(cfg: RunConfig, scenario: Scenario):
    spec = cfg.initial
    if spec.kind == "sine":
        grid = scenario.grid
        xh = (grid.x - grid.x_lo) / (grid.x_hi - grid.x_lo)
        prof = spec.amplitude * np.sin(spec.mode * np.pi * xh)
        return np.repeat(prof[:, None], scenario.n_comp, axis=1)
    if spec.kind == "random":
        return random_initial_profile(scenario.grid, scenario.n_comp,
                                      cfg.seed, modes=spec.modes,
                                      decay=spec.decay)
    return bump_profile(scenario.grid, spec.support, scenario.n_comp,
                        spec.amplitude)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_hypotheses(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    report = check_hypotheses(scenario)
    (out / "hypotheses.txt").write_text(report.to_text())
    _write_csv(out / "boundary_classification.csv",
               ("side", "x", "time_index", "t", "label"),
               _table(report.classification_rows(scenario.grid)))
    print(report.to_text(), end="")
    return 0 if report.passed else 1


def _run_solve(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    result = solve(scenario, _initial_data(cfg, scenario),
                   cfl_factor=cfg.cfl_factor)
    grid = scenario.grid
    comp_cols = [f"u_{j + 1}" for j in range(scenario.n_comp)]
    # i, x and t are formatted once; every time row reuses their strings
    i_col, x_col, t_col = map(_column, (range(grid.nx), grid.x, grid.t))
    values = result.u.values
    header = ("i", "n", "x", "t", *comp_cols)
    _write_csv(out / "solution.csv", header, _Blocks(
        lambda n: (i_col, [str(n)] * grid.nx, x_col, [t_col[n]] * grid.nx,
                   *map(_column, values[n].T)), grid.nt),
        cells=grid.nt * grid.nx * len(header))
    _write_csv(out / "traces.csv", ("side", "t", *comp_cols),
               [(_column((side,)) * grid.nt, t_col, *map(_column, trace.T))
                for side, trace in zip(SIDES, result.traces)])
    print(f"solve: scheme={result.scheme} cfl_used={result.cfl_used!r} "
          f"cfl_limit={result.cfl_limit!r}")
    print(f"solve: wrote {grid.nt * grid.nx} solution rows, "
          f"{2 * grid.nt} trace rows")
    return 0


def _run_carleman(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    report = scan_carleman(scenario, ensemble=cfg.ensemble,
                           s_grid=cfg.s_grid, seed=cfg.seed,
                           modes=cfg.modes, decay=cfg.decay, refine=True)
    header = ("scenario", "member", "s", "lhs_initial", "lhs_volume",
              "lhs_gamma_minus", "rhs_source", "rhs_gamma_rest",
              "rhs_terminal", "log_scale", "ratio")
    for name, scan in (("carleman_scan.csv", report.coarse),
                       ("carleman_scan_refined.csv", report.fine)):
        if scan is not None:
            _write_csv(out / name, header, _table(
                (report.scenario, row.member, row.s, *row.terms.as_tuple(),
                 row.terms.log_scale, row.ratio) for row in scan.rows))
    print(f"carleman-scan: scenario={report.scenario} "
          f"ensemble={report.ensemble} degenerate={report.coarse.degenerate}")
    for s, rho in zip(report.s_grid, report.rho_max):
        print(f"  rho_max(s={_fmt(s)}) = {rho!r}")
    print(f"  s0_hat={report.s0_hat!r} C_hat={report.c_hat!r}")
    if report.fine is not None:
        print(f"  refined ({report.fine.nx}x{report.fine.nt}): "
              f"C_hat={report.fine.c_hat!r} drift={report.drift!r}")
    if not report.all_finite:
        print("  VIOLATION: non-finite ratio encountered")
        return 1
    return 0


def _run_observability(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    spec = cfg.initial
    # sine and bump are one deterministic member each, not an ensemble
    members = None if spec.kind == "random" else [_initial_data(cfg, scenario)]
    report = estimate_observability(
        scenario, ensemble=cfg.ensemble, seed=cfg.seed, modes=spec.modes,
        decay=spec.decay, cfl_factor=cfg.cfl_factor, members=members)
    _write_csv(out / "observability.csv", ("scenario", "member", "ratio"),
               _table((report.scenario, i, r)
                      for i, r in enumerate(report.ratios)))
    print(f"observability: scenario={report.scenario} T={report.t_final!r} "
          f"T_min={report.t_min!r} ensemble={len(report.ratios)} "
          f"degenerate={report.degenerate}")
    for msg in report.warnings:
        print(f"  warning: {msg}")
    if report.verdict != "INCONCLUSIVE":  # no usable ratio to print
        print(f"  C_obs={report.c_obs!r}")
    print(f"  verdict: {report.verdict}")
    if report.counterexample is not None:
        ce = report.counterexample
        print(f"  COUNTEREXAMPLE: member={ce['member']} "
              f"ratio={ce['ratio']!r} T_min={ce['t_min']!r}")
    return 0


def _run_energy(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    spec = cfg.initial
    report = verify_energy_estimate(
        scenario, ensemble=cfg.ensemble, seed=cfg.seed,
        modes=spec.modes, decay=spec.decay,
        cfl_factor=cfg.cfl_factor, refine=True)
    m = len(report.ratios)
    _write_csv(out / "energy.csv",
               ("scenario", "member", "max_ratio", "max_ratio_refined"),
               [[_column((report.scenario,)) * m, _column(range(m)),
                 _column(report.ratios),
                 _column(report.ratios_fine or (math.nan,) * m)]])
    print(f"energy: scenario={report.scenario} ensemble={len(report.ratios)} "
          f"degenerate={report.degenerate}")
    print(f"  members=random modes={spec.modes!r} decay={spec.decay!r}")
    if spec.kind != "random":
        print(f"  note: initial.kind={spec.kind} is for solve and observe; "
              f"energy runs the seeded random ensemble")
    print(f"  C_energy={report.c_energy!r}")
    if report.c_energy_fine is not None:
        print(f"  refined: C_energy={report.c_energy_fine!r} "
              f"drift={report.drift!r}")
    if not report.finite:
        print("  VIOLATION: non-finite energy ratio")
        return 1
    return 0


def _run_identities(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    def defects(sc: Scenario) -> list[float]:
        # the member dies on return, so one dense member is alive at a time
        w = random_smooth_separable(sc.grid, sc.n_comp, cfg.seed,
                                    modes=cfg.modes,
                                    decay=cfg.decay).materialize()
        return [ibp_identity_defect(w, sc, "x"),
                ibp_identity_defect(w, sc, "t"),
                *(conjugation_defect(w, sc, s) for s in cfg.s_grid)]

    labels = [("ibp", "x"), ("ibp", "t"),
              *(("conjugation", s) for s in cfg.s_grid)]
    rows = [(check, param, c, f, c / f if f else math.inf)
            for (check, param), c, f in zip(
                labels, defects(scenario),
                defects(scenario.with_grid(scenario.grid.refined())))]
    _write_csv(out / "identities.csv",
               ("check", "parameter", "coarse_defect", "fine_defect",
                "shrink_factor"), _table(rows))
    for check, param, coarse, fine, factor in rows:
        status = "pass" if factor >= IDENTITY_SHRINK_FACTOR else "FAIL"
        print(f"identities: {check}[{_fmt(param)}] coarse={coarse!r} "
              f"fine={fine!r} shrink={factor!r} {status}")
    return 0 if all(r[4] >= IDENTITY_SHRINK_FACTOR for r in rows) else 1


_RUNNERS = {
    "hypotheses": _run_hypotheses,
    "solve": _run_solve,
    "carleman-scan": _run_carleman,
    "observability": _run_observability,
    "energy": _run_energy,
    "identities": _run_identities,
}


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        scenario, info = resolve_scenario(cfg)
    except SymhypError as exc:
        # sampling a parsed scenario can still fail: a non-finite sample,
        # an h0 that is not positive definite, a Courant bound past
        # MAX_TIME_NODES
        messages = (exc.messages if isinstance(exc, ConfigError)
                    else [f"scenario: {exc}"])
        for msg in messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        print(f"run: experiment={cfg.experiment} scenario={scenario.name} "
              f"nx={info['nx']} nt={info['nt']} beta={info['beta']!r} "
              f"({info['beta_source']}) seed={cfg.seed} out={out}")
        return _RUNNERS[cfg.experiment](cfg, scenario, out)
    except HypothesisRefusal as exc:
        print(f"refused: {exc}")
        (out / "hypotheses.txt").write_text(exc.report.to_text())
        print(exc.report.to_text(), end="")
        return 1
    except OSError as exc:
        target = getattr(exc, "filename", None) or out
        print(f"I/O failure at {target}: {exc}", file=sys.stderr)
        return 1
    except SymhypError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def list_scenarios() -> str:
    """Human-readable catalog listing with live hypothesis status."""
    lines = []
    for name, entry in catalog().items():
        lines.append(f"{name}: {entry.description}")
        lines.append(f"    n={entry.n_comp} beta={entry.default_beta!r} "
                     f"T={entry.default_t_final!r}")
        lines.append(f"    status: {scenario_status(name)}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symhyp",
        description="hypothesis checks, weighted estimates, and boundary "
                    "observability for 1D symmetric hyperbolic systems")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERB_EXPERIMENTS:
        p = sub.add_parser(verb, help=f"run the {VERB_EXPERIMENTS[verb]} "
                                      f"experiment")
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--nx", type=int, help="spatial nodes (overrides config)")
        p.add_argument("--s", help="comma-separated s grid (overrides config)")
    sub.add_parser("scenarios", help="list the builtin scenario catalog")
    return parser


def _number(text: str):
    """`text` as a float; text that is not one stays text, for the config
    rule to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "scenarios":
        print(list_scenarios(), end="")
        return 0
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    s_grid = None if args.s is None else [
        _number(v) for v in args.s.split(",") if v.strip()]
    try:
        cfg = parse_config(text, {
            "experiment": VERB_EXPERIMENTS[args.verb], "out_dir": args.out,
            "seed": args.seed, "grid.nx": args.nx, "s_grid": s_grid})
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
