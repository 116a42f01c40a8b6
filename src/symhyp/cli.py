"""Command-line entry point: experiment orchestration and CSV emission.

Verbs: check | solve | carleman | observe | energy | identities | scenarios.
Each experiment verb reads a YAML config (--config), applies flag overrides,
prints a summary to stdout, and writes CSV artifacts into the output
directory.  Exit status is 0 only when every executed check passed; a
hypothesis refusal or an invariant violation exits 1, configuration errors
exit 2.  Outputs carry no timestamps, so identical config + seed reproduces
identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
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
    random_smooth_gridfunction,
)
from .functionals import conjugation_defect, ibp_identity_defect
from .hypotheses import check_hypotheses
from .solver import solve

#: identity defects must shrink by at least this factor under node doubling
IDENTITY_SHRINK_FACTOR = 3.5

VERB_EXPERIMENTS = {
    "check": "hypotheses",
    "solve": "solve",
    "carleman": "carleman-scan",
    "observe": "observability",
    "energy": "energy",
    "identities": "identities",
}


def _fmt(value) -> str:
    # float() first: numpy 2 scalars repr as "np.float64(...)"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
               report.classification_rows(scenario.grid))
    print(report.to_text(), end="")
    return 0 if report.passed else 1


def _run_solve(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    result = solve(scenario, _initial_data(cfg, scenario),
                   cfl_factor=cfg.cfl_factor)
    grid = scenario.grid
    comp_cols = [f"u_{j + 1}" for j in range(scenario.n_comp)]
    xs, ts = grid.x.tolist(), grid.t.tolist()
    rows = []
    for n, tv in enumerate(ts):
        for i, (xv, uv) in enumerate(zip(xs, result.u.values[n].tolist())):
            rows.append((i, n, xv, tv, *uv))
    _write_csv(out / "solution.csv", ("i", "n", "x", "t", *comp_cols), rows)
    trows = []
    for side, trace in zip(SIDES, result.traces.tolist()):
        for tv, uv in zip(ts, trace):
            trows.append((side, tv, *uv))
    _write_csv(out / "traces.csv", ("side", "t", *comp_cols), trows)
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

    def rows_of(scan_pass):
        for row in scan_pass.rows:
            yield (report.scenario, row.member, row.s, *row.terms.as_tuple(),
                   row.terms.log_scale, row.ratio)

    _write_csv(out / "carleman_scan.csv", header, rows_of(report.coarse))
    if report.fine is not None:
        _write_csv(out / "carleman_scan_refined.csv", header,
                   rows_of(report.fine))

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
    # a sine profile is a single deterministic member, not an ensemble
    members = [_initial_data(cfg, scenario)] if spec.kind == "sine" else None
    report = estimate_observability(
        scenario, ensemble=cfg.ensemble, seed=cfg.seed,
        initial_kind=spec.kind if members is None else "random",
        modes=spec.modes, decay=spec.decay, support=spec.support,
        amplitude=spec.amplitude, cfl_factor=cfg.cfl_factor, members=members)
    _write_csv(out / "observability.csv", ("scenario", "member", "ratio"),
               [(report.scenario, i, r)
                for i, r in enumerate(report.ratios)])
    print(f"observability: scenario={report.scenario} T={report.t_final!r} "
          f"T_min={report.t_min!r} ensemble={len(report.ratios)} "
          f"degenerate={report.degenerate}")
    for msg in report.warnings:
        print(f"  warning: {msg}")
    print(f"  C_obs={report.c_obs!r}")
    print(f"  verdict: {report.verdict}")
    if report.counterexample is not None:
        ce = report.counterexample
        print(f"  COUNTEREXAMPLE: member={ce['member']} "
              f"ratio={ce['ratio']!r} T_min={ce['t_min']!r}")
    return 0


def _run_energy(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    report = verify_energy_estimate(
        scenario, ensemble=cfg.ensemble, seed=cfg.seed,
        modes=cfg.initial.modes, decay=cfg.initial.decay,
        cfl_factor=cfg.cfl_factor, refine=True)
    rows = []
    for i, r in enumerate(report.ratios):
        fine = report.ratios_fine[i] if report.ratios_fine else math.nan
        rows.append((report.scenario, i, r, fine))
    _write_csv(out / "energy.csv",
               ("scenario", "member", "max_ratio", "max_ratio_refined"), rows)
    print(f"energy: scenario={report.scenario} ensemble={len(report.ratios)} "
          f"degenerate={report.degenerate}")
    print(f"  C_energy={report.c_energy!r}")
    if report.c_energy_fine is not None:
        print(f"  refined: C_energy={report.c_energy_fine!r} "
              f"drift={report.drift!r}")
    if not report.finite:
        print("  VIOLATION: non-finite energy ratio")
        return 1
    return 0


def _run_identities(cfg: RunConfig, scenario: Scenario, out: Path) -> int:
    fine_scenario = scenario.with_grid(scenario.grid.refined())
    w = random_smooth_gridfunction(scenario.grid, scenario.n_comp, cfg.seed,
                                   modes=cfg.modes, decay=cfg.decay)
    w_fine = random_smooth_gridfunction(fine_scenario.grid, scenario.n_comp,
                                        cfg.seed, modes=cfg.modes,
                                        decay=cfg.decay)
    rows = []
    for axis, r_field in (("x", scenario.h1), ("t", scenario.h0)):
        coarse = ibp_identity_defect(r_field, w, axis)
        fine = ibp_identity_defect(r_field, w_fine, axis)
        rows.append(("ibp", axis, coarse, fine,
                     coarse / fine if fine else math.inf))
    for s in cfg.s_grid:
        coarse = conjugation_defect(w, scenario, s)
        fine = conjugation_defect(w_fine, fine_scenario, s)
        rows.append(("conjugation", _fmt(s), coarse, fine,
                     coarse / fine if fine else math.inf))
    _write_csv(out / "identities.csv",
               ("check", "parameter", "coarse_defect", "fine_defect",
                "shrink_factor"), rows)
    ok = True
    for check, param, coarse, fine, factor in rows:
        status = "pass" if factor >= IDENTITY_SHRINK_FACTOR else "FAIL"
        ok = ok and factor >= IDENTITY_SHRINK_FACTOR
        print(f"identities: {check}[{param}] coarse={coarse!r} fine={fine!r} "
              f"shrink={factor!r} {status}")
    return 0 if ok else 1


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
    except ConfigError as exc:
        for msg in exc.messages:
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
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    cfg = replace(cfg, experiment=VERB_EXPERIMENTS[args.verb])
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        if args.seed < 0:
            print("config error: seed must be a non-negative integer",
                  file=sys.stderr)
            return 2
        cfg = replace(cfg, seed=args.seed)
    if args.nx is not None:
        if args.nx < 3:
            print("config error: grid.nx must be an integer >= 3",
                  file=sys.stderr)
            return 2
        cfg = replace(cfg, nx=args.nx)
    if args.s is not None:
        try:
            s_grid = tuple(float(v) for v in args.s.split(",") if v.strip())
        except ValueError:
            s_grid = ()
        if not s_grid or not all(math.isfinite(v) and v > 0 for v in s_grid):
            print("config error: --s must be comma-separated positive "
                  "finite numbers", file=sys.stderr)
            return 2
        cfg = replace(cfg, s_grid=s_grid)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
