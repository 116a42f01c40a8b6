"""The four benchmark workloads, their sizes and their work units.

Three workloads run a CLI verb on a YAML config; `timedep-observe` calls
`estimate_observability` on a scenario built here, because CLI configs only
accept constant or affine-in-x fields.  Each workload has a `full` size (the
benchmark proper) and a `small` size (the benchmark's own tests).  Nothing
here imports numpy at module level: `run.py` imports this file
and stays a light process.
"""

from __future__ import annotations

import re

# Sizes keep the shapes of the profiled baseline runs, scaled so that one
# run of the program takes 2 to 3 s on a 2-core machine; a benchmark
# invocation then holds several program runs and reports their median.
WORKLOADS = {
    "carleman-scan": {
        "why": "manufactured-solution path: residual, Carleman quadrature "
               "and member generation; never calls solve",
        "verb": "carleman",
        "outputs": ("carleman_scan.csv", "carleman_scan_refined.csv"),
        "constants": ("s0_hat", "C_hat", "C_hat_refined", "drift"),
        "unit_name": "ratios_per_s",
        "counted_by": "functionals.carleman_terms.calls",
        "sizes": {
            "full": {"scenario": "coupled-varying", "nx": 101, "T": 2.0,
                     "s_grid": [1, 2, 4, 8, 16], "ensemble": 4,
                     "modes": 4, "decay": 2.0},
            "small": {"scenario": "coupled-varying", "nx": 21, "T": 2.0,
                      "s_grid": [1, 4], "ensemble": 2, "modes": 2,
                      "decay": 2.0},
        },
    },
    "energy-march": {
        "why": "zero-inflow solves over the coarse and refined grids plus "
               "the energy ledger; no residual, no Carleman quadrature",
        "verb": "energy",
        "outputs": ("energy.csv",),
        "constants": ("C_energy", "C_energy_refined", "drift"),
        "unit_name": "member_steps_per_s",
        "counted_by": "solver.solve.member_steps",
        "sizes": {
            "full": {"scenario": "coupled-varying", "nx": 101, "T": 2.0,
                     "ensemble": 8, "initial_modes": 3},
            "small": {"scenario": "coupled-varying", "nx": 21, "T": 2.0,
                      "ensemble": 2, "initial_modes": 3},
        },
    },
    "solve-csv": {
        "why": "one march, then CSV emission of every solution value: the "
               "write-heavy use of the output path",
        "verb": "solve",
        "outputs": ("solution.csv", "traces.csv"),
        "constants": ("cfl_used",),
        "unit_name": "csv_mb_per_s",
        "counted_by": None,  # cli.bytes is the same byte count
        "sizes": {
            "full": {"scenario": "coupled-varying", "nx": 201, "T": 0.5,
                     "initial_modes": 3},
            "small": {"scenario": "coupled-varying", "nx": 41, "T": 0.5,
                      "initial_modes": 3},
        },
    },
    "timedep-observe": {
        "why": "library observability study with time-dependent h1 on a "
               "fixed grid: the only path through the time-dependent marcher",
        "verb": None,
        "outputs": ("observability.csv",),
        "constants": ("C_obs", "verdict"),
        "unit_name": "member_steps_per_s",
        "counted_by": "solver.solve.member_steps",
        "sizes": {
            "full": {"nx": 101, "nt": 1601, "T": 2.0, "ensemble": 2,
                     "modes": 3, "beta": 0.5},
            "small": {"nx": 21, "nt": 321, "T": 2.0, "ensemble": 2,
                      "modes": 3, "beta": 0.5},
        },
    },
}

_NUM = r"([-+]?(?:nan|inf|[0-9.]+(?:e[-+]?[0-9]+)?))"

#: printed constants, parsed from the program's standard output
CONSTANT_PATTERNS = {
    "s0_hat": re.compile(r"s0_hat=" + _NUM),
    "C_hat": re.compile(r"s0_hat=\S+ C_hat=" + _NUM),
    "C_hat_refined": re.compile(r"refined \(\S+\): C_hat=" + _NUM),
    "C_energy": re.compile(r"^  C_energy=" + _NUM, re.M),
    "C_energy_refined": re.compile(r"refined: C_energy=" + _NUM),
    "drift": re.compile(r"drift=" + _NUM),
    "cfl_used": re.compile(r"cfl_used=" + _NUM),
    "C_obs": re.compile(r"C_obs=" + _NUM),
    "verdict": re.compile(r"verdict: (\w+)"),
}

_RUN_LINE = re.compile(r"^run: .* nt=(\d+) ", re.M)


def config_yaml(name: str, size: str) -> str:
    """YAML config of a CLI workload (seed and out dir come as flags)."""
    p = WORKLOADS[name]["sizes"][size]
    lines = [f"scenario: {p['scenario']}",
             f"grid: {{nx: {p['nx']}, nt: auto}}",
             f"T: {p['T']}"]
    if "s_grid" in p:
        lines.append(f"s_grid: {p['s_grid']}")
        lines.append(f"ensemble: {{size: {p['ensemble']}, modes: "
                     f"{p['modes']}, decay: {p['decay']}}}")
    elif "ensemble" in p:
        lines.append(f"ensemble: {{size: {p['ensemble']}}}")
    if "initial_modes" in p:
        lines.append(f"initial: {{kind: random, modes: {p['initial_modes']}}}")
    return "\n".join(lines) + "\n"


def parse_constants(name: str, stdout: str) -> dict:
    """The workload's printed constants; a missing one maps to None."""
    found = {}
    for key in WORKLOADS[name]["constants"]:
        m = CONSTANT_PATTERNS[key].search(stdout)
        if m is None:
            found[key] = None
        elif key == "verdict":
            found[key] = m.group(1)
        else:
            found[key] = float(m.group(1))
    return found


def work_units(name: str, size: str, stdout: str, csv_bytes: int) -> float:
    """Work done by one program run, in the unit of the workload's rate.

    ratios: (member, s) pairs over the coarse and refined passes;
    member steps: sum over solves of (nt - 1), the refined grid having
    2 (nt - 1) steps; CSV MB: bytes written / 1e6.
    """
    p = WORKLOADS[name]["sizes"][size]
    if name == "carleman-scan":
        return 2.0 * p["ensemble"] * len(p["s_grid"])
    if name == "energy-march":
        nt = int(_RUN_LINE.search(stdout).group(1))
        return 3.0 * p["ensemble"] * (nt - 1)
    if name == "solve-csv":
        return csv_bytes / 1e6
    return float(p["ensemble"] * (p["nt"] - 1))


def timedep_scenario(size: str):
    """h0 = I, h1(x, t) = [[2 + x + 0.5 sin 4t, 1], [1, 2]] on a fixed grid.

    nt is fixed rather than derived: the derivation in `build_scenario`
    and `resolve_scenario` probes only t = 0 and t = T, and this workload
    must not depend on that probe.  The benchmark checks separately that
    nt is admissible on the final grid.
    """
    import numpy as np
    import symhyp as sh

    p = WORKLOADS["timedep-observe"]["sizes"][size]

    def h1(x, t):
        out = np.empty(np.broadcast_shapes(x.shape, t.shape) + (2, 2))
        out[..., 0, 0] = 2.0 + x + 0.5 * np.sin(4.0 * t)
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = 2.0
        return out

    return sh.Scenario(
        name="timedep-h1",
        grid=sh.SpaceTimeGrid(0.0, 1.0, p["T"], p["nx"], p["nt"]),
        n_comp=2,
        h0=sh.SymMatrixField.constant(np.eye(2), label="h0=I"),
        h1=sh.SymMatrixField(2, h1, label="h1=[[2+x+0.5sin4t,1],[1,2]]",
                             time_independent=False),
        eta=sh.SpatialWeight.linear(1.0, 0.0),
        beta=p["beta"])
