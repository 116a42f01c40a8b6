"""Acceptance gate: the nine release criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`); the
asserts carry the same thresholds, so the suite is the gate.  Everything is
oracle- or property-based at desk scale: Nx <= 801, ensembles <= 20.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import trapezoid

from symhyp import (
    BoundaryLabel,
    SymMatrixField,
    build_scenario,
    bump_profile,
    carleman_ratio,
    carleman_terms,
    check_eta_coercivity,
    check_h0_bounds,
    check_hypotheses,
    check_weight_coercivity,
    classify_boundary,
    conjugation_defect,
    estimate_observability,
    ibp_identity_defect,
    random_smooth_separable,
    residual,
    scan_carleman,
    solve,
    verify_energy_estimate,
)
from symhyp.cli import main

from conftest import scalar_scenario, system_scenario

TOL = 1e-10


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_hypothesis_arithmetic():
    tr = check_hypotheses(build_scenario("transport", nx=101))
    cs = check_hypotheses(build_scenario("coupled-spd", nx=101))
    wv = build_scenario("wave-type", nx=101)
    wv_weight = check_weight_coercivity(wv)
    wv_eta = check_eta_coercivity(wv)

    checks = [
        abs(tr.delta0 - 1.0) <= TOL, abs(tr.delta1 - 1.0) <= TOL,
        abs(tr.M - 1.0) <= TOL, abs(tr.T_min - 1.0) <= TOL,
        abs(cs.delta0 - 1.0) <= TOL, abs(cs.delta1 - 1.0) <= TOL,
        abs(cs.M - 3.0) <= TOL, abs(cs.T_min - 3.0) <= TOL,
        not wv_weight.passed, abs(wv_weight.value - (-wv.beta - 1.0)) <= TOL,
        not wv_eta.passed, abs(wv_eta.value - (-1.0)) <= TOL,
    ]
    _report("criterion 1 (hypothesis arithmetic)", all(checks),
            f"transport(delta0={tr.delta0}, M={tr.M}, T_min={tr.T_min}) "
            f"coupled-spd(delta0={cs.delta0}, M={cs.M}, T_min={cs.T_min}) "
            f"wave-type(lambda_min={wv_weight.value}, {wv_eta.value})")


def test_criterion_2_boundary_partition():
    scalar = scalar_scenario()
    lab1 = classify_boundary(scalar, 0.0)
    indef = system_scenario(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    lab2 = classify_boundary(indef, 0.0)
    spd = system_scenario([[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]])
    lab3 = classify_boundary(spd, 0.0)
    ok = (lab1["x_hi"] is BoundaryLabel.PLUS
          and lab1["x_lo"] is BoundaryLabel.MINUS
          and lab2["x_lo"] is BoundaryLabel.NEITHER
          and lab2["x_hi"] is BoundaryLabel.NEITHER
          and lab3["x_hi"] is BoundaryLabel.PLUS
          and lab3["x_lo"] is BoundaryLabel.MINUS)
    _report("criterion 2 (boundary partition)", ok,
            f"scalar={lab1} indefinite={lab2} spd={lab3}")


def test_criterion_3_solver_convergence():
    errors = []
    sizes = (201, 401, 801)
    for nx in sizes:
        sc = build_scenario("transport", nx=nx, t_final=0.5)
        inflow = {"x_lo": lambda t: np.sin(np.pi * (0.0 - t))}
        res = solve(sc, lambda x: np.sin(np.pi * x), inflow=inflow)
        exact = np.sin(np.pi * (sc.grid.x - 0.5))[:, None]
        diff = res.u.values[-1] - exact
        errors.append(float(np.sqrt(trapezoid(np.sum(diff ** 2, axis=-1),
                                              dx=sc.grid.hx))))
    hs = [1.0 / (nx - 1) for nx in sizes]
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    _report("criterion 3 (solver convergence)", order >= 0.9,
            f"L2 errors={errors}, fitted order={order:.3f} >= 0.9")


def test_criterion_4_identity_defects():
    r_field = SymMatrixField.affine([[1.0, 0.0], [0.0, 1.0]],
                                    [[1.0, 0.0], [0.0, 0.0]])
    r_sc = replace(system_scenario(np.eye(2), np.eye(2), nx=101, nt=101),
                   h1=r_field)
    r_fine = r_sc.with_grid(r_sc.grid.refined())
    w = random_smooth_separable(r_sc.grid, 2, seed=5).materialize()
    w_fine = random_smooth_separable(r_fine.grid, 2, seed=5).materialize()
    ibp_ratio = (ibp_identity_defect(w, r_sc, "x")
                 / ibp_identity_defect(w_fine, r_fine, "x"))

    sc = build_scenario("coupled-spd", nx=101, nt=101)
    sc_fine = sc.with_grid(sc.grid.refined())
    u = random_smooth_separable(sc.grid, 2, seed=3).materialize()
    u_fine = random_smooth_separable(sc_fine.grid, 2,
                                     seed=3).materialize()
    conj_ratio = (conjugation_defect(u, sc, s=4.0)
                  / conjugation_defect(u_fine, sc_fine, s=4.0))

    ok = ibp_ratio >= 3.5 and conj_ratio >= 3.5
    _report("criterion 4 (identity defects)", ok,
            f"ibp shrink={ibp_ratio:.3f}, conjugation shrink="
            f"{conj_ratio:.3f}, both >= 3.5")


def test_criterion_5_carleman_boundedness():
    sc = build_scenario("coupled-spd", nx=201)  # beta=0.5, T=2 defaults
    assert sc.beta == 0.5 and sc.grid.t_final == 2.0
    report = scan_carleman(sc, ensemble=20, s_grid=(1, 2, 4, 8, 16),
                           seed=0, refine=True)
    finite = report.all_finite
    drift_ok = report.drift is not None and report.drift < 0.20

    u = random_smooth_separable(sc.grid, 2, seed=0).materialize()
    f = residual(u, sc)
    r1 = carleman_ratio(carleman_terms(u, f, sc, s=4.0))
    r3 = carleman_ratio(carleman_terms(u.scaled(3.0), f.scaled(3.0), sc, s=4.0))
    scale_ok = abs(r3 - r1) <= 1e-12 * abs(r1)

    ok = finite and drift_ok and scale_ok
    _report("criterion 5 (weighted-estimate boundedness)", ok,
            f"rho_max={[f'{r:.4g}' for r in report.rho_max]}, "
            f"C_hat={report.c_hat:.4g}, drift={report.drift:.4%} < 20%, "
            f"scale invariance |dr|={abs(r3 - r1):.2e}")


def test_criterion_6_observability_positive():
    sc = build_scenario("transport", nx=401, t_final=1.5)
    report = estimate_observability(sc, ensemble=20, seed=0, modes=3,
                                    decay=2.0)
    ok = report.verdict == "OBSERVABLE" and report.c_obs <= 1.1
    _report("criterion 6 (observability, positive direction)", ok,
            f"C_obs={report.c_obs:.4f} <= 1.1, verdict={report.verdict}")


def test_criterion_7_observability_counterexample():
    ratios = {}
    for nx in (401, 801):
        sc = build_scenario("transport", nx=nx, t_final=0.5)
        report = estimate_observability(
            sc, members=[bump_profile(sc.grid, (0.0, 0.4), sc.n_comp)])
        ratios[nx] = report.c_obs
        assert report.verdict == "COUNTEREXAMPLE"
    growing = ratios[801] > ratios[401] or math.isinf(ratios[801])
    ok = ratios[401] > 10.0 and growing
    _report("criterion 7 (observability counterexample)", ok,
            f"r(401)={ratios[401]:.4g} > 10, r(801)={ratios[801]:.4g} "
            f"increasing")


def test_criterion_8_energy_estimate():
    details = []
    ok = True
    for name in ("transport", "coupled-spd", "coupled-varying", "wave-type"):
        sc = build_scenario(name, nx=201)
        if not check_h0_bounds(sc).passed:
            continue
        report = verify_energy_estimate(sc, ensemble=20, seed=0)
        details.append(f"{name}: C_energy={report.c_energy:.4f}")
        ok = ok and report.finite
        if name == "transport":
            ok = ok and report.c_energy <= 1.05
    _report("criterion 8 (energy estimate)", ok,
            "; ".join(details) + "; transport <= 1.05")


def test_criterion_9_determinism(tmp_path):
    body = ("scenario: coupled-spd\ngrid: {nx: 51}\ns_grid: [1, 4]\n"
            "ensemble: 4\nseed: 13\n")
    for verb, extra in (("carleman", ""),
                        ("observe", "T: 4.0\ninitial: {kind: random}\n")):
        outs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{verb}_{tag}.yaml"
            out = tmp_path / f"{verb}_{tag}"
            cfg.write_text(body + extra + f"out_dir: {out}\n")
            assert main([verb, "--config", str(cfg)]) == 0
            outs.append(out)
        for csv_path in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / csv_path.name
            assert csv_path.read_bytes() == twin.read_bytes(), csv_path.name
    _report("criterion 9 (determinism)", True,
            "byte-identical CSV artifacts across seeded reruns")
