"""Time stepper: oracles, conservation properties, refusals, linearity."""

import importlib
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import trapezoid

import symhyp

from symhyp import (
    AsymmetricFieldError,
    CflViolationError,
    FieldEvaluationError,
    GridError,
    GridFunction,
    MatrixField,
    SingularCoefficientError,
    SpaceTimeGrid,
    SpatialWeight,
    Scenario,
    SymMatrixField,
    VectorField,
    admissible_time_nodes,
    build_scenario,
    energy_ledger,
    estimate_observability,
    exact_transport,
    max_char_speed,
    observability_ratio,
    parse_config,
    residual,
    resolve_scenario,
    solve,
    verify_energy_estimate,
)
from symhyp import fields, solver
from symhyp.catalog import CatalogEntry
from symhyp.cli import main
from symhyp.fields import ROW_BLOCK, SPEED_TOL, _closure_projectors
from symhyp.functionals import MarchRecord
from symhyp.solver import _inflow_data, _normalize_initial

import test_functionals
import test_hypotheses
from conftest import breathing_h0, scalar_scenario, system_scenario


def l2_x(vals, hx):
    return float(np.sqrt(trapezoid(np.sum(vals ** 2, axis=-1), dx=hx)))


def transport_scenario(nx, t_final):
    return build_scenario("transport", nx=nx, t_final=t_final)


class TestSolve:
    def test_zero_data_zero_solution(self):
        sc = transport_scenario(51, 0.5)
        res = solve(sc, np.zeros((51, 1)))
        assert np.all(res.u.values == 0.0)
        assert np.all(res.traces == 0.0)

    def test_transport_oracle_error_bound(self):
        # kinked zero-inflow solution: sin profile cut off along x = t
        sc = transport_scenario(401, 0.5)
        res = solve(sc, lambda x: np.sin(np.pi * x))
        exact = exact_transport(1.0, lambda y: np.sin(np.pi * y), sc.grid)
        err = l2_x(res.u.values[-1] - exact.values[-1], sc.grid.hx)
        assert err < 2e-2

    def test_convergence_order_on_smooth_oracle(self):
        # compatible inflow keeps the solution smooth; first-order scheme.
        # Exact solution sin(pi (x - X(t))) for speed c(t) = X'(t): constant
        # c = 1 on the static path, c = 1 + 0.5 sin 4t on the per-row path.
        def speed(x, t):
            return (1.0 + 0.5 * np.sin(4.0 * t) + 0.0 * x)[..., None, None]

        varying = SymMatrixField(1, speed, time_independent=False)

        def varying_scenario(nx):
            # ht = 0.5 hx / max c: Courant number 0.5 at the fastest speed
            grid = SpaceTimeGrid(0.0, 1.0, 0.5, nx, 3 * (nx - 1) // 2 + 1)
            return replace(transport_scenario(nx, 0.5), h1=varying,
                           grid=grid)

        cases = [(lambda nx: transport_scenario(nx, 0.5), lambda t: t),
                 (varying_scenario,
                  lambda t: t + (1.0 - np.cos(4.0 * t)) / 8.0)]
        for make, shift in cases:
            errors = []
            for nx in (101, 201, 401):
                sc = make(nx)
                inflow = {"x_lo": lambda t: np.sin(np.pi * (0.0 - shift(t)))}
                res = solve(sc, lambda x: np.sin(np.pi * x), inflow=inflow)
                exact = np.sin(np.pi * (sc.grid.x - shift(0.5)))[:, None]
                errors.append(l2_x(res.u.values[-1] - exact, sc.grid.hx))
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all(orders >= 0.9)

    def test_traces_equal_boundary_columns(self):
        sc = transport_scenario(51, 0.5)
        res = solve(sc, lambda x: np.sin(np.pi * x))
        assert np.array_equal(res.traces[0], res.u.values[:, 0, :])
        assert np.array_equal(res.traces[1], res.u.values[:, -1, :])

    def test_cfl_used_within_limit(self):
        sc = transport_scenario(101, 0.5)
        res = solve(sc, lambda x: np.sin(np.pi * x))
        assert res.cfl_used <= res.cfl_limit * (1 + 1e-12)

    def test_cfl_violation_refused(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 101, 11)  # ht far too large
        sc = scalar_scenario().with_grid(grid)
        with pytest.raises(CflViolationError, match="need nt >="):
            solve(sc, np.zeros((101, 1)))

    def test_cfl_violation_after_start_refused(self):
        # speed 1 + t: Courant number 1/3 at t = 0, 2/3 at t = T = 1
        def h1(x, t):
            return (1.0 + np.broadcast_to(t, np.broadcast_shapes(
                np.shape(x), np.shape(t))))[..., None, None]

        sc = Scenario(name="speeding", grid=SpaceTimeGrid(0.0, 1.0, 1.0, 101,
                                                          301),
                      n_comp=1, h0=SymMatrixField.constant([[1.0]]),
                      h1=SymMatrixField(1, h1, time_independent=False),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        with pytest.raises(CflViolationError, match="need nt >= 401"):
            solve(sc, lambda x: np.sin(np.pi * x))
        ok = sc.with_grid(SpaceTimeGrid(0.0, 1.0, 1.0, 101, 401))
        res = solve(ok, lambda x: np.sin(np.pi * x))
        assert res.cfl_used == pytest.approx(0.5, rel=1e-12)
        assert res.cfl_used == max_char_speed(ok) * ok.grid.ht / ok.grid.hx

    def test_courant_rule_shared_with_admissible_time_nodes(self, tmp_path,
                                                            capsys):
        # T alpha / (cfl hx) = 100.00000000005 steps, 5e-13 relative past
        # the bound: one step short, for solve as for admissible_time_nodes
        sc = build_scenario("transport", nx=101, nt=101,
                            t_final=0.50000000000025)
        assert admissible_time_nodes(sc) == 102
        with pytest.raises(CflViolationError, match="need nt >= 102$"):
            solve(sc, np.zeros((101, 1)))
        # past MAX_TIME_NODES, and for an unbounded speed, solve still
        # refuses with the count it needs: only admissible_time_nodes caps it
        fast = scalar_scenario(nx=41, nt=41, beta=1.0, h1=1e9)
        with pytest.raises(CflViolationError, match=r"alpha=1000000000\.0 "
                           r"at x=0\.0, t=0\.0; need nt >= 80000000001$"):
            solve(fast, np.zeros((41, 1)))
        with pytest.raises(GridError, match="at most 10000000"):
            admissible_time_nodes(fast)
        with np.errstate(over="ignore"):
            unbounded = scalar_scenario(nx=41, nt=41, h0=1e-300, h1=1e300)
            with pytest.raises(CflViolationError,
                               match=r"alpha=inf .*; need nt >= inf$"):
                solve(unbounded, np.zeros((41, 1)))
        # the count keeps its values on the catalog and time-dependent speeds
        for name, count in (("transport", 81), ("coupled-spd", 81),
                            ("coupled-varying", 291), ("wave-type", 81)):
            assert admissible_time_nodes(
                build_scenario(name, nx=41, t_final=1.0)) == count, name
        assert admissible_time_nodes(
            test_functionals.TestSeparableMembers.scenario("pulsing")) == 121
        assert admissible_time_nodes(
            test_hypotheses.TestTimeDependentSamples.scenario()) == 1601
        # nt: auto past MAX_TIME_NODES is a config error, with exit 2
        cfg = tmp_path / "fast.yaml"
        cfg.write_text("scenario:\n  n: 1\n  h0: {constant: [[1]]}\n"
                       "  h1: {constant: [[1e9]]}\ngrid: {nx: 41}\nT: 1.0\n"
                       "weight: {beta: 1.0}\n")
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: scenario: the Courant bound at speed "
            "1000000000.0 needs 8.000e+10 time steps (at most 10000000)\n")

    @pytest.mark.parametrize("name", ["transport", "coupled-spd",
                                      "coupled-varying", "wave-type",
                                      "pulsing"])
    def test_refused_exactly_below_admissible_time_nodes(self, name):
        sc = test_functionals.TestSeparableMembers.scenario(name)
        zeros = np.zeros((sc.grid.nx, sc.n_comp))
        assert admissible_time_nodes(sc) == sc.grid.nt
        solve(sc, zeros)
        # the speeds of a grid are sampled at its own time nodes
        short = sc.with_grid(replace(sc.grid, nt=sc.grid.nt - 1))
        need = admissible_time_nodes(short)
        assert need > short.grid.nt
        with pytest.raises(CflViolationError, match=f"need nt >= {need}$"):
            solve(short, zeros)

    def test_grid_past_max_time_nodes_marches(self, monkeypatch):
        # only the count of admissible_time_nodes is capped: a grid that
        # meets the bound marches whatever its number of time nodes
        sc = build_scenario("transport", nx=41, t_final=1.0)
        monkeypatch.setattr(solver, "MAX_TIME_NODES", 10)
        with pytest.raises(GridError, match="at most 10"):
            admissible_time_nodes(sc)
        assert len(solve(sc, np.zeros((41, 1))).u.values) == sc.grid.nt > 10

    @pytest.mark.parametrize("defect, error, match", [
        ("asymmetric", AsymmetricFieldError, "field h1 symmetry defect"),
        ("nan", FieldEvaluationError, r"field h1 non-finite .* x=.*, t=")],
        ids=["asymmetric", "nan"])
    def test_coefficient_defect_after_start_refused(self, defect, error,
                                                    match):
        # h1 is valid at t = 0 only; the marcher and its Courant bound must
        # refuse it as the hypothesis checks do
        def h1(x, t):
            t = np.broadcast_to(t, np.broadcast_shapes(x.shape, t.shape))
            out = np.empty(t.shape + (2, 2))
            out[..., 0, 0] = out[..., 1, 1] = 2.0
            out[..., 1, 0] = 1.0
            out[..., 0, 1] = 1.0 + 0.1 * t if defect == "asymmetric" else 1.0
            if defect == "nan":
                out[t > 0.5] = np.nan
            return out

        sc = Scenario(name=defect, grid=SpaceTimeGrid(0.0, 1.0, 1.0, 21, 201),
                      n_comp=2, h0=SymMatrixField.constant(np.eye(2)),
                      h1=SymMatrixField(2, h1, label="h1",
                                        time_independent=False),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        with pytest.raises(error, match=match):
            solve(sc, np.zeros((21, 2)))
        with pytest.raises(error, match=match):
            admissible_time_nodes(sc)

    def test_singular_h0_names_node(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 400)
        h0 = SymMatrixField.affine([[0.0]], [[1.0]])  # vanishes at x = 0
        sc = Scenario(name="singular", grid=grid, n_comp=1, h0=h0,
                      h1=SymMatrixField.constant([[1.0]]),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        # a refused sample set is not cached: every call refuses again
        for _ in range(2):
            with pytest.raises(SingularCoefficientError, match="x=0.0"):
                max_char_speed(sc)
            with pytest.raises(SingularCoefficientError, match="x=0.0"):
                solve(sc, np.zeros((11, 1)))

    def test_node_speeds_computed_once_per_scenario(self, monkeypatch):
        # speed 1 + 0.5 sin 4t: one distinct speed row per time node
        def h1(x, t):
            return (1.0 + 0.5 * np.sin(4.0 * t))[..., None, None]

        sc = Scenario(name="pulsing", grid=SpaceTimeGrid(0.0, 1.0, 0.5, 41,
                                                         301),
                      n_comp=1, h0=SymMatrixField.constant([[1.0]]),
                      h1=SymMatrixField(1, h1, time_independent=False),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        calls = []
        char_speeds = fields._char_speeds

        # a time-independent h0 is whitened once, so count the h1 rows
        def counting(h0m, h1m, linv=None):
            calls.append(len(h1m))
            return char_speeds(h0m, h1m, linv)

        monkeypatch.setattr(fields, "_char_speeds", counting)
        first = solve(sc, lambda x: np.sin(np.pi * x))
        assert sum(calls) == 301
        second = solve(sc, lambda x: np.sin(np.pi * x))
        admissible_time_nodes(sc)
        assert sum(calls) == 301
        assert np.array_equal(first.u.values, second.u.values)

    def test_time_dependent_grid_just_under_its_courant_limit(self):
        # h0 = I, h1 = [[2 + x + 0.5 sin 4t, 1], [1, 2]] on 101 x 1601 nodes,
        # T = 2: T alpha / (cfl hx) = 1599.99995, so a speed about 3e-8
        # relative too high would need nt 1602
        def h1(x, t):
            x, t = np.broadcast_arrays(x, t)
            out = np.ones(x.shape + (2, 2))
            out[..., 0, 0] = 2.0 + x + 0.5 * np.sin(4.0 * t)
            out[..., 1, 1] = 2.0
            return out

        sc = Scenario(name="timedep-h1",
                      grid=SpaceTimeGrid(0.0, 1.0, 2.0, 101, 1601), n_comp=2,
                      h0=SymMatrixField.constant(np.eye(2)),
                      h1=SymMatrixField(2, h1, time_independent=False),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        steps = 2.0 * max_char_speed(sc) / (0.5 * sc.grid.hx)
        assert 1600 - 1e-4 < steps < 1600
        assert admissible_time_nodes(sc) == 1601
        res = solve(sc, fields.random_initial_profile(sc.grid, 2, seed=0))
        assert res.cfl_used <= 0.5

    @pytest.mark.parametrize("name", ["transport", "coupled-spd", "wave-type"])
    def test_energy_nonincreasing_constant_coefficients(self, name):
        sc = build_scenario(name, nx=101, t_final=1.0)
        rng = np.random.default_rng(8)
        u0 = np.sin(np.pi * sc.grid.x)[:, None] * rng.standard_normal(sc.n_comp)
        res = solve(sc, u0)
        energy = trapezoid(np.sum(res.u.values ** 2, axis=-1),
                           dx=sc.grid.hx, axis=1)
        assert np.all(np.diff(energy) <= 1e-12 * max(1.0, energy[0]))

    def test_linearity_in_data(self):
        nx = 51
        base = transport_scenario(nx, 0.5)
        x = base.grid.x
        u1 = np.sin(np.pi * x)[:, None]
        u2 = np.cos(np.pi * x)[:, None]
        g1 = {"x_lo": lambda t: 0.2 * np.sin(t)}
        g2 = {"x_lo": lambda t: -0.1 * t}
        f1 = VectorField(1, lambda xx, tt: (np.sin(np.pi * xx) * np.cos(tt))[..., None])
        f2 = VectorField(1, lambda xx, tt: (xx * tt)[..., None])
        a, b = 2.0, -3.0

        s1 = solve(replace(base, source=f1), u1, inflow=g1)
        s2 = solve(replace(base, source=f2), u2, inflow=g2)
        combo_src = VectorField(1, lambda xx, tt: a * f1(xx, tt) + b * f2(xx, tt))
        combo_inflow = {"x_lo": lambda t: a * g1["x_lo"](t) + b * g2["x_lo"](t)}
        s12 = solve(replace(base, source=combo_src), a * u1 + b * u2,
                    inflow=combo_inflow)

        expect = a * s1.u.values + b * s2.u.values
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(s12.u.values - expect)) <= 1e-10 * scale

    def test_time_dependent_flag_keeps_static_result(self):
        # same coefficient values through the per-row path: identical bits
        sc = build_scenario("coupled-varying", nx=51, t_final=0.5)
        h1 = sc.h1
        flagged = replace(sc, h1=SymMatrixField(h1.n_comp, h1.fn, h1.label,
                                                time_independent=False))
        u0 = np.column_stack([np.sin(np.pi * sc.grid.x),
                              np.sin(2 * np.pi * sc.grid.x)])
        inflow = {"x_lo": lambda t: [np.sin(t), 0.5 * t]}
        static = solve(sc, u0, inflow=inflow)
        per_row = solve(flagged, u0, inflow=inflow)
        assert np.array_equal(static.u.values, per_row.u.values)
        assert np.array_equal(static.traces, per_row.traces)

    def test_coupled_varying_runs_stably(self):
        sc = build_scenario("coupled-varying", nx=101, t_final=1.0)
        u0 = np.column_stack([np.sin(np.pi * sc.grid.x),
                              np.sin(2 * np.pi * sc.grid.x)])
        res = solve(sc, u0)
        assert np.all(np.isfinite(res.u.values))
        assert np.max(np.abs(res.u.values[-1])) <= np.max(np.abs(u0)) * 1.01


def _einsum_march(scenario, initial, inflow=None):
    """The step loop that the banded march replaced, as the oracle: three
    per-node einsums a step on broadcast per-row coefficients, then the
    closure u_b = P_out (2 u_1 - u_2) + P_in g, one side at a time."""
    grid = scenario.grid
    n = scenario.n_comp
    nx, nt = grid.nx, grid.nt
    hx, ht = grid.hx, grid.ht
    samples = scenario.samples
    speeds = samples.speeds

    def steps(arr):
        return np.broadcast_to(arr, (nt,) + arr.shape[1:])

    rows = len(speeds)
    iface = steps(np.maximum(speeds[:, :-1], speeds[:, 1:])[..., None])
    a_r, a_l = iface[:, 1:], iface[:, :-1]
    h1 = steps(samples.h1)[:, 1:-1]
    inv_h0 = steps(np.linalg.inv(samples.h0))[:, 1:-1]
    p = None if samples.p is None else steps(samples.p)[:, 1:-1]
    flux = np.broadcast_to(samples.flux, (2, rows, n, n))
    h0b = np.broadcast_to(np.stack([samples.h0[:, 0], samples.h0[:, -1]]),
                          flux.shape)
    p_out, p_in = (np.broadcast_to(pr, (2, nt, n, n))
                   for pr in _closure_projectors(flux, h0b))
    entering = (p_in @ _inflow_data(inflow, grid.t, n)[..., None])[..., 0]

    u = np.empty((nt, nx, n))
    u[0] = _normalize_initial(initial, grid, n)
    lam_c = ht / (2.0 * hx)
    for step in range(nt - 1):
        un = u[step]
        rhs = np.einsum("iab,ib->ia", h1[step], un[2:] - un[:-2]) / (2 * hx)
        if p is not None:
            rhs = rhs + np.einsum("iab,ib->ia", p[step], un[1:-1])
        if scenario.source is not None:
            rhs = rhs - scenario.source(
                grid.x, np.asarray(float(grid.t[step])))[1:-1]
        upd = un[1:-1] - ht * np.einsum("iab,ib->ia", inv_h0[step], rhs)
        upd = upd + lam_c * (a_r[step] * (un[2:] - un[1:-1])
                             - a_l[step] * (un[1:-1] - un[:-2]))
        u[step + 1, 1:-1] = upd
        un1 = u[step + 1]
        for k, (ib, i1, i2) in enumerate(((0, 1, 2), (-1, -2, -3))):
            un1[ib] = (p_out[k, step + 1] @ (2.0 * un1[i1] - un1[i2])
                       + entering[k, step + 1])
    return u


def _pulsing_speed(x, t):
    """Scalar speed 1 + 0.5 sin 4t on every node."""
    return (1.0 + 0.5 * np.sin(4.0 * t) + 0.0 * x)[..., None, None]


def _wobbling_flux(x, t):
    """coupled-varying's flux plus 0.5 sin(4t) I: a 2x2 h1 that moves in t."""
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros(x.shape + (2, 2))
    out[..., 0, 0] = 2.0 + x + 0.5 * np.sin(4.0 * t)
    out[..., 1, 1] = 2.0 + 0.5 * np.sin(4.0 * t)
    out[..., 0, 1] = out[..., 1, 0] = 1.0
    return out


def _marched_cases():
    """(scenario, initial data, inflow) for every branch of the step."""
    cases = {}
    for name in ("transport", "coupled-spd", "coupled-varying", "wave-type"):
        sc = build_scenario(name, nx=41, t_final=1.0)
        cases[name] = (sc, fields.random_initial_profile(sc.grid, sc.n_comp,
                                                         seed=4), None)
    pulsing = replace(
        transport_scenario(41, 0.5),
        h1=SymMatrixField(1, _pulsing_speed, time_independent=False),
        grid=SpaceTimeGrid(0.0, 1.0, 0.5, 41, 3 * 40 // 2 + 1))
    cases["pulsing"] = (pulsing, lambda x: np.sin(np.pi * x),
                        {"x_lo": lambda t: -np.sin(np.pi * t)})
    switch = test_functionals.TestBoundaryClassSwitch.scenario().with_grid(
        SpaceTimeGrid(0.0, 1.0, 2.0, 41, 161))
    cases["switch"] = (switch, fields.random_initial_profile(
        switch.grid, 2, seed=5), {"x_lo": lambda t: [0.1 * t, -0.2 * t],
                                  "x_hi": lambda t: [np.sin(t), 0.3]})
    varying = build_scenario("coupled-varying", nx=41, t_final=1.0)
    forced = replace(
        varying,
        p=MatrixField.constant([[0.3, -0.2], [0.1, 0.4]]),
        source=VectorField(2, lambda x, t: np.stack(
            [np.sin(np.pi * x) * np.cos(t), x * t + 0.0 * x], axis=-1)))
    cases["source-inflow"] = (forced, fields.random_initial_profile(
        forced.grid, 2, seed=6), {"x_lo": lambda t: [np.sin(t), 0.5 * t]})
    wobbling = replace(
        varying, h1=SymMatrixField(2, _wobbling_flux, time_independent=False),
        grid=SpaceTimeGrid(0.0, 1.0, 1.0, 41, 401))
    cases["wobbling"] = (wobbling, fields.random_initial_profile(
        wobbling.grid, 2, seed=7), None)
    # time-dependent h0 over several band blocks, with and without the
    # source term that reads inv(h0) at every step
    breathing = replace(
        forced, h0=SymMatrixField(2, breathing_h0, time_independent=False))
    breathing = breathing.with_grid(SpaceTimeGrid(
        0.0, 1.0, 1.0, 41, admissible_time_nodes(breathing)))
    assert breathing.grid.nt > 2 * ROW_BLOCK
    for name, sc in (("breathing-h0", replace(breathing, source=None)),
                     ("breathing-h0-source", breathing)):
        cases[name] = (sc, fields.random_initial_profile(sc.grid, 2, seed=9),
                       {"x_lo": lambda t: [np.sin(t), 0.5 * t]})
    # n = 3, static, x-dependent h0 and h1 with speeds of both signs: every
    # band offset of a 3-component node, and a characteristic entering at
    # each end
    mixed = Scenario(
        name="mixed-3", grid=SpaceTimeGrid(0.0, 1.0, 1.0, 41, 2), n_comp=3,
        h0=SymMatrixField.affine([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2],
                                  [0.0, 0.2, 1.0]], 0.5 * np.eye(3)),
        h1=SymMatrixField.affine([[1.0, 0.5, 0.0], [0.5, -1.0, 0.3],
                                  [0.0, 0.3, 0.4]], np.diag([0.2, 0.0, -0.1])),
        p=MatrixField.constant([[0.2, -0.1, 0.0], [0.3, 0.1, 0.0],
                                [0.0, 0.2, -0.1]]),
        eta=SpatialWeight.linear(1.0), beta=0.5)
    mixed = mixed.with_grid(SpaceTimeGrid(0.0, 1.0, 1.0, 41,
                                          admissible_time_nodes(mixed)))
    cases["mixed-3"] = (mixed, fields.random_initial_profile(
        mixed.grid, 3, seed=8), {"x_lo": lambda t: [np.sin(t), 0.2, -0.1 * t],
                                 "x_hi": lambda t: [0.3 * t, np.cos(t), 0.1]})
    return cases


MARCHED = _marched_cases()


class TestBandedStep:
    @pytest.mark.parametrize("name", sorted(MARCHED))
    def test_matches_einsum_step_loop(self, name):
        sc, u0, inflow = MARCHED[name]
        res = solve(sc, u0, inflow=inflow)
        ref = _einsum_march(sc, u0, inflow)
        scale = np.max(np.abs(ref))
        assert scale > 0.0
        assert np.max(np.abs(res.u.values - ref)) <= 1e-13 * scale
        assert np.array_equal(res.traces[0], res.u.values[:, 0, :])
        assert np.array_equal(res.traces[1], res.u.values[:, -1, :])

    def test_mixed_speeds_enter_at_both_ends(self):
        sc = MARCHED["mixed-3"][0]
        speeds = np.linalg.eigvals(np.linalg.solve(sc.samples.h0[0],
                                                   sc.samples.h1[0]))
        assert np.all(np.any(speeds.real < 0, axis=-1))
        assert np.all(np.any(speeds.real > 0, axis=-1))
        p_in = sc.samples.closure[1]
        assert np.all(np.any(p_in != 0.0, axis=(-2, -1)))

    def test_closure_projectors_built_once_per_scenario(self, monkeypatch):
        # wobbling h1: one closure per time node at each end, whitened with
        # the node speeds in the first solve and never again
        sc = replace(MARCHED["wobbling"][0], name="wobbling-again")
        u0 = MARCHED["wobbling"][1]
        whitened = []
        whiten = fields._whiten

        def counting(linv, h1m):
            whitened.append(int(np.prod(h1m.shape[:-2])))
            return whiten(linv, h1m)

        monkeypatch.setattr(fields, "_whiten", counting)
        first = solve(sc, u0)
        grid = sc.grid
        assert sum(whitened) == grid.nt * grid.nx + 2 * grid.nt
        second = solve(sc, u0)
        assert sum(whitened) == grid.nt * grid.nx + 2 * grid.nt
        assert np.array_equal(first.u.values, second.u.values)
        assert not sc.samples.closure[0].flags.writeable

    def test_too_few_nodes_for_the_closure_refused(self):
        sc = scalar_scenario(nx=3, nt=11)
        with pytest.raises(GridError, match="need nx >= 4"):
            solve(sc, np.zeros((3, 1)))

    def test_time_dependent_march_holds_no_stencil_over_time(self):
        # wobbling h1 on 1701 time rows: a stencil of every row would be
        # 7n = 14 times the solution, the blocked one about half of it
        sc = replace(MARCHED["wobbling"][0],
                     grid=SpaceTimeGrid(0.0, 1.0, 2.0, 101, 1701))
        u0 = fields.random_initial_profile(sc.grid, 2, seed=8)
        solve(sc, u0)  # fill the sample set and its node speeds
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = solve(sc, u0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * res.u.values.nbytes, (peak, res.u.values.nbytes)


def _observed_cases():
    """MARCHED plus grids whose nt - 1 is below ROW_BLOCK, equal to it and
    not a multiple of it, for static and time-dependent coefficients."""
    cases = dict(MARCHED)
    static = build_scenario("coupled-varying", nx=41, t_final=0.2)
    pulsing = MARCHED["pulsing"][0]
    for steps in (ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 11):
        for name, sc in (("static", static), ("pulsing", pulsing)):
            sc = sc.with_grid(replace(sc.grid, nt=steps + 1))
            cases[f"{name}-{steps}-steps"] = (
                sc, fields.random_initial_profile(sc.grid, sc.n_comp,
                                                  seed=steps), None)
    return cases


OBSERVED = _observed_cases()


class TestObservedMarch:
    """solve with an observer keeps a ring of time rows; what the studies
    read of it must equal what they read of the full history, bit for bit."""

    @pytest.mark.parametrize("name", sorted(OBSERVED))
    def test_matches_full_history(self, name):
        sc, u0, inflow = OBSERVED[name]
        full = solve(sc, u0, inflow=inflow)
        record = MarchRecord(sc, energy=True)
        assert solve(sc, u0, inflow=inflow, observer=record) is None
        assert np.array_equal(record.traces, full.traces)
        assert np.array_equal(record.initial, full.u.values[0])
        dense, observed = energy_ledger(full, sc), record.ledger()
        assert np.array_equal(observed.energy, dense.energy)
        assert np.array_equal(observed.lemma_lhs, dense.lemma_lhs)
        assert observed.rhs_core == dense.rhs_core
        assert observed.max_ratio == dense.max_ratio
        assert record.observability_ratio() == observability_ratio(full)

    @pytest.mark.parametrize("name, static", [
        ("static-139-steps", True), ("source-inflow", True),
        ("pulsing-139-steps", False), ("wobbling", False),
        ("breathing-h0-source", False)])
    def test_bands_built_once_unless_time_dependent(self, name, static,
                                                    monkeypatch):
        # static bands are built at the first block and reused by every
        # later one: rebuilding them per block adds about a fifth to a march
        sc, u0, inflow = OBSERVED[name]
        blocks = math.ceil((sc.grid.nt - 1) / ROW_BLOCK)
        assert blocks >= 3
        built = []
        interior_bands = solver._interior_bands

        def counting(samples, start, stop, *rest):
            built.append((start, stop))
            return interior_bands(samples, start, stop, *rest)

        monkeypatch.setattr(solver, "_interior_bands", counting)
        for observer in (None, MarchRecord(sc)):
            built.clear()
            solve(sc, u0, inflow=inflow, observer=observer)
            if static:
                assert len(built) == 1
            else:
                assert built == [
                    (k, min(k + ROW_BLOCK, sc.grid.nt - 1))
                    for k in range(0, sc.grid.nt - 1, ROW_BLOCK)]
                assert len(built) == blocks

    def test_observer_sees_every_row_once_in_ring_blocks(self):
        sc, u0, _ = OBSERVED["static-139-steps"]
        seen = []
        solve(sc, u0, observer=lambda first, rows: seen.append(
            (first, len(rows), rows.base is not None)))
        assert seen == [(0, 1, True), (1, ROW_BLOCK, True),
                        (1 + ROW_BLOCK, ROW_BLOCK, True),
                        (1 + 2 * ROW_BLOCK, 11, True)]

    @staticmethod
    def _nan_data(sc):
        u0 = fields.random_initial_profile(sc.grid, sc.n_comp, seed=1)
        u0[5, 1] = np.nan
        return u0

    def test_non_finite_initial_data_refused_in_both_modes(self):
        sc = build_scenario("coupled-varying", nx=21, t_final=0.5)
        u0 = self._nan_data(sc)
        match = r"non-finite sample at node \(i=5, n=0\), component 1"
        for observer in (None, MarchRecord(sc)):
            with pytest.raises(FieldEvaluationError, match=match):
                solve(sc, u0, observer=observer)
        for study in (estimate_observability, verify_energy_estimate):
            with pytest.raises(FieldEvaluationError, match=match):
                study(sc, members=[u0])

    def test_overflow_refused_at_the_same_node_in_both_modes(self):
        # p = -1000 I grows the state about 7.8 times a step, so data of
        # size 1e250 overflows in the second ring block of 73 steps: the
        # ring must name the first infinite node in time order, as the full
        # history does
        sc = replace(build_scenario("coupled-varying", nx=21, t_final=0.5),
                     p=MatrixField.constant(-1000.0 * np.eye(2)))
        u0 = 1e250 * fields.random_initial_profile(sc.grid, 2, seed=1)
        messages = []
        for observer in (None, MarchRecord(sc)):
            with pytest.raises(FieldEvaluationError) as err:
                solve(sc, u0, observer=observer)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        node = int(messages[0].split("n=")[1].split(")")[0])
        assert ROW_BLOCK < node < sc.grid.nt

    def test_energy_study_holds_no_solution(self):
        # the benchmark's energy-march config; one refined solution is
        # 2,897 x 201 x 2 doubles, 9.3 MB
        cfg = parse_config("scenario: coupled-varying\n"
                           "grid: {nx: 101, nt: auto}\nT: 2.0\n"
                           "ensemble: {size: 8}\n"
                           "initial: {kind: random, modes: 3}\n")
        sc, _ = resolve_scenario(cfg)
        fine = sc.grid.refined()
        solution_bytes = fine.nt * fine.nx * sc.n_comp * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = verify_energy_estimate(sc, ensemble=cfg.ensemble,
                                            seed=cfg.seed, modes=3,
                                            refine=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(report.ratios_fine) == cfg.ensemble
        assert peak < solution_bytes, (peak, solution_bytes)


class TestClosureProjectors:
    @staticmethod
    def reference(flux, h0b):
        """Projectors from the generalized eigenproblem solved by LAPACK."""
        lam, vecs = scipy.linalg.eigh(flux, h0b)
        incoming = lam < -SPEED_TOL
        v_out, v_in = vecs[:, ~incoming], vecs[:, incoming]
        return v_out @ (v_out.T @ h0b), v_in @ (v_in.T @ h0b)

    @staticmethod
    def pencil(n, seed, zero_speed):
        """Seeded SPD h0b and symmetric flux with speeds of both signs."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        h0b = a @ a.T + 0.5 * np.eye(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        speeds = rng.uniform(0.5, 2.0, n) * np.array([-1.0, 1.0, -1.0][:n])
        if zero_speed:
            speeds[0] = 0.0
        flux = q @ np.diag(speeds) @ q.T
        return 0.5 * (flux + flux.T), h0b

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("zero_speed", [False, True])
    def test_match_generalized_eigh(self, n, zero_speed):
        flux, h0b = self.pencil(n, 10 * n + zero_speed, zero_speed)
        p_out, p_in = _closure_projectors(flux, h0b)
        ref_out, ref_in = self.reference(flux, h0b)
        np.testing.assert_allclose(p_out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_in, ref_in, rtol=0, atol=1e-12)
        if np.all(scipy.linalg.eigh(flux, h0b, eigvals_only=True)
                  >= -SPEED_TOL):
            assert np.all(p_in == 0.0)  # nothing enters
        np.testing.assert_allclose(p_out + p_in, np.eye(n), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_rows_match_single_rows(self, n):
        cases = [self.pencil(n, seed, seed % 2 == 1) for seed in range(5)]
        flux = np.stack([c[0] for c in cases])
        h0b = np.stack([c[1] for c in cases])
        p_out, p_in = _closure_projectors(flux, h0b)
        for k, (fk, hk) in enumerate(cases):
            row_out, row_in = _closure_projectors(fk, hk)
            assert np.array_equal(p_out[k], row_out)
            assert np.array_equal(p_in[k], row_in)


class TestAutoTimeNodes:
    @pytest.fixture
    def pulsing_catalog(self, monkeypatch):
        """Time nodes of every grid on which h1 is sampled, in order."""
        sampled = []

        # speed 1 + 0.5 sin 4t peaks at t = pi/8, between t=0 and t=T=0.5
        def h1(x, t):
            if np.ndim(x) == 2:  # a full-grid sampling, not a boundary point
                sampled.append(np.shape(t)[0])
            return (1.0 + 0.5 * np.sin(4.0 * t))[..., None, None]

        entry = CatalogEntry(
            name="pulsing", description="scalar transport, pulsing speed",
            n_comp=1, h0=SymMatrixField.constant([[1.0]], label="h0=1"),
            h1=SymMatrixField(1, h1, label="h1", time_independent=False),
            default_beta=0.5, default_t_final=0.5)
        # the package re-exports the function catalog() under the module name
        for name in ("symhyp.catalog", "symhyp.config"):
            monkeypatch.setattr(importlib.import_module(name), "catalog",
                                lambda: {"pulsing": entry})
        return sampled

    @pytest.mark.parametrize("route", ["build_scenario", "resolve_scenario"])
    def test_auto_nt_accepted_for_time_dependent_speed(self, pulsing_catalog,
                                                       route):
        if route == "build_scenario":
            sc = build_scenario("pulsing", nx=201, t_final=0.5)
        else:
            cfg = parse_config("scenario: pulsing\ngrid: {nx: 201}\nT: 0.5\n")
            sc, _ = resolve_scenario(cfg)
        res = solve(sc, lambda x: np.sin(np.pi * x))
        assert res.cfl_used <= 0.5 * (1 + 1e-12)
        # the run marches on the accepted candidate, sampled only once
        assert pulsing_catalog[0] == 2 and pulsing_catalog[-1] == sc.grid.nt
        assert len(set(pulsing_catalog)) == len(pulsing_catalog)


def test_import_does_not_load_scipy():
    src = str(Path(symhyp.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "import symhyp, symhyp.cli; print('scipy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestResidual:
    def test_transported_affine_profile(self):
        sc = system_scenario(np.eye(2), np.eye(2), nx=21, nt=21)
        gf = GridFunction.from_components(
            sc.grid, [lambda x, t: x - t, lambda x, t: 0.0 * x * t])
        res = residual(gf, sc)
        assert np.max(np.abs(res.values)) <= 1e-10

    def test_constant_state_with_reaction(self):
        sc = scalar_scenario(nx=21, nt=21)
        sc = replace(sc, p=MatrixField.constant([[1.0]]))
        gf = GridFunction.from_components(sc.grid, [lambda x, t: 2.5 + 0 * x * t])
        res = residual(gf, sc)
        assert np.allclose(res.values, 2.5, atol=1e-12)

    def test_analytic_residual_convergence(self):
        # u = sin(pi x) cos(t):  L u = -sin(pi x) sin(t) + pi cos(pi x) cos(t)
        defects = []
        for nx in (51, 101):
            sc = scalar_scenario(nx=nx, nt=nx)
            gf = GridFunction.from_components(
                sc.grid, [lambda x, t: np.sin(np.pi * x) * np.cos(t)])
            res = residual(gf, sc)
            x, t = sc.grid.meshgrid()
            exact = (-np.sin(np.pi * x) * np.sin(t)
                     + np.pi * np.cos(np.pi * x) * np.cos(t))
            defects.append(np.max(np.abs(res.values[:, :, 0] - exact)))
        assert defects[0] / defects[1] >= 3.5


class TestExactTransport:
    def test_characteristic_tracing(self):
        grid = SpaceTimeGrid(0.0, 1.0, 0.5, 3, 3)  # x = 0, 0.5, 1; t = 0, .25, .5
        gf = exact_transport(1.0, lambda y: np.sin(np.pi * y), grid)
        assert gf.values[1, 1, 0] == pytest.approx(np.sin(0.25 * np.pi))

    def test_finite_speed_quiet_outflow(self):
        grid = SpaceTimeGrid(0.0, 1.0, 0.5, 51, 51)

        def bump(y):
            out = np.zeros_like(y)
            inside = (y > 0.0) & (y < 0.4)
            out[inside] = np.sin(np.pi * y[inside] / 0.4) ** 2
            return out

        gf = exact_transport(1.0, bump, grid)
        assert np.all(gf.values[:, -1, 0] == 0.0)  # support never arrives

    def test_constant_state(self):
        grid = SpaceTimeGrid(0.0, 1.0, 2.0, 11, 11)
        gf = exact_transport(1.0, lambda y: np.ones_like(y), grid,
                             inflow=lambda t: np.ones_like(t))
        assert np.all(gf.values == 1.0)
