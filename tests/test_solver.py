"""Time stepper: oracles, conservation properties, refusals, linearity."""

import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import trapezoid

from symhyp import (
    CflViolationError,
    GridFunction,
    MatrixField,
    SingularCoefficientError,
    SpaceTimeGrid,
    SpatialWeight,
    Scenario,
    SymMatrixField,
    VectorField,
    build_scenario,
    exact_transport,
    residual,
    solve,
)

from conftest import scalar_scenario, system_scenario


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

    def test_singular_h0_names_node(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 400)
        h0 = SymMatrixField.affine([[0.0]], [[1.0]])  # vanishes at x = 0
        sc = Scenario(name="singular", grid=grid, n_comp=1, h0=h0,
                      h1=SymMatrixField.constant([[1.0]]),
                      eta=SpatialWeight.linear(1.0), beta=0.5)
        with pytest.raises(SingularCoefficientError, match="x=0.0"):
            solve(sc, np.zeros((11, 1)))

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
