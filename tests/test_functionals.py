"""Weighted functionals: double-entry quadrature oracle, signs, defects."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from symhyp import (
    BoundaryLabel,
    FieldEvaluationError,
    GridError,
    GridFunction,
    GridMismatchError,
    MatrixField,
    Scenario,
    SeparableGridFunction,
    SolveResult,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    build_scenario,
    carleman_ratio,
    carleman_terms,
    central_derivative,
    classify_boundary,
    conjugation_defect,
    energy_ledger,
    exact_transport,
    ibp_identity_defect,
    observability_ratio,
    random_smooth_separable,
    residual,
    solve,
)

from symhyp.fields import ROW_BLOCK, _apply, check_same_grid
from symhyp.functionals import (
    CarlemanTerms,
    EnergyLedger,
    _quad_form,
    _trace_ratio,
    cumulative_trapezoid,
    trapezoid,
)

from conftest import (
    breathing_h0,
    midpoint_2d,
    midpoint_t,
    midpoint_x,
    scalar_scenario,
    system_scenario,
    whole_grid_conjugation_defect,
    whole_grid_ibp_defect,
)


def component_major(u: GridFunction) -> GridFunction:
    """The same samples stored component-major, time fastest: strides
    grow from the time axis to the component axis."""
    return GridFunction(u.grid, np.ascontiguousarray(u.values.T).T)


class TestCarlemanTermsBasics:
    def test_zero_input_all_zero(self):
        sc = scalar_scenario(nx=21, nt=21)
        zero = GridFunction.zeros(sc.grid, 1)
        terms = carleman_terms(zero, zero, sc, s=2.0)
        assert terms.as_tuple() == (0.0,) * 6

    def test_unit_integrands_degenerate_weight(self):
        # eta = 0, beta = 0 gives phi = 0: plain unweighted quadrature
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 41, 41)
        sc = Scenario(name="unit", grid=grid, n_comp=1,
                      h0=SymMatrixField.constant([[1.0]]),
                      h1=SymMatrixField.constant([[1.0]]),
                      eta=SpatialWeight.linear(0.0), beta=0.0)
        one = GridFunction.from_components(grid, [lambda x, t: 1.0 + 0 * x * t])
        zero = GridFunction.zeros(grid, 1)
        terms = carleman_terms(one, zero, sc, s=1.0)
        assert terms.lhs_initial == pytest.approx(1.0, abs=1e-13)
        assert terms.lhs_volume == pytest.approx(1.0, abs=1e-13)
        assert terms.rhs_terminal == pytest.approx(1.0, abs=1e-13)
        assert terms.lhs_gamma_minus == pytest.approx(1.0, abs=1e-13)
        assert terms.rhs_gamma_rest == pytest.approx(1.0, abs=1e-13)
        assert terms.rhs_source == 0.0

    def test_grid_mismatch_rejected(self):
        sc = scalar_scenario(nx=21, nt=21)
        other = SpaceTimeGrid(0.0, 1.0, 1.0, 31, 21)
        u = GridFunction.zeros(other, 1)
        with pytest.raises(GridMismatchError):
            carleman_terms(u, u, sc, s=1.0)


DOUBLE_ENTRY_S = 2.0


@pytest.fixture(scope="module")
def fixture():
    sc = scalar_scenario(nx=101, nt=101, t_final=1.0, beta=0.75)
    u_fn = lambda x, t: np.cos(np.pi * x) * np.cos(t) + 0.3
    lu_fn = lambda x, t: (-np.cos(np.pi * x) * np.sin(t)
                          - np.pi * np.sin(np.pi * x) * np.cos(t))
    u = GridFunction.from_components(sc.grid, [u_fn])
    terms = carleman_terms(u, residual(u, sc), sc, s=DOUBLE_ENTRY_S)
    return sc, u_fn, lu_fn, terms


class TestQuadratureDoubleEntry:
    """Trapezoid-on-nodes vs midpoint-on-analytic-integrands, within 1%."""

    S = DOUBLE_ENTRY_S

    @staticmethod
    def weight_fn(sc, s):
        # same max-phi gauge the implementation reports in
        grid = sc.grid
        phi_max = float(np.max(sc.eta(grid.x) - sc.beta * grid.t[:, None]))
        return lambda x, t: np.exp(2 * s * (x - sc.beta * t - phi_max))

    def test_lhs_initial(self, fixture):
        sc, u_fn, _, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = self.S * midpoint_x(lambda x: u_fn(x, 0.0) ** 2 * w(x, 0.0),
                                     sc.grid)
        assert terms.lhs_initial == pytest.approx(oracle, rel=0.01)

    def test_lhs_volume(self, fixture):
        sc, u_fn, _, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = self.S ** 2 * midpoint_2d(
            lambda x, t: u_fn(x, t) ** 2 * w(x, t), sc.grid)
        assert terms.lhs_volume == pytest.approx(oracle, rel=0.01)

    def test_lhs_gamma_minus(self, fixture):
        sc, u_fn, _, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = self.S * midpoint_t(
            lambda t: u_fn(0.0, t) ** 2 * w(0.0, t), sc.grid)
        assert terms.lhs_gamma_minus == pytest.approx(oracle, rel=0.01)

    def test_rhs_source(self, fixture):
        sc, _, lu_fn, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = midpoint_2d(lambda x, t: lu_fn(x, t) ** 2 * w(x, t), sc.grid)
        assert terms.rhs_source == pytest.approx(oracle, rel=0.01)

    def test_rhs_gamma_rest(self, fixture):
        sc, u_fn, _, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = self.S * midpoint_t(
            lambda t: u_fn(1.0, t) ** 2 * w(1.0, t), sc.grid)
        assert terms.rhs_gamma_rest == pytest.approx(oracle, rel=0.01)

    def test_rhs_terminal(self, fixture):
        sc, u_fn, _, terms = fixture
        w = self.weight_fn(sc, self.S)
        oracle = self.S * midpoint_x(
            lambda x: u_fn(x, 1.0) ** 2 * w(x, 1.0), sc.grid)
        assert terms.rhs_terminal == pytest.approx(oracle, rel=0.01)

    def test_energy_against_midpoint(self, fixture):
        sc, u_fn, _, _ = fixture
        u = GridFunction.from_components(sc.grid, [u_fn])
        ledger = energy_ledger(u, sc)
        oracle = midpoint_x(lambda x: u_fn(x, 0.0) ** 2, sc.grid)
        assert ledger.energy[0] == pytest.approx(oracle, rel=0.01)


class TestHomogeneityAndMonotonicity:
    def test_quadratic_scaling_of_every_term(self):
        sc = scalar_scenario(nx=41, nt=41, beta=0.75)
        u = random_smooth_separable(sc.grid, 1, seed=9).materialize()
        f = residual(u, sc)
        base = carleman_terms(u, f, sc, s=3.0)
        scaled = carleman_terms(u.scaled(3.0), f.scaled(3.0), sc, s=3.0)
        for a, b in zip(base.as_tuple(), scaled.as_tuple()):
            assert b == pytest.approx(9.0 * a, rel=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(c=st.floats(0.1, 8.0))
    def test_quadratic_scaling_property(self, c):
        sc = scalar_scenario(nx=21, nt=21, beta=0.75)
        u = random_smooth_separable(sc.grid, 1, seed=2).materialize()
        f = residual(u, sc)
        base = carleman_terms(u, f, sc, s=2.0)
        scaled = carleman_terms(u.scaled(c), f.scaled(c), sc, s=2.0)
        for a, b in zip(base.as_tuple(), scaled.as_tuple()):
            assert b == pytest.approx(c * c * a, rel=1e-11, abs=1e-300)

    def test_ratio_invariant_under_scaling(self):
        sc = scalar_scenario(nx=41, nt=41, beta=0.75)
        u = random_smooth_separable(sc.grid, 1, seed=9).materialize()
        f = residual(u, sc)
        r1 = carleman_ratio(carleman_terms(u, f, sc, s=2.0))
        r2 = carleman_ratio(carleman_terms(u.scaled(3.0), f.scaled(3.0),
                                           sc, s=2.0))
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_ratio_degenerate_and_violation_cases(self):
        sc = scalar_scenario(nx=21, nt=21)
        zero = GridFunction.zeros(sc.grid, 1)
        assert math.isnan(carleman_ratio(carleman_terms(zero, zero, sc, 1.0)))
        one = GridFunction.from_components(sc.grid,
                                           [lambda x, t: 1.0 + 0 * x * t])
        terms = carleman_terms(one, zero, sc, s=1.0)
        # force an empty right side to exercise the violation branch
        from dataclasses import replace
        broken = replace(terms, rhs_source=0.0, rhs_gamma_rest=0.0,
                         rhs_terminal=0.0)
        assert math.isinf(carleman_ratio(broken))

    def test_volume_term_nondecreasing_in_s_for_nonnegative_phi(self):
        # log of the ungauged volume integral must grow with s when phi >= 0
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 41, 41)
        sc = Scenario(name="shifted", grid=grid, n_comp=1,
                      h0=SymMatrixField.constant([[1.0]]),
                      h1=SymMatrixField.constant([[1.0]]),
                      eta=SpatialWeight.linear(1.0, 1.0), beta=0.5)
        assert float(np.min(sc.eta(grid.x) - sc.beta * grid.t[:, None])) >= 0.0
        u = random_smooth_separable(grid, 1, seed=4).materialize()
        f = residual(u, sc)
        logs = []
        for s in (0.5, 1.0, 2.0, 4.0, 8.0):
            terms = carleman_terms(u, f, sc, s)
            logs.append(math.log(terms.lhs_volume) + terms.log_scale
                        - 2.0 * math.log(s))
        assert np.all(np.diff(logs) >= -1e-12)

    def test_term_signs_over_ensemble(self):
        sc = build_scenario("coupled-spd", nx=41, nt=81)
        for seed in range(5):
            u = random_smooth_separable(sc.grid, 2, seed=seed).materialize()
            terms = carleman_terms(u, residual(u, sc), sc, s=2.0)
            assert terms.lhs_initial >= 0.0
            assert terms.lhs_volume >= 0.0
            assert terms.lhs_gamma_minus >= 0.0
            assert terms.rhs_source >= 0.0
            assert terms.rhs_gamma_rest >= 0.0
            assert terms.rhs_terminal >= 0.0  # h0 bounds hold here


def _time_dependent_p(x, t):
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros(x.shape + (2, 2))
    out[..., 0, 0] = 0.3 * np.sin(3.0 * t) + x
    out[..., 0, 1] = -0.2
    out[..., 1, 0] = 0.1 * np.cos(t)
    out[..., 1, 1] = 0.4
    return out


class TestSeparableMembers:
    """A separable member and its separable source give the six terms of
    the dense member and its dense residual."""

    STATIC = ["transport", "coupled-spd", "coupled-varying", "wave-type",
              "inline-p", "n3-p"]

    @staticmethod
    def scenario(name):
        if name in ("transport", "coupled-spd", "coupled-varying",
                    "wave-type"):
            return build_scenario(name, nx=41, t_final=1.0)
        if name == "inline-p":
            return replace(build_scenario("coupled-varying", nx=41,
                                          t_final=1.0),
                           p=MatrixField.affine([[0.3, -0.2], [0.1, 0.4]],
                                                [[0.5, 0.0], [0.0, -0.5]]))
        if name == "n3-p":
            sc = system_scenario([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2],
                                  [0.0, 0.2, 1.0]],
                                 [[1.0, 0.5, 0.0], [0.5, -1.0, 0.3],
                                  [0.0, 0.3, 0.4]], nx=41, nt=81)
            return replace(sc, p=MatrixField.constant(
                [[0.2, -0.1, 0.0], [0.3, 0.1, 0.0], [0.0, 0.5, -0.2]]))
        if name == "switch":
            return TestBoundaryClassSwitch.scenario()
        if name == "pulsing":
            return Scenario(
                name="pulsing", grid=SpaceTimeGrid(0.0, 1.0, 1.0, 41, 121),
                n_comp=1, h0=SymMatrixField.constant([[1.0]]),
                h1=SymMatrixField(1, lambda x, t: (
                    1.0 + 0.5 * np.sin(4.0 * t) + 0.0 * x)[..., None, None]),
                eta=SpatialWeight.linear(1.0), beta=0.5)
        assert name == "timedep-p"
        return replace(build_scenario("coupled-varying", nx=41, t_final=1.0),
                       p=MatrixField(2, _time_dependent_p))

    @staticmethod
    def assert_terms_match(got, want):
        # abs=0: a term of 0 must be exactly 0 on both sides
        assert got.as_tuple() == pytest.approx(want.as_tuple(), rel=1e-12,
                                               abs=0.0)
        assert got.log_scale == want.log_scale

    @pytest.mark.parametrize("s", [1.0, 16.0])
    @pytest.mark.parametrize("name", STATIC)
    def test_matches_dense_member(self, name, s):
        sc = self.scenario(name)
        sep = random_smooth_separable(sc.grid, sc.n_comp, seed=12)
        dense = sep.materialize()
        src, want_src = residual(sep, sc), residual(dense, sc)
        assert isinstance(src, SeparableGridFunction)
        assert src.t_factor.shape[1] == 2 * sep.t_factor.shape[1]
        scale = float(np.max(np.abs(want_src.values)))
        assert np.max(np.abs(src.materialize().values
                             - want_src.values)) <= 1e-12 * scale
        self.assert_terms_match(carleman_terms(sep, src, sc, s),
                                carleman_terms(dense, want_src, sc, s))

    @pytest.mark.parametrize("name", ["switch", "pulsing", "timedep-p"])
    def test_time_dependent_coefficients_take_the_dense_source(self, name):
        sc = self.scenario(name)
        sep = random_smooth_separable(sc.grid, sc.n_comp, seed=13)
        dense = sep.materialize()
        src = residual(sep, sc)
        assert type(src) is GridFunction
        assert np.array_equal(src.values, residual(dense, sc).values)
        for s in (1.0, 16.0):
            self.assert_terms_match(carleman_terms(sep, src, sc, s),
                                    carleman_terms(dense, src, sc, s))


class TestDenseVolumeNorms:
    """The dense volume and source norms are one weighted pass each."""

    @staticmethod
    def former(u, source, sc, s):
        """(lhs_volume, rhs_source) by the former per-axis trapezoids."""
        grid = sc.grid
        eta = sc.eta(grid.x)
        wx = np.exp(2.0 * s * (eta - eta.max()))
        wt = np.exp(-2.0 * s * sc.beta * grid.t)

        def norm(vals):
            sq = np.sum(vals ** 2, axis=-1)
            return trapezoid(trapezoid(sq * wx, dx=grid.hx) * wt, dx=grid.ht)

        return s * s * norm(u.values), norm(source.values)

    @pytest.mark.parametrize("s", [1.0, 16.0])
    @pytest.mark.parametrize("kind", ["solve", "component-major", "n1", "n3",
                                      "zero"])
    def test_matches_former_formula(self, kind, s):
        sc, u = TestEnergyLedger.sample(kind)
        u = u.u if isinstance(u, SolveResult) else u
        src = residual(u, sc)
        terms = carleman_terms(u, src, sc, s)
        volume, source = self.former(u, src, sc, s)
        assert terms.lhs_volume == pytest.approx(volume, rel=1e-14, abs=0.0)
        assert terms.rhs_source == pytest.approx(source, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kind", ["solve", "component-major"])
    def test_terms_hold_no_copy_of_the_member(self, kind):
        sc = build_scenario("coupled-varying", nx=101, t_final=1.0)
        if kind == "solve":
            u = solve(sc, np.sin(np.pi * sc.grid.x[:, None] * [1.0, 2.0])).u
        else:
            u = component_major(random_smooth_separable(
                sc.grid, 2, seed=11).materialize())
        src = residual(u, sc)
        carleman_terms(u, src, sc, 2.0)  # fill the sample set
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            carleman_terms(u, src, sc, 2.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * u.values.nbytes, (peak, u.values.nbytes)


class TestLocalTrapezoid:
    """The module's own trapezoid pair does scipy's arithmetic, bit for bit."""

    @pytest.fixture
    def samples(self):
        grid = SpaceTimeGrid(0.0, 1.0, 2.0, 101, 1449)
        rng = np.random.default_rng(5)
        return grid, rng.standard_normal(grid.shape)

    def test_dx_calls(self, samples):
        grid, vals = samples
        rows = trapezoid(vals, dx=grid.hx)
        assert np.array_equal(rows, integrate.trapezoid(vals, dx=grid.hx,
                                                        axis=1))
        assert np.array_equal(trapezoid(rows, dx=grid.ht),
                              integrate.trapezoid(rows, dx=grid.ht))

    def test_node_calls(self, samples):
        grid, vals = samples
        series = vals[:, 0]
        assert np.array_equal(trapezoid(series, grid.t),
                              integrate.trapezoid(series, grid.t))
        assert np.array_equal(
            cumulative_trapezoid(series, grid.t),
            integrate.cumulative_trapezoid(series, grid.t, initial=0.0))


def _carleman_rule(num, den):
    """carleman_ratio of squared norms num^2 over den^2."""
    return carleman_ratio(CarlemanTerms(
        s=1.0, lhs_initial=0.0, lhs_volume=num * num, lhs_gamma_minus=0.0,
        rhs_source=den * den, rhs_gamma_rest=0.0, rhs_terminal=0.0,
        log_scale=0.0))


def _ledger_rule(num, den):
    """max_ratio of squared norms num^2 (the largest lemma_lhs) over
    den^2."""
    return EnergyLedger(times=np.array([0.0, 1.0]), energy=np.zeros(2),
                        lemma_lhs=np.array([0.0, num * num]),
                        rhs_core=den * den).max_ratio


def _trace_rule(num, den):
    """_trace_ratio of an initial row and traces of constant value num and
    den, each of unit norm per unit value."""
    grid = SpaceTimeGrid(0.0, 1.0, 0.5, 11, 5)
    return _trace_ratio(grid, np.full((11, 1), num),
                        np.full((2, 5, 1), den))


class TestRatioRule:
    """The one rule of every study's ratio: 0/0 is nan, x/0 is inf, and a
    norm that is not finite is refused; the numerator and denominator are
    given as the data whose squares they are."""

    RATIOS = [_carleman_rule, _ledger_rule, _trace_rule]

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_zero_over_zero_is_nan(self, ratio):
        assert math.isnan(ratio(0.0, 0.0))

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_nonzero_over_zero_is_inf(self, ratio):
        assert ratio(2.0, 0.0) == math.inf

    # 1e200 squares past the float range; the refusal must come without
    # a numpy warning on the way
    @pytest.mark.parametrize("num, den", [(1e200, 1.0), (1.0, 1e200),
                                          (1e200, 0.0), (math.inf, 1.0)])
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.filterwarnings("error")
    def test_non_finite_norm_refused(self, ratio, num, den):
        with pytest.raises(FieldEvaluationError,
                           match="non-finite member norms"):
            ratio(num, den)


class TestEnergyLedger:
    def test_zero_input(self):
        sc = scalar_scenario(nx=21, nt=21)
        ledger = energy_ledger(GridFunction.zeros(sc.grid, 1), sc)
        assert np.all(ledger.energy == 0.0)
        assert np.all(ledger.lemma_lhs == 0.0)
        assert ledger.rhs_core == 0.0
        assert math.isnan(ledger.max_ratio)

    def test_transport_profile_exits(self):
        sc = build_scenario("transport", nx=201, t_final=2.0)
        u = exact_transport(1.0, lambda y: np.sin(np.pi * y), sc.grid)
        ledger = energy_ledger(u, sc)
        assert np.all(np.diff(ledger.energy) <= 1e-12)
        past_exit = sc.grid.t >= 1.0
        assert np.allclose(ledger.energy[past_exit], 0.0, atol=1e-14)

    def test_constant_state_energy_is_domain_length(self):
        sc = scalar_scenario(nx=31, nt=31)
        one = GridFunction.from_components(sc.grid,
                                           [lambda x, t: 1.0 + 0 * x * t])
        ledger = energy_ledger(one, sc)
        assert np.allclose(ledger.energy, 1.0, atol=1e-13)

    @staticmethod
    def former(u, scenario):
        """The ledger before its one-pass energy, as the oracle: square the
        solution, sum the components, then the trapezoid rule in x."""
        if isinstance(u, SolveResult):
            u = u.u
        check_same_grid(u, scenario)
        samples = scenario.samples
        grid = scenario.grid
        t = grid.t
        energy = trapezoid(np.sum(u.values ** 2, axis=-1), dx=grid.hx)
        ub = np.stack([u.values[:, 0], u.values[:, -1]])
        flux = _quad_form(samples.flux, ub)
        outflow = np.sum(np.where(samples.plus, flux, 0.0), axis=0)
        rest = np.sum(np.where(samples.plus, 0.0, np.sum(ub ** 2, axis=-1)),
                      axis=0)
        return EnergyLedger(
            times=t, energy=energy,
            lemma_lhs=energy + cumulative_trapezoid(outflow, t),
            rhs_core=float(energy[0] + trapezoid(rest, t)))

    @staticmethod
    def sample(kind):
        """(scenario, solution) of each layout and system size."""
        if kind in ("solve", "n1"):
            name = "coupled-varying" if kind == "solve" else "transport"
            sc = build_scenario(name, nx=41, t_final=1.0)
            x = sc.grid.x[:, None]
            return sc, solve(sc, np.sin(np.pi * x * np.arange(
                1, sc.n_comp + 1)))
        if kind == "component-major":
            sc = build_scenario("coupled-varying", nx=41, t_final=1.0)
            return sc, component_major(random_smooth_separable(
                sc.grid, 2, seed=9).materialize())
        if kind == "n3":
            sc = system_scenario(np.diag([2.0, 1.0, 1.5]),
                                 [[1.0, 0.5, 0.0], [0.5, -1.0, 0.3],
                                  [0.0, 0.3, 0.4]], nx=41, nt=81)
            return sc, random_smooth_separable(sc.grid, 3,
                                               seed=10).materialize()
        sc = build_scenario("coupled-spd", nx=41, t_final=1.0)
        return sc, GridFunction.zeros(sc.grid, 2)

    @pytest.mark.parametrize("kind", ["solve", "component-major", "n1", "n3",
                                      "zero"])
    def test_matches_former_formula(self, kind):
        sc, u = self.sample(kind)
        values = (u.u if isinstance(u, SolveResult) else u).values
        if kind == "component-major":
            assert values.strides[0] < values.strides[1] < values.strides[2]
        ledger, ref = energy_ledger(u, sc), self.former(u, sc)
        scale = float(np.max(ref.lemma_lhs))
        for got, want in ((ledger.energy, ref.energy),
                          (ledger.lemma_lhs, ref.lemma_lhs)):
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
        if kind == "zero":
            assert ledger.rhs_core == ref.rhs_core == 0.0
            assert math.isnan(ledger.max_ratio) and math.isnan(ref.max_ratio)
        else:
            assert ledger.rhs_core == pytest.approx(ref.rhs_core, rel=1e-14)
            assert ledger.max_ratio == pytest.approx(ref.max_ratio, rel=1e-14)

    @pytest.mark.parametrize("kind", ["solve", "component-major"])
    def test_energy_holds_no_copy_of_the_solution(self, kind):
        sc = build_scenario("coupled-varying", nx=101, t_final=1.0)
        if kind == "solve":
            u = solve(sc, np.sin(np.pi * sc.grid.x[:, None] * [1.0, 2.0])).u
        else:
            u = component_major(random_smooth_separable(
                sc.grid, 2, seed=11).materialize())
        energy_ledger(u, sc)  # fill the sample set's boundary data
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            energy_ledger(u, sc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * u.values.nbytes, (peak, u.values.nbytes)


class TestBoundaryClassSwitch:
    """h0 = I, h1 = diag(1, 1 - t) on T = 2: both boundary points change
    class at t = 1 (x_hi PLUS -> NEITHER, x_lo MINUS -> NEITHER), and every
    boundary quadrature must follow the per-node class."""

    @staticmethod
    def scenario():
        def h1(x, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(t))
            out = np.zeros(shape + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0 - np.broadcast_to(t, shape)
            return out

        return Scenario(
            name="switch", grid=SpaceTimeGrid(0.0, 1.0, 2.0, 21, 41),
            n_comp=2, h0=SymMatrixField.constant(np.eye(2), label="h0"),
            h1=SymMatrixField(2, h1, label="diag(1,1-t)",
                              time_independent=False),
            eta=SpatialWeight.linear(1.0), beta=0.5)

    @staticmethod
    def oracle(sc, u):
        """Per-node labels from classify_boundary and analytic fluxes."""
        grid = sc.grid
        labels = [classify_boundary(sc, tv) for tv in grid.t]
        cols = {"x_lo": (0, grid.x_lo, -1.0), "x_hi": (-1, grid.x_hi, 1.0)}
        out = {}
        for side, (col, xb, nu) in cols.items():
            ub = u.values[:, col, :]
            flux = nu * (ub[:, 0] ** 2 + (1.0 - grid.t) * ub[:, 1] ** 2)
            lab = np.array([lb[side] for lb in labels])
            out[side] = (xb, ub, flux, lab)
        return out

    def test_labels_switch(self):
        sc = self.scenario()
        assert classify_boundary(sc, 0.0) == {"x_lo": BoundaryLabel.MINUS,
                                              "x_hi": BoundaryLabel.PLUS}
        assert classify_boundary(sc, 2.0) == {"x_lo": BoundaryLabel.NEITHER,
                                              "x_hi": BoundaryLabel.NEITHER}

    @pytest.mark.parametrize("s", [1.0, 4.0])
    def test_carleman_boundary_terms(self, s):
        sc = self.scenario()
        grid = sc.grid
        u = random_smooth_separable(grid, 2, seed=3).materialize()
        terms = carleman_terms(u, residual(u, sc), sc, s)
        phi_max = grid.x_hi  # eta(x) - beta t peaks at (x_hi, 0)
        minus, rest = 0.0, 0.0
        for xb, ub, flux, lab in self.oracle(sc, u).values():
            w = np.exp(2.0 * s * (xb - sc.beta * grid.t - phi_max))
            is_minus = lab == BoundaryLabel.MINUS
            minus += s * integrate.trapezoid(
                np.where(is_minus, np.abs(flux) * w, 0.0), grid.t)
            rest += s * integrate.trapezoid(
                np.where(is_minus, 0.0, np.sum(ub ** 2, axis=1) * w), grid.t)
        assert terms.lhs_gamma_minus == pytest.approx(minus, rel=1e-12)
        assert terms.rhs_gamma_rest == pytest.approx(rest, rel=1e-12)

    def test_energy_ledger_boundary_terms(self):
        sc = self.scenario()
        grid = sc.grid
        u = random_smooth_separable(grid, 2, seed=5).materialize()
        ledger = energy_ledger(u, sc)
        outflow, rest = np.zeros(grid.nt), np.zeros(grid.nt)
        for _, ub, flux, lab in self.oracle(sc, u).values():
            is_plus = lab == BoundaryLabel.PLUS
            outflow += np.where(is_plus, flux, 0.0)
            rest += np.where(is_plus, 0.0, np.sum(ub ** 2, axis=1))
        energy = integrate.trapezoid(np.sum(u.values ** 2, axis=-1),
                                     dx=grid.hx, axis=1)
        np.testing.assert_allclose(
            ledger.lemma_lhs,
            energy + integrate.cumulative_trapezoid(outflow, grid.t,
                                                    initial=0.0),
            rtol=1e-12, atol=1e-12 * float(np.max(energy)))
        assert ledger.rhs_core == pytest.approx(
            energy[0] + integrate.trapezoid(rest, grid.t), rel=1e-12)


class TestObservabilityRatio:
    def test_transport_ratio_near_one(self):
        sc = build_scenario("transport", nx=201, t_final=1.5)
        res = solve(sc, lambda x: np.sin(np.pi * x))
        r = observability_ratio(res)
        assert r <= 1.0 + 5e-2

    def test_zero_data_degenerate(self):
        sc = build_scenario("transport", nx=51, t_final=0.5)
        res = solve(sc, np.zeros((51, 1)))
        assert math.isnan(observability_ratio(res))

    def test_zero_trace_nonzero_data_is_infinite(self):
        # fabricated result exercising the witness branch directly
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 5)
        vals = np.zeros((5, 11, 1))
        vals[0, 5, 0] = 1.0
        res = SolveResult(u=GridFunction(grid, vals),
                          traces=np.zeros((2, 5, 1)), cfl_used=0.1,
                          cfl_limit=0.5)
        assert math.isinf(observability_ratio(res))


class TestIdentityDefects:
    def test_identity_matrix_reduces_to_product_rule(self):
        defects = []
        for nx in (51, 101):
            sc = system_scenario(np.eye(2), np.eye(2), nx=nx, nt=51)
            w = GridFunction.from_components(
                sc.grid, [lambda x, t: np.sin(np.pi * x) * np.cos(t),
                          lambda x, t: np.cos(2 * x + t)])
            defects.append(ibp_identity_defect(w, sc, "x"))
        assert defects[0] / defects[1] >= 3.5

    def test_constant_matrix_affine_w_exact(self):
        sc = system_scenario(np.eye(2), [[2.0, 1.0], [1.0, 2.0]], nx=21,
                             nt=21)
        w = GridFunction.from_components(
            sc.grid, [lambda x, t: 2 * x + 0 * t, lambda x, t: 1 - x + 0 * t])
        assert ibp_identity_defect(w, sc, "x") <= 1e-12

    def test_varying_matrix_fixture(self):
        r_field = SymMatrixField.affine([[1.0, 0.0], [0.0, 1.0]],
                                        [[1.0, 0.0], [0.0, 0.0]])
        sc = replace(system_scenario(np.eye(2), np.eye(2), nx=101, nt=101),
                     h1=r_field)
        fine_sc = sc.with_grid(sc.grid.refined())
        w = random_smooth_separable(sc.grid, 2, seed=5).materialize()
        coarse = ibp_identity_defect(w, sc, "x")
        w_fine = random_smooth_separable(fine_sc.grid, 2,
                                         seed=5).materialize()
        fine = ibp_identity_defect(w_fine, fine_sc, "x")
        assert coarse == pytest.approx(0.0047755110411455345, rel=1e-9)
        assert coarse / fine >= 3.5

    def test_time_dependent_h0_along_t(self):
        # the one path that forms a t derivative of R
        sc = replace(system_scenario(np.eye(2), np.eye(2), nx=101, nt=101),
                     h0=SymMatrixField(2, breathing_h0,
                                       time_independent=False))
        coarse, fine = (ibp_identity_defect(random_smooth_separable(
            s.grid, 2, seed=5).materialize(), s, "t")
            for s in (sc, sc.with_grid(sc.grid.refined())))
        # reading R from the sample set moves no bit of the defect
        assert coarse == pytest.approx(0.005704717794335901, rel=1e-12)
        assert coarse / fine >= 3.5

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_defect_peak_memory(self, axis):
        # samples and member are made before tracing; the defect runs in
        # blocks of time rows, so no temporary is the member's size
        sc = build_scenario("coupled-varying", nx=101, nt=1449, t_final=4.0)
        sc.samples
        w = random_smooth_separable(sc.grid, 2, seed=0).materialize()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ibp_identity_defect(w, sc, axis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < w.values.nbytes, (peak, w.values.nbytes)

    def test_member_from_another_grid_refused(self):
        sc = system_scenario(np.eye(2), np.eye(2), nx=21, nt=21)
        w = random_smooth_separable(sc.grid.refined(), 2, seed=0)
        with pytest.raises(GridMismatchError):
            ibp_identity_defect(w.materialize(), sc, "x")


def _defect_scenario(name: str) -> Scenario:
    """A catalog scenario at nx 41, a 3 x 3 one with speeds of both signs,
    or coupled-varying at nt 161 with h0 and h1 both moving in t: 159
    interior time rows, two full blocks and a partial one."""
    if name == "speeds-mixed-3":
        from test_fields import _speed_scenario
        return _speed_scenario(3, "mixed")
    if name == "time-dependent":
        from test_solver import _wobbling_flux  # it imports this module
        return replace(
            build_scenario("coupled-varying", nx=41, nt=161, t_final=4.0),
            h0=SymMatrixField(2, breathing_h0, time_independent=False),
            h1=SymMatrixField(2, _wobbling_flux, time_independent=False))
    return build_scenario(name, nx=41)


class TestBlockedDefects:
    """Both defects run in blocks of ROW_BLOCK time rows over the interior
    they report, and give the whole-grid defects' bits, in either memory
    order of the member."""

    @pytest.mark.parametrize("layout", ["row-major", "component-major"])
    @pytest.mark.parametrize("name", ["transport", "coupled-spd",
                                      "coupled-varying", "wave-type",
                                      "speeds-mixed-3", "time-dependent"])
    def test_equal_to_the_whole_grid(self, name, layout):
        sc = _defect_scenario(name)
        w = random_smooth_separable(sc.grid, sc.n_comp, seed=0).materialize()
        if layout == "component-major":
            w = component_major(w)
        for axis in ("x", "t"):
            assert ibp_identity_defect(w, sc, axis) == \
                whole_grid_ibp_defect(w, sc, axis), axis
        for s in (1.0, 4.0, 16.0):
            assert conjugation_defect(w, sc, s) == \
                whole_grid_conjugation_defect(w, sc, s), s

    def test_blocks_cover_every_reported_row(self):
        # a spike at the last row each defect reports, in the partial
        # block, raises all three defects there
        sc = _defect_scenario("time-dependent")
        assert sc.grid.nt - 2 > 2 * ROW_BLOCK
        w = random_smooth_separable(sc.grid, 2, seed=0).materialize()
        spiked = GridFunction(sc.grid, w.values.copy())
        spiked.values[-2, 20] += 1.0
        for defect, reference in (
                (lambda v: ibp_identity_defect(v, sc, "x"),
                 lambda v: whole_grid_ibp_defect(v, sc, "x")),
                (lambda v: ibp_identity_defect(v, sc, "t"),
                 lambda v: whole_grid_ibp_defect(v, sc, "t")),
                (lambda v: conjugation_defect(v, sc, 1.0),
                 lambda v: whole_grid_conjugation_defect(v, sc, 1.0))):
            assert defect(spiked) == reference(spiked) > 10 * defect(w)

    def test_two_time_nodes_refused(self):
        sc = system_scenario(np.eye(2), np.eye(2), nx=21, nt=2)
        w = GridFunction.zeros(sc.grid, 2)
        assert ibp_identity_defect(w, sc, "x") == 0.0
        for defect in (lambda: ibp_identity_defect(w, sc, "t"),
                       lambda: conjugation_defect(w, sc, 1.0)):
            with pytest.raises(GridError, match="need >= 3 nodes along t"):
                defect()


class TestConjugationDefect:
    def test_vanishes_without_weight(self):
        sc = scalar_scenario(nx=41, nt=41)
        u = GridFunction.from_components(sc.grid,
                                         [lambda x, t: 1.0 + 2 * x - t])
        assert conjugation_defect(u, sc, s=0.0) <= 1e-14
        assert conjugation_defect(u, sc, s=1e-4) <= 1e-10

    def test_constant_state_second_order(self):
        # phi = x - t; the defect is pure differencing error on exp weights.
        # unequal spacings, otherwise the x and t difference errors cancel
        defects = []
        for nx, nt in ((51, 71), (101, 141)):
            sc = scalar_scenario(nx=nx, nt=nt, beta=1.0)
            u = GridFunction.from_components(sc.grid,
                                             [lambda x, t: 1.0 + 0 * x * t])
            defects.append(conjugation_defect(u, sc, s=1.0))
        assert defects[0] / defects[1] >= 3.5

    @staticmethod
    def varying():
        """coupled-varying at T 4 (phi spans 3) and its seed-0 member."""
        sc = build_scenario("coupled-varying", nx=41, t_final=4.0)
        return sc, random_smooth_separable(sc.grid, 2, seed=0).materialize()

    def test_finite_past_exp_overflow(self):
        # s (max phi - min phi) = 1200 here, past the 709 at which
        # exp(s phi) overflows; the gauged weight stays in (0, 1]
        sc, u = self.varying()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(conjugation_defect(u, sc, s=400.0))

    def test_peak_memory(self):
        # samples and member are made before tracing; the defect runs in
        # blocks of time rows, so no temporary is the member's size
        sc, u = self.varying()
        sc.samples
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            conjugation_defect(u, sc, s=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < u.values.nbytes, (peak, u.values.nbytes)

    def test_matches_the_ungauged_identity(self):
        # exp(s phi) L_d(exp(-s phi) w) on the whole grid, scaled by
        # exp(-s max phi) into the gauge; rounding about 1e-16 / h^2.  On
        # coupled-spd, and on coupled-varying at T 4 with h0 or h1 moving
        # in t
        from test_solver import _wobbling_flux  # it imports this module
        varying = build_scenario("coupled-varying", nx=41, nt=161,
                                 t_final=4.0)
        for sc in (build_scenario("coupled-spd", nx=41, nt=81),
                   replace(varying, h0=SymMatrixField(
                       2, breathing_h0, time_independent=False)),
                   replace(varying, h1=SymMatrixField(
                       2, _wobbling_flux, time_independent=False))):
            samples = sc.samples

            def principal(v):  # h0 D_t v + h1 D_x v
                v = GridFunction(sc.grid, v)
                return (_apply(samples.h0, central_derivative(v, "t").values)
                        + _apply(samples.h1,
                                 central_derivative(v, "x").values))

            u = random_smooth_separable(sc.grid, 2, seed=3).materialize()
            x, t = sc.grid.meshgrid()
            etax = sc.eta.derivative(sc.grid.x)[:, None, None]
            for s in (1.0, 4.0, 16.0):
                e = np.exp(s * (sc.eta(x) - sc.beta * t))[..., None]
                w = e * u.values
                lhs = e * principal(w / e)
                rhs = principal(w) - s * _apply(
                    -sc.beta * samples.h0 + etax * samples.h1, w)
                want = np.max(np.abs((lhs - rhs)[1:-1, 1:-1])) * np.exp(
                    -s * sc.eta(sc.grid.x).max())
                assert conjugation_defect(u, sc, s) == \
                    pytest.approx(want, rel=1e-11, abs=0.0), (sc.name, s)

    def test_random_smooth_fixture(self):
        sc = build_scenario("coupled-spd", nx=101, nt=101)
        u = random_smooth_separable(sc.grid, 2, seed=3).materialize()
        coarse = conjugation_defect(u, sc, s=4.0)
        sc_fine = sc.with_grid(sc.grid.refined())
        u_fine = random_smooth_separable(sc_fine.grid, 2, seed=3).materialize()
        fine = conjugation_defect(u_fine, sc_fine, s=4.0)
        assert coarse / fine >= 3.5
