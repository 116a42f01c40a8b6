"""Grid, field sampling, eigenvalue bounds, derivatives, and ensembles."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from symhyp import (
    AsymmetricFieldError,
    BetaSelectionError,
    FieldEvaluationError,
    GridError,
    GridFunction,
    GridMismatchError,
    MatrixField,
    SeparableGridFunction,
    Scenario,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    VectorField,
    admissible_time_nodes,
    bump_profile,
    central_derivative,
    classify_boundary,
    classify_boundary_series,
    eig_bounds,
    minimal_time,
    random_initial_profile,
    random_smooth_separable,
    sample_field,
    select_beta,
    solve,
    symmetry_defect,
)
from symhyp.fields import _char_speeds, _closure_projectors, check_same_grid

from conftest import scalar_scenario


class TestSpaceTimeGrid:
    def test_spacing_and_nodes(self):
        grid = SpaceTimeGrid(0.0, 2.0, 1.0, 5, 3)
        assert grid.hx == 0.5
        assert grid.ht == 0.5
        assert grid.node(3, 2) == (0.0 + 3 * 0.5, 2 * 0.5)
        assert np.array_equal(grid.x, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_nodes_reproducible_under_refinement(self):
        grid = SpaceTimeGrid(0.25, 1.25, 2.0, 11, 7)
        fine = grid.refined()
        assert fine.nx == 21 and fine.nt == 13
        assert np.array_equal(fine.x[::2], grid.x)
        assert np.array_equal(fine.t[::2], grid.t)

    @pytest.mark.parametrize("kwargs", [
        dict(x_lo=0.0, x_hi=1.0, t_final=1.0, nx=2, nt=5),
        dict(x_lo=0.0, x_hi=1.0, t_final=1.0, nx=5, nt=1),
        dict(x_lo=1.0, x_hi=1.0, t_final=1.0, nx=5, nt=5),
        dict(x_lo=0.0, x_hi=1.0, t_final=0.0, nx=5, nt=5),
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(GridError):
            SpaceTimeGrid(**kwargs)

    # a fractional nx built 42 nodes up to x = 1.0123 and nt = 2.5 three
    # up to t = 1.333; an infinite bound gave nan coordinates
    @pytest.mark.parametrize("field, value", [
        ("nx", 41.5), ("nt", 2.5), ("x_lo", -np.inf), ("x_hi", np.inf),
        ("t_final", np.inf)])
    def test_unbuildable_grid_refused_naming_the_field(self, field, value):
        kwargs = dict(x_lo=0.0, x_hi=1.0, t_final=1.0, nx=41, nt=3)
        with pytest.raises(GridError, match=f"^{field} must be"):
            SpaceTimeGrid(**{**kwargs, field: value})

    def test_numpy_integer_counts_accepted(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, np.int64(41), np.int32(3))
        assert grid.shape == (3, 41)


class TestSampleField:
    def test_constant_field_everywhere(self, unit_grid):
        field = SymMatrixField.constant([[2.0, 1.0], [1.0, 2.0]])
        vals = sample_field(field, unit_grid)
        assert vals.shape == (1, 101, 2, 2)
        assert np.all(vals == np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert symmetry_defect(field, unit_grid) == 0.0

    def test_constant_owns_its_matrix(self):
        literal = np.eye(2)
        field = SymMatrixField.constant(literal)
        literal[0, 0] = 5.0
        assert np.array_equal(field(0.5, 0.0), np.eye(2))
        assert not field(0.5, 0.0).flags.writeable

    def test_samples_in_the_stored_form(self, unit_grid):
        # one read-only row for a time-independent field, every row
        # otherwise; an array that a field's fn returns keeps its flags
        static = sample_field(SymMatrixField.affine([[1.0]], [[1.0]]),
                              unit_grid)
        assert static.shape == (1, 101, 1, 1)
        assert not static.flags.writeable
        owned = np.ones(unit_grid.shape + (1, 1))
        moving = sample_field(SymMatrixField(1, lambda x, t: owned),
                              unit_grid)
        assert moving.shape == (101, 101, 1, 1)
        assert not moving.flags.writeable
        assert np.shares_memory(moving, owned) and owned.flags.writeable

    def test_affine_field_linear_evaluation(self, unit_grid):
        field = SymMatrixField.affine([[0.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 1.0], [1.0, 0.0]])
        vals = sample_field(field, unit_grid)
        i = 50  # x = 0.5
        assert np.allclose(vals[0, i], [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)

    def test_asymmetric_field_flagged(self, unit_grid):
        field = MatrixField.constant([[0.0, 1.0], [0.0, 0.0]])
        assert symmetry_defect(field, unit_grid) == 1.0
        bad = SymMatrixField(2, field.fn, label="bad")
        with pytest.raises(AsymmetricFieldError) as err:
            sample_field(bad, unit_grid)
        assert err.value.defect == 1.0

    def test_asymmetry_read_from_every_pair(self, unit_grid):
        # n = 3, time-dependent, a defect in each pair above and below the
        # diagonal: the refusal reports the largest over nodes and pairs
        def fn(x, t):
            x, t = np.broadcast_arrays(x, t)
            out = np.zeros(x.shape + (3, 3)) + np.eye(3)
            out[..., 0, 1] = 1e-9 * x
            out[..., 2, 0] = 3e-9 * t * x
            out[..., 1, 2] = -2e-9 * t
            return out

        bad = SymMatrixField(3, fn, label="bad", time_independent=False)
        with pytest.raises(AsymmetricFieldError,
                           match="field bad symmetry defect 3.000e-09 "
                                 "exceeds 1e-12") as err:
            sample_field(bad, unit_grid)
        assert err.value.defect == symmetry_defect(bad, unit_grid) == 3e-9

    def test_symmetry_defect_holds_no_full_difference(self):
        # samples made before tracing, so the peak is what the defect adds:
        # one pair's difference at a time, where |M - M^T| over the whole
        # stack took twice the samples
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 101, 401)
        vals = np.zeros(grid.shape + (3, 3)) + np.eye(3)
        vals[..., 1, 2] = 2e-9 * grid.meshgrid()[1]
        field = MatrixField(3, lambda x, t: vals, time_independent=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            defect = symmetry_defect(field, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert defect == 2e-9
        assert peak < vals.nbytes, (peak, vals.nbytes)

    def test_asymmetric_literal_rejected_early(self):
        with pytest.raises(AsymmetricFieldError):
            SymMatrixField.constant([[0.0, 1.0], [0.0, 0.0]])

    def test_nonfinite_entry_names_node(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 5, 3)

        def fn(x, t):
            shape = np.broadcast_shapes(x.shape, t.shape)
            out = np.ones(shape + (1, 1))
            with np.errstate(divide="ignore"):
                out[..., 0, 0] = 1.0 / np.broadcast_to(x - 0.5, shape)
            return out

        field = SymMatrixField(1, fn, label="blowup")
        with pytest.raises(FieldEvaluationError, match="i=2"):
            sample_field(field, grid)


class TestMinMaxEigenvalues:
    """eig_bounds: the extreme eigenvalues of one matrix or of a stack."""

    def test_two_by_two(self):
        assert eig_bounds(np.array([[2.0, 1.0], [1.0, 2.0]])) == \
            pytest.approx((1.0, 3.0), abs=1e-12)

    def test_identity_three(self):
        assert eig_bounds(np.eye(3)) == pytest.approx((1.0, 1.0))

    def test_indefinite(self):
        assert eig_bounds(np.array([[0.0, 1.0], [1.0, 0.0]])) == \
            pytest.approx((-1.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_characteristic_polynomial(self, n):
        # independent oracle: roots of the analytically assembled char poly
        rng = np.random.default_rng(42)
        a = rng.standard_normal((50, n, n))
        stack = a + np.swapaxes(a, -1, -2)
        stack_min, stack_max = eig_bounds(stack)
        for k, mat in enumerate(stack):
            if n == 1:
                coeffs = [1.0, -mat[0, 0]]
            elif n == 2:
                coeffs = [1.0, -np.trace(mat), np.linalg.det(mat)]
            else:
                minors = sum(mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
                             for i in range(3) for j in range(i + 1, 3))
                coeffs = [1.0, -np.trace(mat), minors, -np.linalg.det(mat)]
            roots = np.sort(np.roots(coeffs).real)
            assert stack_min[k] == pytest.approx(roots[0], abs=1e-8)
            assert stack_max[k] == pytest.approx(roots[-1], abs=1e-8)


    @pytest.mark.filterwarnings("error")
    def test_huge_entries_scaled_not_overflowed(self):
        # the closed form squares entries past 1e154 to inf; such matrices
        # are taken again scaled by their largest entry, the rest keep
        # their bits
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 2, 2))
        stack = a + np.swapaxes(a, -1, -2)
        want = eig_bounds(stack)
        stack[[1, 4]] *= 1e300
        lo, hi = eig_bounds(stack)
        for got, ref in ((lo, want[0]), (hi, want[1])):
            assert np.array_equal(got[[0, 2, 3, 5]], ref[[0, 2, 3, 5]])
            np.testing.assert_allclose(got[[1, 4]], 1e300 * ref[[1, 4]],
                                       rtol=1e-14)
        assert eig_bounds(np.diag([1e300, 2e300])) == (1e300, 2e300)


def _spd(rng, n, cond):
    """Seeded SPD matrix with eigenvalues spread from 1 down to 1 / cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T


def _speed_scenario(n, kind):
    """A scenario on a 21 x 11 grid whose node speeds the oracle checks.

    h0 = H + x S is SPD on [0, 1] with cond(H) 1e8 for "ill-conditioned"
    and 10 otherwise.  h1 = M + x N has speeds of both signs ("mixed"),
    the same plus 0.5 sin(4t) I ("wobbling", time-dependent), is 1.5 h0
    ("repeated": every speed 1.5, each of multiplicity n) or is 0 ("zero").
    """
    rng = np.random.default_rng(100 * n + len(kind))
    cond = 1e8 if kind == "ill-conditioned" else 10.0
    base, slope = _spd(rng, n, cond), _spd(rng, n, 10.0) * (0.1 / cond)
    h0 = SymMatrixField.affine(base, slope, label="h0")
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.array([1.0, -1.0, 1.0][:n])
    lead = (q * (rng.uniform(0.5, 2.0, n) * signs)) @ q.T
    tilt = rng.standard_normal((n, n))
    lead, tilt = 0.5 * (lead + lead.T), 0.25 * (tilt + tilt.T)
    if kind == "repeated":
        h1 = SymMatrixField.affine(1.5 * base, 1.5 * slope)
    elif kind == "zero":
        h1 = SymMatrixField.constant(np.zeros((n, n)))
    elif kind == "wobbling":
        def wobble(x, t):
            x, t = np.broadcast_arrays(x, t)
            return (lead + x[..., None, None] * tilt
                    + 0.5 * np.sin(4.0 * t)[..., None, None] * np.eye(n))
        h1 = SymMatrixField(n, wobble, time_independent=False)
    else:
        h1 = SymMatrixField.affine(lead, tilt)
    return Scenario(name=f"speeds-{kind}-{n}",
                    grid=SpaceTimeGrid(0.0, 1.0, 1.0, 21, 11), n_comp=n,
                    h0=h0, h1=h1, eta=SpatialWeight.linear(1.0), beta=0.5)


class TestNodeSpeeds:
    """Node speeds against LAPACK's generalized eigenvalues, node by node."""

    KINDS = ["mixed", "ill-conditioned", "repeated", "zero", "wobbling"]

    @staticmethod
    def reference(h0, h1):
        """max |lambda| of (h1, h0) at every node of two (rows, nx) stacks."""
        return np.array([[np.abs(scipy.linalg.eigh(
            b, a, eigvals_only=True)).max() for a, b in zip(ra, rb)]
            for ra, rb in zip(h0, h1)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_match_generalized_eigh(self, n, kind):
        sc = _speed_scenario(n, kind)
        samples = sc.samples
        rows = max(len(samples.h0), len(samples.h1))
        assert rows == (sc.grid.nt if kind == "wobbling" else 1)
        shape = (rows, sc.grid.nx, n, n)
        h0 = np.broadcast_to(samples.h0, shape)
        h1 = np.broadcast_to(samples.h1, shape)
        ref = self.reference(h0, h1)
        if kind == "repeated":
            np.testing.assert_allclose(ref, 1.5, rtol=1e-13)
        # both sides whiten by a Cholesky factor of h0; with cond(h0) = 1e8
        # either can sit about 1e-8 from the exact speed, and they agree to
        # a few 1e-13 (3.1e-13 at worst over 400 seeded 2 x 2 and 3 x 3
        # pencils), so that case gets 1e-12
        rtol = 1e-12 if kind == "ill-conditioned" and n > 1 else 1e-13
        # one factor of h0 per node, and one factor of the static h0 shared
        # by every h1 row in the sample set
        for speeds in (_char_speeds(h0, h1), samples.speeds):
            np.testing.assert_allclose(speeds, ref, rtol=rtol, atol=0.0)
        if kind == "zero":
            assert np.all(samples.speeds == 0.0)
            assert admissible_time_nodes(sc) == 2


class TestBoundaryFlux:
    """The boundary flux and closure read the h1 samples' end columns.

    On 50 nodes the last node of (0, 1) is x = 1 - 2^-53, so h1 = x at that
    node and at x_hi = 1 differ in the last bit."""

    GRID = SpaceTimeGrid(0.0, 1.0, 1.0, 50, 7)

    def scenario(self, h0, h1):
        assert self.GRID.x[-1] != self.GRID.x_hi
        return Scenario(name="ramp", grid=self.GRID, n_comp=h0.n_comp,
                        h0=h0, h1=h1, eta=SpatialWeight.linear(1.0), beta=0.5)

    def test_flux_is_the_h1_end_columns(self):
        samples = self.scenario(SymMatrixField.constant([[1.0]]),
                                SymMatrixField.affine([[0.0]], [[1.0]])).samples
        assert np.array_equal(samples.flux[1], samples.h1[:, -1])
        assert np.array_equal(samples.flux[0], -samples.h1[:, 0])

    def test_static_flux_keeps_its_one_row(self):
        sc = self.scenario(SymMatrixField.constant([[1.0]]),
                           SymMatrixField.affine([[1.0]], [[1.0]]))
        samples = sc.samples
        assert samples.flux.shape == (2, 1, 1, 1)
        assert samples.plus.shape == samples.minus.shape == (2, 1)
        labels = classify_boundary_series(sc)
        assert labels.shape == (2, self.GRID.nt)
        for n, t in enumerate(self.GRID.t):
            assert [labels[k, n] for k in range(2)] == \
                list(classify_boundary(sc, t).values())

    def test_closure_reads_h0_and_h1_at_one_node(self):
        # h0 and h1 both vary in x, and the eigenvectors of (h1, h0) move
        # with x, so the last bit of x reaches the projectors
        samples = self.scenario(
            SymMatrixField.affine([[2.0, 0.5], [0.5, 1.0]],
                                  [[1.0, 0.0], [0.0, 0.0]]),
            SymMatrixField.affine([[0.0, 1.0], [1.0, 0.5]],
                                  [[1.0, 0.0], [0.0, 0.0]])).samples
        h0b = np.stack([samples.h0[:, 0], samples.h0[:, -1]])
        flux = np.stack([-samples.h1[:, 0], samples.h1[:, -1]])
        at_x_hi = flux.copy()
        at_x_hi[1, :, 0, 0] = 1.0
        for got, want, off in zip(samples.closure,
                                  _closure_projectors(flux, h0b),
                                  _closure_projectors(at_x_hi, h0b)):
            assert np.array_equal(got, want)
            assert not np.array_equal(off[1], want[1])


class TestCentralDerivative:
    def test_quadratic_exact(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 3)
        gf = GridFunction.from_components(grid, [lambda x, t: x ** 2 + 0 * t])
        dx = central_derivative(gf, "x")
        i = 5  # x = 0.5
        assert dx.values[0, i, 0] == pytest.approx(1.0, abs=1e-12)
        # one-sided ends are second order, hence exact on quadratics too
        assert dx.values[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_is_zero(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 5)
        gf = GridFunction.from_components(grid, [lambda x, t: 3.0 + 0 * x * t])
        for axis in ("x", "t"):
            assert np.all(central_derivative(gf, axis).values == 0.0)

    def test_sine_defect_shrinks_under_doubling(self):
        defects = []
        for nx in (51, 101):
            grid = SpaceTimeGrid(0.0, 1.0, 1.0, nx, 3)
            gf = GridFunction.from_components(
                grid, [lambda x, t: np.sin(np.pi * x) + 0 * t])
            dx = central_derivative(gf, "x")
            exact = np.pi * np.cos(np.pi * grid.x)
            defects.append(np.max(np.abs(dx.values[0, :, 0] - exact)))
        assert defects[0] / defects[1] >= 3.5
        assert np.log2(defects[0] / defects[1]) >= 1.9  # measured order

    def test_too_few_nodes(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 5, 2)
        gf = GridFunction.zeros(grid, 1)
        with pytest.raises(GridError):
            central_derivative(gf, "t")


class TestGridFunction:
    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(GridMismatchError):
            GridFunction(unit_grid, np.zeros((7, 101, 1)))

    def test_nonfinite_rejected(self, unit_grid):
        vals = np.zeros((101, 101, 1))
        vals[3, 4, 0] = np.nan
        with pytest.raises(FieldEvaluationError, match="i=4"):
            GridFunction(unit_grid, vals)


class TestSeparableGridFunction:
    @staticmethod
    def member(grid, n_comp=2, seed=4):
        return random_smooth_separable(grid, n_comp, seed=seed)

    @pytest.mark.parametrize("x_shape, t_shape", [
        ((100, 2, 8), (101, 8)),   # x factor off the grid
        ((101, 2, 8), (100, 8)),   # t factor off the grid
        ((101, 2, 8), (101, 7)),   # ranks disagree
        ((101, 8), (101, 8)),      # no component axis
    ])
    def test_shape_mismatch(self, unit_grid, x_shape, t_shape):
        with pytest.raises(GridMismatchError):
            SeparableGridFunction(unit_grid, np.zeros(x_shape),
                                  np.zeros(t_shape))

    @pytest.mark.parametrize("name", ["x_factor", "t_factor"])
    def test_nonfinite_rejected(self, unit_grid, name):
        factors = {"x_factor": np.zeros((101, 2, 3)),
                   "t_factor": np.zeros((101, 3))}
        factors[name][(5,) + (0,) * (factors[name].ndim - 1)] = np.inf
        with pytest.raises(FieldEvaluationError, match=name):
            SeparableGridFunction(unit_grid, **factors)

    def test_rows_columns_and_norm_match_dense(self):
        grid = SpaceTimeGrid(0.0, 1.0, 2.0, 31, 45)
        sep = self.member(grid)
        dense = sep.materialize()
        for k in (0, -1, 7):
            np.testing.assert_allclose(sep.time_row(k), dense.time_row(k),
                                       rtol=0, atol=1e-14)
        np.testing.assert_allclose(sep.boundary_columns(),
                                   dense.boundary_columns(), rtol=0,
                                   atol=1e-14)
        rng = np.random.default_rng(0)
        wx, wt = rng.uniform(0.1, 2.0, grid.nx), rng.uniform(0.1, 2.0, grid.nt)
        want = float(np.sum(wt[:, None, None] * wx[None, :, None]
                            * dense.values ** 2))
        assert sep.weighted_norm(wx, wt) == pytest.approx(want, rel=1e-13)
        assert dense.weighted_norm(wx, wt) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_derivative_differentiates_one_factor(self, axis):
        grid = SpaceTimeGrid(0.0, 1.0, 2.0, 31, 45)
        sep = self.member(grid)
        d = central_derivative(sep, axis)
        assert isinstance(d, SeparableGridFunction)
        kept = "t_factor" if axis == "x" else "x_factor"
        assert getattr(d, kept) is getattr(sep, kept)
        want = central_derivative(sep.materialize(), axis).values
        assert np.max(np.abs(d.materialize().values - want)) <= \
            1e-13 * np.max(np.abs(want))

    def test_derivative_needs_three_nodes(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 2)
        with pytest.raises(GridError, match="along t"):
            central_derivative(self.member(grid), "t")


class TestRandomEnsembles:
    def test_deterministic(self, unit_grid):
        a = random_smooth_separable(unit_grid, 2, seed=7).materialize()
        b = random_smooth_separable(unit_grid, 2, seed=7).materialize()
        assert np.array_equal(a.values, b.values)

    def test_single_mode_degenerate(self, unit_grid):
        gf = random_smooth_separable(unit_grid, 1, seed=1,
                                     modes=1).materialize()
        # one product mode: values factor as f(x) * g(t), rank one in (x, t)
        rank = np.linalg.matrix_rank(gf.values[:, :, 0], tol=1e-10)
        assert rank == 1

    def test_supnorm_fixture(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 101, 101)
        gf = random_smooth_separable(grid, 2, seed=3, modes=8,
                                     decay=2.0).materialize()
        sup = float(np.max(np.abs(gf.values)))
        assert np.isfinite(sup)
        assert sup == pytest.approx(2.6183656816806584, rel=1e-9)

    def test_refinement_resamples_same_function(self, unit_grid):
        coarse = random_smooth_separable(unit_grid, 2, seed=11).materialize()
        fine = random_smooth_separable(unit_grid.refined(), 2,
                                       seed=11).materialize()
        assert np.allclose(fine.values[::2, ::2], coarse.values,
                           rtol=0, atol=1e-13)

    def test_matches_loop_form(self):
        # the series summed term by term, as its docstring states it, on
        # the materialized member
        grid = SpaceTimeGrid(0.5, 2.0, 1.5, 41, 63)
        n_comp, seed, modes, decay = 3, 13, 5, 1.5
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal((n_comp, modes, modes))
        theta = rng.uniform(0.0, 2.0 * np.pi, (n_comp, modes, modes))
        psi = rng.uniform(0.0, 2.0 * np.pi, (n_comp, modes, modes))
        x, t = grid.meshgrid()
        xh = (x - grid.x_lo) / (grid.x_hi - grid.x_lo)
        th = t / grid.t_final
        ref = np.zeros(grid.shape + (n_comp,))
        for j in range(n_comp):
            for k in range(1, modes + 1):
                for m in range(1, modes + 1):
                    ref[:, :, j] += (
                        amp[j, k - 1, m - 1] * float(k * m) ** (-decay)
                        * np.sin(k * np.pi * xh + theta[j, k - 1, m - 1])
                        * np.sin(m * np.pi * th + psi[j, k - 1, m - 1]))
        sep = random_smooth_separable(grid, n_comp, seed=seed, modes=modes,
                                      decay=decay)
        assert sep.x_factor.shape == (grid.nx, n_comp, 2 * modes)
        assert sep.t_factor.shape == (grid.nt, 2 * modes)
        gf = sep.materialize()
        assert np.max(np.abs(gf.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_modes_validated(self, unit_grid):
        with pytest.raises(ValueError):
            random_smooth_separable(unit_grid, 1, seed=0, modes=0)

    # the weight of the highest mode overflows (decay -400 and -700) or
    # underflows to 0 (decay 400 and 1000)
    @pytest.mark.parametrize("make, decay", [
        (random_smooth_separable, -400.0), (random_smooth_separable, 400.0),
        (random_initial_profile, -700.0), (random_initial_profile, 1000.0)])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_mode_weight_refused_by_name(self, unit_grid, make,
                                                     decay):
        with pytest.raises(FieldEvaluationError,
                           match=rf"modes=3 with decay={decay!r} give a "
                                 "mode weight that is not finite or is 0"):
            make(unit_grid, 2, seed=0, modes=3, decay=decay)

    def test_initial_profile_vanishes_at_endpoints(self, unit_grid):
        prof = random_initial_profile(unit_grid, 2, seed=5)
        assert prof.shape == (101, 2)
        assert np.allclose(prof[0], 0.0, atol=1e-12)
        assert np.allclose(prof[-1], 0.0, atol=1e-12)

    def test_bump_profile_support(self, unit_grid):
        prof = bump_profile(unit_grid, (0.0, 0.4), n_comp=1)
        x = unit_grid.x
        assert np.all(prof[(x <= 0.0) | (x >= 0.4), 0] == 0.0)
        assert np.all(prof[(x > 0.05) & (x < 0.35), 0] > 0.0)


def _unit():
    """A scalar scenario on 21 x 41 nodes, which meets the Courant bound."""
    return scalar_scenario(nx=21, nt=41)


#: library refusals, each with its exception type and its whole message
LIBRARY_REFUSALS = {
    "scenario-h0-size": (
        lambda: replace(_unit(), h0=SymMatrixField.constant(np.eye(2))),
        ValueError, "h0 has size 2, scenario expects 1"),
    "scenario-p-size": (
        lambda: replace(_unit(), p=MatrixField.constant(np.eye(2))),
        ValueError, "p has wrong system size"),
    "scenario-source-size": (
        lambda: replace(_unit(), source=VectorField(2, lambda x, t: 0 * x)),
        ValueError, "source has wrong system size"),
    "scenario-beta": (lambda: replace(_unit(), beta=math.inf),
                      ValueError, "beta must be finite and >= 0 (got inf)"),
    "solve-initial-shape": (
        lambda: solve(_unit(), np.zeros((20, 1))), GridMismatchError,
        "initial data shape (20, 1) != (nx, n) = (21, 1)"),
    "derivative-axis": (
        lambda: central_derivative(GridFunction.zeros(_unit().grid, 1), "y"),
        ValueError, "axis must be 'x' or 't' (got 'y')"),
    "initial-profile-modes": (
        lambda: random_initial_profile(_unit().grid, 1, 0, modes=0),
        ValueError, "modes must be >= 1 (got 0)"),
    "bump-support": (lambda: bump_profile(_unit().grid, (0.5, 0.5)),
                     ValueError, "empty support interval (0.5, 0.5)"),
    "constant-literal": (
        lambda: MatrixField.constant([[1.0, 2.0]]), ValueError,
        "matrix must be square (got shape (1, 2))"),
    "affine-literal": (
        lambda: MatrixField.affine([[1.0, 2.0]], [[1.0, 2.0]]), ValueError,
        "base and slope must be square and equally sized"),
    "minimal-time-delta0": (
        lambda: minimal_time(SpatialWeight.linear(1.0), 0.0, 1.0,
                             _unit().grid),
        ValueError, "delta0 must be positive (got 0.0)"),
    "select-beta-delta0": (
        lambda: select_beta(0.0, 1.0, SpatialWeight.linear(1.0),
                            _unit().grid),
        BetaSelectionError, "delta0 must be positive (got 0.0)"),
    "same-grid-components": (
        lambda: check_same_grid(GridFunction(_unit().grid,
                                             np.zeros((41, 21, 2))), _unit()),
        GridMismatchError, "component count 2 != scenario size 1"),
}


@pytest.mark.parametrize("name", list(LIBRARY_REFUSALS))
def test_library_refusal(name):
    call, error, message = LIBRARY_REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
