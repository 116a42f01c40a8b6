"""Grid, field sampling, eigenvalue bounds, derivatives, and ensembles."""

import numpy as np
import pytest

from symhyp import (
    AsymmetricFieldError,
    FieldEvaluationError,
    GridError,
    GridFunction,
    GridMismatchError,
    MatrixField,
    SpaceTimeGrid,
    SymMatrixField,
    bump_profile,
    central_derivative,
    eig_bounds,
    min_max_eigenvalues,
    random_initial_profile,
    random_smooth_gridfunction,
    sample_field,
    symmetry_defect,
)


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


class TestSampleField:
    def test_constant_field_everywhere(self, unit_grid):
        field = SymMatrixField.constant([[2.0, 1.0], [1.0, 2.0]])
        vals = sample_field(field, unit_grid)
        assert vals.shape == (101, 101, 2, 2)
        assert np.all(vals == np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert symmetry_defect(field, unit_grid) == 0.0

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
    def test_two_by_two(self):
        assert min_max_eigenvalues([[2.0, 1.0], [1.0, 2.0]]) == \
            pytest.approx((1.0, 3.0), abs=1e-12)

    def test_identity_three(self):
        assert min_max_eigenvalues(np.eye(3)) == pytest.approx((1.0, 1.0))

    def test_indefinite(self):
        assert min_max_eigenvalues([[0.0, 1.0], [1.0, 0.0]]) == \
            pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricFieldError):
            min_max_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_characteristic_polynomial(self, n):
        # independent oracle: roots of the analytically assembled char poly,
        # for one matrix at a time and for eig_bounds on the whole stack
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
            for lmin, lmax in (min_max_eigenvalues(mat),
                               (stack_min[k], stack_max[k])):
                assert lmin == pytest.approx(roots[0], abs=1e-8)
                assert lmax == pytest.approx(roots[-1], abs=1e-8)


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


class TestRandomEnsembles:
    def test_deterministic(self, unit_grid):
        a = random_smooth_gridfunction(unit_grid, 2, seed=7)
        b = random_smooth_gridfunction(unit_grid, 2, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_single_mode_degenerate(self, unit_grid):
        gf = random_smooth_gridfunction(unit_grid, 1, seed=1, modes=1)
        # one product mode: values factor as f(x) * g(t), rank one in (x, t)
        rank = np.linalg.matrix_rank(gf.values[:, :, 0], tol=1e-10)
        assert rank == 1

    def test_supnorm_fixture(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 101, 101)
        gf = random_smooth_gridfunction(grid, 2, seed=3, modes=8, decay=2.0)
        sup = float(np.max(np.abs(gf.values)))
        assert np.isfinite(sup)
        assert sup == pytest.approx(2.6183656816806584, rel=1e-9)

    def test_refinement_resamples_same_function(self, unit_grid):
        coarse = random_smooth_gridfunction(unit_grid, 2, seed=11)
        fine = random_smooth_gridfunction(unit_grid.refined(), 2, seed=11)
        assert np.allclose(fine.values[::2, ::2], coarse.values,
                           rtol=0, atol=1e-13)

    def test_matches_loop_form(self):
        # the series summed term by term, as its docstring states it
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
        gf = random_smooth_gridfunction(grid, n_comp, seed=seed, modes=modes,
                                        decay=decay)
        assert np.max(np.abs(gf.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_modes_validated(self, unit_grid):
        with pytest.raises(ValueError):
            random_smooth_gridfunction(unit_grid, 1, seed=0, modes=0)

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
