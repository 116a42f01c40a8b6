"""Grids, coefficient fields, and sampled grid functions.

Everything downstream (hypothesis checks, the time stepper, the weighted
functionals) consumes the types defined here.  Fields are closures evaluated
on uniform tensor-product space-time grids; matrix fields carry the system
size and an optional symmetry contract that is enforced at sampling time.

Only one spatial dimension is implemented, but every type carries enough
structure (normals, node indexing, component counts) that a rectangle
extension would not change signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AsymmetricFieldError,
    FieldEvaluationError,
    GridError,
    GridMismatchError,
)

#: absolute tolerance on max_ij |M_ij - M_ji| for fields declared symmetric
SYMMETRY_TOL = 1e-12

#: looser tolerance accepted by the scalar eigenvalue helper
EIG_SYMMETRY_TOL = 1e-10

#: boundary sides in d = 1, with their outward normals
SIDES = ("x_lo", "x_hi")
NORMALS = {"x_lo": -1.0, "x_hi": 1.0}


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on (x_lo, x_hi) x (0, t_final).

    Node (i, n) sits at exactly (x_lo + i*hx, n*ht), so coordinates are
    bit-reproducible across calls and across refinement levels.
    """

    x_lo: float
    x_hi: float
    t_final: float
    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 3:
            raise GridError(f"nx must be >= 3 (got {self.nx})")
        if self.nt < 2:
            raise GridError(f"nt must be >= 2 (got {self.nt})")
        if not self.x_hi > self.x_lo:
            raise GridError(f"x_hi must exceed x_lo (got [{self.x_lo}, {self.x_hi}])")
        if not self.t_final > 0:
            raise GridError(f"t_final must be positive (got {self.t_final})")

    @property
    def hx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def ht(self) -> float:
        return self.t_final / (self.nt - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_lo + self.hx * np.arange(self.nx)

    @property
    def t(self) -> np.ndarray:
        return self.ht * np.arange(self.nt)

    @property
    def shape(self) -> tuple[int, int]:
        """(nt, nx): time index first, matching GridFunction storage."""
        return (self.nt, self.nx)

    def node(self, i: int, n: int) -> tuple[float, float]:
        return (self.x_lo + i * self.hx, n * self.ht)

    def refined(self) -> "SpaceTimeGrid":
        """Halve both spacings while keeping every existing node."""
        return SpaceTimeGrid(self.x_lo, self.x_hi, self.t_final,
                             2 * self.nx - 1, 2 * self.nt - 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable (x, t) arrays of shape (1, nx) and (nt, 1)."""
        return self.x[None, :], self.t[:, None]


@dataclass
class GridFunction:
    """N-vector-valued samples on a grid, stored as (nt, nx, n_comp)."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[:2] != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid "
                f"(nt, nx, n) = ({self.grid.nt}, {self.grid.nx}, *)")
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise FieldEvaluationError(
                f"non-finite sample at node (i={bad[1]}, n={bad[0]}), "
                f"component {bad[2]}")

    @property
    def n_comp(self) -> int:
        return self.values.shape[2]

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid, n_comp: int) -> "GridFunction":
        return cls(grid, np.zeros((grid.nt, grid.nx, n_comp)))

    @classmethod
    def from_components(cls, grid: SpaceTimeGrid,
                        fns: Sequence[Callable]) -> "GridFunction":
        """Build from per-component callables fn(x, t) on broadcast arrays."""
        x, t = grid.meshgrid()
        cols = [np.broadcast_to(np.asarray(fn(x, t), dtype=float), grid.shape)
                for fn in fns]
        return cls(grid, np.stack(cols, axis=-1))

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.grid, factor * self.values)


def central_derivative(data, axis: str, grid: SpaceTimeGrid | None = None):
    """Second-order finite difference along "x" or "t".

    Central in the interior, one-sided second-order at the two end nodes.
    Accepts a GridFunction (returns a GridFunction) or a raw array sampled on
    `grid` with time as the leading axis (returns an array of the same shape).
    """
    if axis not in ("x", "t"):
        raise ValueError(f"axis must be 'x' or 't' (got {axis!r})")
    if isinstance(data, GridFunction):
        out = central_derivative(data.values, axis, data.grid)
        return GridFunction(data.grid, out)
    if grid is None:
        raise ValueError("grid is required when differentiating a raw array")
    ax = 1 if axis == "x" else 0
    if data.shape[ax] < 3:
        raise GridError(f"need >= 3 nodes along {axis} (got {data.shape[ax]})")
    spacing = grid.hx if axis == "x" else grid.ht
    return np.gradient(data, spacing, axis=ax, edge_order=2)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixField:
    """N x N matrix coefficient evaluated at (x, t).

    `fn` must accept broadcastable float arrays and return an array of shape
    broadcast(x, t).shape + (n, n).  Use the constructors for the common
    constant / affine-in-x cases; they produce vectorized closures.
    """

    n_comp: int
    fn: Callable = dc_field(repr=False)
    label: str = ""
    time_independent: bool = False

    def __call__(self, x, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x.shape, t.shape)
        out = np.asarray(self.fn(x, t), dtype=float)
        want = shape + (self.n_comp, self.n_comp)
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out

    @classmethod
    def constant(cls, matrix, label: str = "") -> "MatrixField":
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError(f"matrix must be square (got shape {mat.shape})")
        cls._check_literal(mat)

        def fn(x, t):
            shape = np.broadcast_shapes(x.shape, t.shape)
            return np.broadcast_to(mat, shape + (n, n))

        return cls(n, fn, label=label, time_independent=True)

    @classmethod
    def affine(cls, base, slope, label: str = "") -> "MatrixField":
        """base + x * slope, constant in time."""
        base = np.atleast_2d(np.asarray(base, dtype=float))
        slope = np.atleast_2d(np.asarray(slope, dtype=float))
        if base.shape != slope.shape or base.shape[0] != base.shape[1]:
            raise ValueError("base and slope must be square and equally sized")
        n = base.shape[0]
        cls._check_literal(base)
        cls._check_literal(slope)

        def fn(x, t):
            xb = np.broadcast_to(x, np.broadcast_shapes(x.shape, t.shape))
            return base + xb[..., None, None] * slope

        return cls(n, fn, label=label, time_independent=True)

    @staticmethod
    def _check_literal(mat: np.ndarray) -> None:
        """Hook for subclasses to vet literal matrices at construction."""


class SymMatrixField(MatrixField):
    """MatrixField whose samples must be symmetric to SYMMETRY_TOL."""

    @staticmethod
    def _check_literal(mat: np.ndarray) -> None:
        defect = float(np.max(np.abs(mat - mat.T)))
        if defect > SYMMETRY_TOL:
            raise AsymmetricFieldError(
                f"literal matrix has symmetry defect {defect:.3e}", defect)


@dataclass(frozen=True)
class VectorField:
    """N-vector source term evaluated at (x, t)."""

    n_comp: int
    fn: Callable = dc_field(repr=False)
    label: str = ""

    def __call__(self, x, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x.shape, t.shape)
        out = np.asarray(self.fn(x, t), dtype=float)
        want = shape + (self.n_comp,)
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out

    @classmethod
    def zero(cls, n_comp: int) -> "VectorField":
        def fn(x, t):
            shape = np.broadcast_shapes(x.shape, t.shape)
            return np.zeros(shape + (n_comp,))
        return cls(n_comp, fn, label="zero")


def sample_field(field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """Evaluate a matrix field at every node, shape (nt, nx, n, n).

    Raises FieldEvaluationError naming the first offending node if any entry
    is non-finite, and AsymmetricFieldError if a SymMatrixField violates the
    sampled-symmetry tolerance.
    """
    x, t = grid.meshgrid()
    vals = field(x, t)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        xi, tn = grid.node(int(bad[1]), int(bad[0]))
        raise FieldEvaluationError(
            f"field {field.label or '<unnamed>'} non-finite at node "
            f"(i={bad[1]}, n={bad[0]}), x={xi}, t={tn}")
    if isinstance(field, SymMatrixField):
        defect = float(np.max(np.abs(vals - np.swapaxes(vals, -1, -2))))
        if defect > SYMMETRY_TOL:
            raise AsymmetricFieldError(
                f"field {field.label or '<unnamed>'} symmetry defect "
                f"{defect:.3e} exceeds {SYMMETRY_TOL}", defect)
    return vals


def symmetry_defect(field: MatrixField, grid: SpaceTimeGrid) -> float:
    """max_ij |M_ij - M_ji| over all grid nodes, without raising."""
    x, t = grid.meshgrid()
    vals = field(x, t)
    return float(np.max(np.abs(vals - np.swapaxes(vals, -1, -2))))


# ---------------------------------------------------------------------------
# small symmetric eigenvalue bounds
# ---------------------------------------------------------------------------

def min_max_eigenvalues(matrix) -> tuple[float, float]:
    """Extreme eigenvalues of one small dense symmetric matrix.

    Rejects inputs whose symmetry defect exceeds EIG_SYMMETRY_TOL.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    defect = float(np.max(np.abs(mat - mat.T)))
    if defect > EIG_SYMMETRY_TOL:
        raise AsymmetricFieldError(
            f"matrix symmetry defect {defect:.3e} exceeds {EIG_SYMMETRY_TOL}",
            defect)
    w = np.linalg.eigvalsh(mat)
    return float(w[0]), float(w[-1])


def eig_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) over the trailing (n, n) axes of a stack.

    Closed forms for n = 1 and n = 2; LAPACK otherwise.  Inputs are assumed
    symmetric (they come from already-validated field samples).
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if n == 1:
        v = mats[..., 0, 0]
        return v, v
    if n == 2:
        a = mats[..., 0, 0]
        c = mats[..., 1, 1]
        b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
        mid = 0.5 * (a + c)
        rad = np.sqrt(0.25 * (a - c) ** 2 + b ** 2)
        return mid - rad, mid + rad
    w = np.linalg.eigvalsh(mats)
    return w[..., 0], w[..., -1]


# ---------------------------------------------------------------------------
# weight profile and scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialWeight:
    """Spatial profile of the exponential weight, with its derivative.

    The full space-time weight is phi(x, t) = eta(x) - beta * t; this type
    holds eta.  Both callables must accept numpy arrays.
    """

    fn: Callable = dc_field(repr=False)
    deriv: Callable = dc_field(repr=False)
    label: str = ""

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def derivative(self, x) -> np.ndarray:
        return np.asarray(self.deriv(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def linear(cls, slope: float = 1.0, offset: float = 0.0) -> "SpatialWeight":
        def fn(x):
            return slope * x + offset

        def deriv(x):
            return np.full_like(np.asarray(x, dtype=float), slope)

        return cls(fn, deriv, label=f"linear(a={slope}, b={offset})")


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance for one system on one grid.

    The system is h0 * du/dt + h1 * du/dx + p * u = source with symmetric
    h0, h1; p is a general (possibly rough) matrix field and may be omitted.
    beta >= 0, with beta = 0 allowed only as a degenerate weight for
    quadrature testing (the theory requires beta > 0).
    """

    name: str
    grid: SpaceTimeGrid
    n_comp: int
    h0: SymMatrixField
    h1: SymMatrixField
    eta: SpatialWeight
    beta: float
    p: MatrixField | None = None
    source: VectorField | None = None

    def __post_init__(self):
        for fld, tag in ((self.h0, "h0"), (self.h1, "h1")):
            if fld.n_comp != self.n_comp:
                raise ValueError(
                    f"{tag} has size {fld.n_comp}, scenario expects {self.n_comp}")
        if self.p is not None and self.p.n_comp != self.n_comp:
            raise ValueError("p has wrong system size")
        if self.source is not None and self.source.n_comp != self.n_comp:
            raise ValueError("source has wrong system size")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0 (got {self.beta})")

    def phi(self, x, t) -> np.ndarray:
        return self.eta(x) - self.beta * np.asarray(t, dtype=float)

    def phi_grid(self) -> np.ndarray:
        """phi at every node, shape (nt, nx)."""
        x, t = self.grid.meshgrid()
        return self.eta(x) - self.beta * t

    def with_grid(self, grid: SpaceTimeGrid) -> "Scenario":
        from dataclasses import replace
        return replace(self, grid=grid)


# ---------------------------------------------------------------------------
# seeded ensembles
# ---------------------------------------------------------------------------

def random_smooth_gridfunction(grid: SpaceTimeGrid, n_comp: int, seed: int,
                               modes: int = 4,
                               decay: float = 2.0) -> GridFunction:
    """Truncated trigonometric series in (x, t) with seeded coefficients.

    Component j is sum over 1 <= k, m <= modes of
    a_jkm * sin(k*pi*xh + theta) * sin(m*pi*th + psi), with xh, th the
    coordinates normalized to [0, 1], a_jkm drawn from a seeded normal and
    scaled by (k*m)^(-decay).  The draw depends only on (seed, n_comp, modes),
    so refining the grid resamples the very same smooth function.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1 (got {modes})")
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((n_comp, modes, modes))
    theta = rng.uniform(0.0, 2.0 * np.pi, (n_comp, modes, modes))
    psi = rng.uniform(0.0, 2.0 * np.pi, (n_comp, modes, modes))

    x, t = grid.meshgrid()
    xh = (x - grid.x_lo) / (grid.x_hi - grid.x_lo)
    th = t / grid.t_final
    vals = np.zeros(grid.shape + (n_comp,))
    for j in range(n_comp):
        acc = np.zeros(grid.shape)
        for ki in range(modes):
            for mi in range(modes):
                scale = float((ki + 1) * (mi + 1)) ** (-decay)
                acc += (amp[j, ki, mi] * scale
                        * np.sin((ki + 1) * np.pi * xh + theta[j, ki, mi])
                        * np.sin((mi + 1) * np.pi * th + psi[j, ki, mi]))
        vals[:, :, j] = acc
    return GridFunction(grid, vals)


def random_initial_profile(grid: SpaceTimeGrid, n_comp: int, seed: int,
                           modes: int = 3, decay: float = 2.0) -> np.ndarray:
    """Band-limited initial data, shape (nx, n_comp).

    A sine series vanishing at both endpoints, so the data is compatible with
    homogeneous inflow and the transported profile stays kink-free.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1 (got {modes})")
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal((n_comp, modes)) / \
        np.arange(1, modes + 1) ** decay
    xh = (grid.x - grid.x_lo) / (grid.x_hi - grid.x_lo)
    basis = np.sin(np.pi * np.outer(np.arange(1, modes + 1), xh))
    return (coefs @ basis).T


def bump_profile(grid: SpaceTimeGrid, support: tuple[float, float],
                 n_comp: int = 1, amplitude: float = 1.0) -> np.ndarray:
    """Smooth compactly supported bump on `support`, shape (nx, n_comp).

    The classic mollifier exp(-1/(1 - xi^2)) on the open support interval,
    identically zero outside; every component carries the same profile.
    """
    lo, hi = support
    if not hi > lo:
        raise ValueError(f"empty support interval {support}")
    xi = (2.0 * grid.x - (lo + hi)) / (hi - lo)
    vals = np.zeros(grid.nx)
    inside = np.abs(xi) < 1.0
    vals[inside] = amplitude * np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    return np.repeat(vals[:, None], n_comp, axis=1)
