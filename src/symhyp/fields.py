"""Grids, coefficient fields, and sampled grid functions.

Everything downstream (hypothesis checks, the time stepper, the weighted
functionals) consumes the types defined here.  Fields are closures evaluated
on uniform tensor-product space-time grids; matrix fields carry the system
size and an optional symmetry contract that is enforced at sampling time.
Each scenario samples its coefficients once per grid (`Scenario.samples`),
and every per-node quantity reads that sample set: the boundary flux its h1
end columns, the identity defects its h0 and h1, node-wise maps one blocked
loop (`GridSamples.node_map`).  It also owns the node speeds and boundary
closure projectors the marcher reads.

Grid functions come in two storages.  `GridFunction` holds every sample.
`SeparableGridFunction` holds a low-rank factorization u = X T^T, an x
factor per component and a t factor.  The seeded smooth member is of this
kind (`random_smooth_separable`), and its one dense form is its
`materialize`.  The weighted quadrature reads its time rows, boundary
columns and weighted norm from the factors without forming the (nt, nx, n)
samples.

Only one spatial dimension is implemented, but every type carries enough
structure (normals, node indexing, component counts) that a rectangle
extension would not change signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AsymmetricFieldError,
    FieldEvaluationError,
    GridError,
    GridMismatchError,
    SingularCoefficientError,
)

#: absolute tolerance on max_ij |M_ij - M_ji| for fields declared symmetric
SYMMETRY_TOL = 1e-12

#: boundary sides in d = 1, with their outward normals
SIDES = ("x_lo", "x_hi")
NORMALS = {"x_lo": -1.0, "x_hi": 1.0}

#: strictness tolerance for the boundary partition: PLUS needs
#: lambda_min > STRICT_TOL, MINUS needs lambda_max <= STRICT_TOL
STRICT_TOL = 1e-12

#: characteristics with |speed| below this are treated as non-propagating
SPEED_TOL = 1e-12


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
        # a fractional count builds nodes past x_hi or T, and an infinite
        # bound gives nan coordinates
        for name in ("nx", "nt"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise GridError(f"{name} must be an integer "
                                f"(got {getattr(self, name)!r})")
        for name in ("x_lo", "x_hi", "t_final"):
            if not np.isfinite(getattr(self, name)):
                raise GridError(f"{name} must be finite "
                                f"(got {getattr(self, name)!r})")

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
        return (float(self.x_lo + i * self.hx), float(n * self.ht))

    def node_of(self, values: np.ndarray,
                pick=np.argmin) -> tuple[float, float]:
        """(x, t) of the first node where pick (np.argmin or np.argmax)
        finds per-node values (rows, nx); a one-row array of a
        time-independent field names n = 0, the first such node of the
        full grid as well."""
        n, i = np.unravel_index(int(pick(values)), values.shape)
        return self.node(int(i), int(n))

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
        check_finite(self.values)

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

    def time_row(self, k: int) -> np.ndarray:
        """Samples at time node k, (nx, n)."""
        return self.values[k]

    def boundary_columns(self) -> np.ndarray:
        """Samples at x_lo and x_hi for every time node, (2, nt, n) in
        SIDES order."""
        return np.stack([self.values[:, 0], self.values[:, -1]])

    def weighted_norm(self, wx: np.ndarray, wt: np.ndarray) -> float:
        """sum over nodes of wx[i] * wt[n] * |u(x_i, t_n)|^2.

        One pass over the samples: no squared or weighted copy of them is
        formed in any memory layout.
        """
        return float(np.einsum("txc,x,txc->t", self.values, wx, self.values)
                     @ wt)


def check_finite(rows: np.ndarray, first: int = 0) -> None:
    """Refuse (rows, nx, n) samples of time nodes first, first + 1, ...
    holding a non-finite value, naming the first such node in time order."""
    if not np.all(np.isfinite(rows)):
        bad = np.argwhere(~np.isfinite(rows))[0]
        raise FieldEvaluationError(
            f"non-finite sample at node (i={bad[1]}, n={first + bad[0]}), "
            f"component {bad[2]}")


@dataclass
class SeparableGridFunction:
    """Grid function held as factors: u(x_i, t_n)_c = sum_k X[i, c, k] T[n, k].

    x_factor X is (nx, n, r) and t_factor T is (nt, r), so a member of rank
    r costs (nx n + nt) r numbers instead of nt nx n.  It offers what the
    weighted quadrature reads (two time rows, the boundary columns and a
    weighted squared norm) straight from the factors; `materialize` gives
    the dense samples for everything else.
    """

    grid: SpaceTimeGrid
    x_factor: np.ndarray
    t_factor: np.ndarray

    def __post_init__(self):
        self.x_factor = np.asarray(self.x_factor, dtype=float)
        self.t_factor = np.asarray(self.t_factor, dtype=float)
        xf, tf = self.x_factor, self.t_factor
        if (xf.ndim != 3 or tf.ndim != 2 or xf.shape[0] != self.grid.nx
                or tf.shape != (self.grid.nt, xf.shape[2])):
            raise GridMismatchError(
                f"factor shapes {xf.shape} and {tf.shape} do not match grid "
                f"(nx, n, r) = ({self.grid.nx}, *, r) and (nt, r) = "
                f"({self.grid.nt}, r)")
        for name, arr in (("x_factor", xf), ("t_factor", tf)):
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise FieldEvaluationError(
                    f"non-finite {name} entry at index {tuple(map(int, bad))}")

    @property
    def n_comp(self) -> int:
        return self.x_factor.shape[1]

    def materialize(self) -> GridFunction:
        return GridFunction(self.grid, np.einsum(
            "xck,tk->txc", self.x_factor, self.t_factor, optimize=True))

    def time_row(self, k: int) -> np.ndarray:
        return self.x_factor @ self.t_factor[k]

    def boundary_columns(self) -> np.ndarray:
        return self.t_factor @ np.swapaxes(self.x_factor[[0, -1]], 1, 2)

    def weighted_norm(self, wx: np.ndarray, wt: np.ndarray) -> float:
        """sum(Gx * Gt) with the Grams Gx = X^T diag(wx) X over (x, c) and
        Gt = T^T diag(wt) T: the weighted norm of a node weight wx(x) wt(t)."""
        r = self.t_factor.shape[1]
        xf = self.x_factor.reshape(-1, r)
        gx = (self.x_factor * wx[:, None, None]).reshape(-1, r).T @ xf
        gt = (self.t_factor * wt[:, None]).T @ self.t_factor
        return float(np.sum(gx * gt))


def central_derivative(data, axis: str, grid: SpaceTimeGrid | None = None):
    """Second-order finite difference along "x" or "t".

    Central in the interior, one-sided second-order at the two end nodes.
    Accepts a GridFunction or a SeparableGridFunction (returns the same
    type) or a raw array sampled on `grid` with time as the leading axis
    (returns an array of the same shape).  The difference is linear and
    acts along one axis, so on a separable function it differentiates the
    factor of that axis alone.
    """
    if axis not in ("x", "t"):
        raise ValueError(f"axis must be 'x' or 't' (got {axis!r})")
    if isinstance(data, GridFunction):
        out = central_derivative(data.values, axis, data.grid)
        return GridFunction(data.grid, out)
    if isinstance(data, SeparableGridFunction):
        if axis == "x":
            return replace(data, x_factor=_difference(data.x_factor, 0, "x",
                                                      data.grid))
        return replace(data, t_factor=_difference(data.t_factor, 0, "t",
                                                  data.grid))
    if grid is None:
        raise ValueError("grid is required when differentiating a raw array")
    return _difference(data, 1 if axis == "x" else 0, axis, grid)


def _difference(data: np.ndarray, ax: int, axis: str,
                grid: SpaceTimeGrid) -> np.ndarray:
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

    `fn` must accept broadcastable float arrays and return an array
    broadcastable to broadcast(x, t).shape + (n, n).  Use the constructors
    for the common constant / affine-in-x cases.
    """

    n_comp: int
    fn: Callable = dc_field(repr=False)
    label: str = ""
    time_independent: bool = False

    def __call__(self, x, t) -> np.ndarray:
        return _evaluate(self.fn, x, t, (self.n_comp, self.n_comp))

    @classmethod
    def constant(cls, matrix, label: str = "") -> "MatrixField":
        mat = np.array(matrix, dtype=float, ndmin=2)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError(f"matrix must be square (got shape {mat.shape})")
        cls._check_literal(mat)
        mat.flags.writeable = False  # a scalar (x, t) gets mat itself
        return cls(n, lambda x, t: mat, label=label, time_independent=True)

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
        return cls(n, lambda x, t: base + x[..., None, None] * slope,
                   label=label, time_independent=True)

    @staticmethod
    def _check_literal(mat: np.ndarray) -> None:
        """Hook for subclasses to vet literal matrices at construction."""


class SymMatrixField(MatrixField):
    """MatrixField whose samples must be symmetric to SYMMETRY_TOL."""

    @staticmethod
    def _check_literal(mat: np.ndarray) -> None:
        defect = _asymmetry(mat)
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
        return _evaluate(self.fn, x, t, (self.n_comp,))


def _evaluate(fn: Callable, x, t, tail: tuple[int, ...]) -> np.ndarray:
    """fn(x, t) on float arrays, broadcast to broadcast(x, t).shape + tail
    when its result is shorter: the one evaluation of every field."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.asarray(fn(x, t), dtype=float)
    want = np.broadcast_shapes(x.shape, t.shape) + tail
    return out if out.shape == want else np.broadcast_to(out, want)


def sample_field(field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """Evaluate a matrix field at every node as `GridSamples` keeps it:
    (nt, nx, n, n), or (1, nx, n, n) from the first time row alone for a
    time-independent field.

    The result is a read-only view; an array `fn` returns keeps its flags.
    Raises FieldEvaluationError naming the first offending node if any entry
    is non-finite, and AsymmetricFieldError if a SymMatrixField violates the
    sampled-symmetry tolerance.  An overflow is refused as the non-finite
    sample it makes, without a numpy warning.
    """
    x, t = grid.meshgrid()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = field(x, t[:1] if field.time_independent else t)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        xi, tn = grid.node(int(bad[1]), int(bad[0]))
        raise FieldEvaluationError(
            f"field {field.label or '<unnamed>'} non-finite at node "
            f"(i={bad[1]}, n={bad[0]}), x={xi}, t={tn}")
    if isinstance(field, SymMatrixField):
        defect = _asymmetry(vals)
        if defect > SYMMETRY_TOL:
            raise AsymmetricFieldError(
                f"field {field.label or '<unnamed>'} symmetry defect "
                f"{defect:.3e} exceeds {SYMMETRY_TOL}", defect)
    return np.broadcast_to(vals, vals.shape)


def symmetry_defect(field: MatrixField, grid: SpaceTimeGrid) -> float:
    """max_ij |M_ij - M_ji| over the nodes `sample_field` evaluates,
    without raising."""
    x, t = grid.meshgrid()
    return _asymmetry(field(x, t[:1] if field.time_independent else t))


def _asymmetry(vals: np.ndarray) -> float:
    """max |M_ab - M_ba| over samples (..., n, n), one pair above the
    diagonal at a time, so no temporary is larger than one entry's samples."""
    n = vals.shape[-1]
    return float(np.max([np.max(np.abs(vals[..., a, b] - vals[..., b, a]))
                         for a in range(n) for b in range(a + 1, n)],
                        initial=0.0))


# ---------------------------------------------------------------------------
# small symmetric eigenvalue bounds
# ---------------------------------------------------------------------------

def eig_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) over the trailing (n, n) axes of a stack.

    Closed forms for n = 1 and n = 2, with no LAPACK call per matrix;
    `eigvalsh` otherwise.  Inputs are assumed symmetric: validated field
    samples, or pencils whitened by `_whiten` for the node speeds.  Where
    the n = 2 form overflows (entries past about 1e154), it is taken again
    on the matrix divided by its largest |entry| and scaled back.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if n == 1:
        v = mats[..., 0, 0]
        return v, v
    if n > 2:
        w = np.linalg.eigvalsh(mats)
        return w[..., 0], w[..., -1]
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _eig2(mats)
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
        if bad.any():
            lo, hi = np.array(lo), np.array(hi)
            big = mats[bad]
            scale = np.max(np.abs(big), axis=(-2, -1))
            slo, shi = _eig2(big / scale[:, None, None])
            lo[bad], hi[bad] = slo * scale, shi * scale
    return lo, hi


def _eig2(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of a stack of symmetric 2 x 2 matrices in
    closed form."""
    a = mats[..., 0, 0]
    c = mats[..., 1, 1]
    b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    mid = 0.5 * (a + c)
    rad = np.sqrt(0.25 * (a - c) ** 2 + b ** 2)
    return mid - rad, mid + rad


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """M v over matching leading axes of a stack of matrices (..., n, n)
    and one of vectors (..., n): the one coefficient apply."""
    return np.einsum("...ab,...b->...a", mats, vecs)


def _inverse_factor(h0m: np.ndarray) -> np.ndarray:
    """L^-1 per node, for the Cholesky factor L of h0 = L L^T.

    h0 must already be checked positive definite.
    """
    return np.linalg.inv(np.linalg.cholesky(h0m))


def _whiten(linv: np.ndarray, h1m: np.ndarray) -> np.ndarray:
    """Cholesky whitening of the pencil (h1, h0) per node: L^-1 h1 L^-T.

    The symmetric matrix returned has the generalized eigenvalues of
    (h1, h0).  linv is h0's `_inverse_factor`; its leading axes broadcast
    against h1's, so one factor of a time-independent h0 whitens every h1
    row.  It is one contraction over the whole stack, which costs less
    than two broadcast matmuls of small matrices.
    """
    return np.einsum("...ab,...bc,...dc->...ad", linv, h1m, linv,
                     optimize=True)


def _char_speeds(h0m: np.ndarray, h1m: np.ndarray,
                 linv: np.ndarray | None = None) -> np.ndarray:
    """Largest |generalized eigenvalue| of (h1, h0) per node; linv is h0's
    `_inverse_factor` when the caller already has it.

    The extreme eigenvalues of the whitened pencil come from `eig_bounds`,
    so n = 2 is closed form and only n >= 3 calls LAPACK.
    """
    if h0m.shape[-1] == 1:
        return np.abs(h1m[..., 0, 0] / h0m[..., 0, 0])
    if linv is None:
        linv = _inverse_factor(h0m)
    lmin, lmax = eig_bounds(_whiten(linv, h1m))
    return np.maximum(-lmin, lmax)


def _closure_projectors(flux: np.ndarray, h0b: np.ndarray):
    """Characteristic closure at boundary nodes as (P_out, P_in).

    flux and h0b are stacks of (n, n) matrices over matching leading axes;
    the projectors have the same shape.  With the generalized eigenbasis V
    of (flux, h0b), V.T @ h0b @ V = I, taken as V = L^-T W from the
    eigenvectors W of the whitened pencil, the closed boundary state is
    u_b = P_out @ extrap + P_in @ g: outgoing and non-propagating
    characteristics keep the extrapolated state, incoming ones take the
    inflow data g.  P_in is zero where nothing enters.
    """
    linv = _inverse_factor(h0b)
    lam, w = np.linalg.eigh(_whiten(linv, flux))
    vecs = np.swapaxes(linv, -1, -2) @ w
    incoming = (lam < -SPEED_TOL)[..., None, :]
    v_out = np.where(incoming, 0.0, vecs)
    v_in = np.where(incoming, vecs, 0.0)
    return (v_out @ (np.swapaxes(v_out, -1, -2) @ h0b),
            v_in @ (np.swapaxes(v_in, -1, -2) @ h0b))


def boundary_classes(flux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(PLUS, MINUS) masks of normal flux matrices nu * h1: positive definite
    and negative semidefinite to STRICT_TOL; the rest is NEITHER."""
    lmin, lmax = eig_bounds(flux)
    return lmin > STRICT_TOL, lmax <= STRICT_TOL


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


#: time rows that node-wise work forms at once: the node speeds and the
#: coercivity eigenvalues (`GridSamples.node_map`), and the march's bands
#: and ring.  It bounds their temporaries
ROW_BLOCK = 64


def row_block(arrays, start: int, stop: int) -> list[np.ndarray]:
    """Time rows start .. stop - 1 of each sample array; a one-row
    (time-independent) array is passed whole, to be broadcast."""
    return [arr if len(arr) == 1 else arr[start:stop] for arr in arrays]


class GridSamples:
    """Coefficient samples of one scenario on its grid.

    h0, h1 and p are as `sample_field` returns them, (nt, nx, n, n) or one
    row; p is None when the scenario has none.
    flux is nu * h1 read from the end columns of the h1 samples, at their
    rows: (2, rows, n, n) in SIDES order, rows as for h1.  plus / minus are
    its boundary classes, (2, rows); like the coefficients, they broadcast
    over the time nodes.  speeds holds the node speeds of the marcher
    and closure its boundary projectors, each built on first use.  Every
    caller shares these arrays, so they are read-only.
    """

    def __init__(self, scenario: Scenario):
        grid = self.grid = scenario.grid
        self.h0 = sample_field(scenario.h0, grid)
        self.h1 = sample_field(scenario.h1, grid)
        self.p = None if scenario.p is None else sample_field(scenario.p, grid)
        self.flux = np.stack([NORMALS[side] * self.h1[:, col]
                              for side, col in zip(SIDES, (0, -1))])
        self.plus, self.minus = boundary_classes(self.flux)
        for arr in (self.flux, self.plus, self.minus):
            arr.flags.writeable = False

    def node_map(self, fn: Callable) -> np.ndarray:
        """fn(h0 rows, h1 rows) at every sampled node, (rows, nx): rows is 1
        when h0 and h1 both have one time row, nt otherwise.  fn gets
        ROW_BLOCK time rows at a time, so no node-wise temporary spans every
        time row."""
        h0, h1 = self.h0, self.h1
        out = np.empty((max(len(h0), len(h1)), self.grid.nx))
        for k in range(0, len(out), ROW_BLOCK):
            out[k:k + ROW_BLOCK] = fn(*row_block((h0, h1), k, k + ROW_BLOCK))
        return out

    @cached_property
    def speeds(self) -> np.ndarray:
        """Largest characteristic speed at every sampled node, (rows, nx)
        with rows as for `node_map`; closed form for n <= 2.

        Refuses, naming the node and the eigenvalue, when h0 is not
        positive definite somewhere; a refusal is not cached.
        """
        lmin, _ = eig_bounds(self.h0)
        if lmin.min() <= 0.0:
            x, t = self.grid.node_of(lmin)
            raise SingularCoefficientError(
                f"h0 is not positive definite at x={x}, t={t} "
                f"(lambda_min={float(lmin.min())!r})")
        # a time-independent h0 is factored once for every h1 row
        linv = _inverse_factor(self.h0) if len(self.h0) == 1 else None
        speeds = self.node_map(lambda h0, h1: _char_speeds(h0, h1, linv))
        speeds.flags.writeable = False
        return speeds

    @cached_property
    def closure(self) -> tuple[np.ndarray, np.ndarray]:
        """The marcher's characteristic closure (P_out, P_in) at x_lo and
        x_hi, each (2, rows, n, n) in SIDES order with rows as for speeds.

        Reads speeds first, so h0 is checked positive definite.
        """
        shape = (2, len(self.speeds)) + self.flux.shape[2:]
        h0b = np.stack([self.h0[:, 0], self.h0[:, -1]])
        projectors = _closure_projectors(np.broadcast_to(self.flux, shape),
                                         np.broadcast_to(h0b, shape))
        for arr in projectors:
            arr.flags.writeable = False
        return projectors


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

    @cached_property
    def samples(self) -> GridSamples:
        """Coefficient samples on this scenario's grid, filled on first use.

        with_grid and replace return a new Scenario, so each grid gets its
        own samples.
        """
        return GridSamples(self)

    def with_grid(self, grid: SpaceTimeGrid) -> "Scenario":
        return replace(self, grid=grid)


def check_same_grid(u: GridFunction | SeparableGridFunction,
                    scenario: Scenario) -> None:
    """Refuse a grid function sampled on another grid or system size."""
    if u.grid != scenario.grid:
        raise GridMismatchError("grid function lives on a different grid")
    if u.n_comp != scenario.n_comp:
        raise GridMismatchError(
            f"component count {u.n_comp} != scenario size {scenario.n_comp}")


# ---------------------------------------------------------------------------
# seeded ensembles
# ---------------------------------------------------------------------------

def _mode_weights(wave: np.ndarray, power: float, decay: float):
    """wave ** power, the scales of a seeded member of len(wave) modes,
    refused when one or its reciprocal is not finite: no mode weight is
    inf or 0."""
    with np.errstate(over="ignore", divide="ignore"):
        scale = wave ** power
        if np.all(np.isfinite(scale) & np.isfinite(1.0 / scale)):
            return scale
    raise FieldEvaluationError(
        f"modes={len(wave)} with decay={decay!r} give a mode weight that "
        f"is not finite or is 0")


def random_smooth_separable(grid: SpaceTimeGrid, n_comp: int, seed: int,
                            modes: int = 4,
                            decay: float = 2.0) -> SeparableGridFunction:
    """Truncated trigonometric series in (x, t) with seeded coefficients,
    held as factors of rank 2 modes; `materialize` gives its samples.

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

    # sin(a + b) = sin a cos b + cos a sin b splits every term into an x
    # factor and a t factor: component j is B(xh) C_j B(th)^T with the
    # basis B(h) = [sin(k pi h) | cos(k pi h)]; x_factor is B(xh) C and
    # t_factor B(th)
    wave = np.arange(1, modes + 1.0)
    coef = amp * _mode_weights(np.outer(wave, wave), -decay, decay)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    cmat = np.block([[coef * ct * cp, coef * ct * sp],
                     [coef * st * cp, coef * st * sp]])

    def basis(h):
        arg = np.pi * np.outer(h, wave)
        return np.hstack([np.sin(arg), np.cos(arg)])

    xh = (grid.x - grid.x_lo) / (grid.x_hi - grid.x_lo)
    th = grid.t / grid.t_final
    return SeparableGridFunction(
        grid, np.einsum("xk,jkm->xjm", basis(xh), cmat), basis(th))


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
        _mode_weights(np.arange(1, modes + 1), decay, decay)
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
