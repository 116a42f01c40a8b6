"""Shared helpers: independent quadrature oracles, small scenario builders
and the mirror and component-order transforms of a scenario and its
members.

The midpoint evaluators below are the second set of books for the quadrature
double-entry checks: they sample *analytic* integrands at cell centers, so
they share neither code nor sample points with the trapezoid path under test.
"""

from dataclasses import replace

import numpy as np
import pytest

from symhyp import (
    GridFunction,
    Scenario,
    SeparableGridFunction,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
)
from symhyp.fields import _apply
from symhyp.functionals import _gauge


def midpoint_2d(fn, grid: SpaceTimeGrid) -> float:
    """Midpoint rule over the space-time cylinder for a callable fn(x, t)."""
    xc = grid.x_lo + (np.arange(grid.nx - 1) + 0.5) * grid.hx
    tc = (np.arange(grid.nt - 1) + 0.5) * grid.ht
    vals = fn(xc[None, :], tc[:, None])
    return float(np.sum(vals) * grid.hx * grid.ht)


def midpoint_x(fn, grid: SpaceTimeGrid) -> float:
    xc = grid.x_lo + (np.arange(grid.nx - 1) + 0.5) * grid.hx
    return float(np.sum(fn(xc)) * grid.hx)


def midpoint_t(fn, grid: SpaceTimeGrid) -> float:
    tc = (np.arange(grid.nt - 1) + 0.5) * grid.ht
    return float(np.sum(fn(tc)) * grid.ht)


def scalar_scenario(nx=101, nt=101, t_final=1.0, beta=0.5, eta_slope=1.0,
                    h0=1.0, h1=1.0, name="scalar") -> Scenario:
    """N = 1 scenario with constant coefficients on (0, 1)."""
    grid = SpaceTimeGrid(0.0, 1.0, t_final, nx, nt)
    return Scenario(
        name=name, grid=grid, n_comp=1,
        h0=SymMatrixField.constant([[h0]], label="h0"),
        h1=SymMatrixField.constant([[h1]], label="h1"),
        eta=SpatialWeight.linear(eta_slope), beta=beta)


def system_scenario(h0, h1, nx=51, nt=51, t_final=1.0, beta=0.5,
                    eta_slope=1.0, name="system") -> Scenario:
    """N x N scenario with constant coefficient literals on (0, 1)."""
    grid = SpaceTimeGrid(0.0, 1.0, t_final, nx, nt)
    h0f = SymMatrixField.constant(h0, label="h0")
    return Scenario(
        name=name, grid=grid, n_comp=h0f.n_comp, h0=h0f,
        h1=SymMatrixField.constant(h1, label="h1"),
        eta=SpatialWeight.linear(eta_slope), beta=beta)


def breathing_h0(x, t):
    """An SPD 2x2 h0 that moves in x and t."""
    x, t = np.broadcast_arrays(x, t)
    out = np.full(x.shape + (2, 2), 0.2)
    out[..., 0, 0] = 2.0 + 0.3 * np.sin(3.0 * t)
    out[..., 1, 1] = 1.5 + 0.2 * x
    return out


def mirror_scenario(sc: Scenario) -> Scenario:
    """The scenario in the mirrored coordinate y = x_lo + x_hi - x.

    Every coefficient reads x_lo + x_hi - y, h1 with its sign flipped, and
    eta becomes eta(x_lo + x_hi - y).  The two boundary sides swap, so every
    number a study prints must stay as it is, up to rounding, when its
    members are mirrored too (`mirror_member`).
    """
    span = sc.grid.x_lo + sc.grid.x_hi

    def mirrored(fld, sign=1.0):
        if fld is None:
            return None
        return replace(fld, fn=lambda x, t: sign * fld(span - x, t),
                       label=f"mirrored {fld.label}")

    eta = SpatialWeight(lambda y: sc.eta(span - y),
                        lambda y: -sc.eta.derivative(span - y),
                        label=f"mirrored {sc.eta.label}")
    return replace(sc, name=f"mirrored {sc.name}", h0=mirrored(sc.h0),
                   h1=mirrored(sc.h1, -1.0), eta=eta, p=mirrored(sc.p),
                   source=mirrored(sc.source))


def mirror_member(u):
    """A member in the mirrored coordinate: its x axis reversed.  `u` is an
    initial row (nx, n), a dense member or a separable one, whose x factor
    is reversed."""
    if isinstance(u, GridFunction):
        return GridFunction(u.grid, u.values[:, ::-1])
    if isinstance(u, SeparableGridFunction):
        return SeparableGridFunction(u.grid, u.x_factor[::-1], u.t_factor)
    return np.asarray(u)[::-1]


#: index of the reversed component axis of a vector and of a matrix
_REVERSED = (..., slice(None, None, -1))
_REVERSED2 = _REVERSED + (slice(None, None, -1),)


def permute_scenario(sc: Scenario) -> Scenario:
    """The scenario in the reversed component order v = P u, P the reversal
    of the component axis (the swap of the two components for n = 2).

    Every matrix coefficient h becomes P h P^T and the source P f, so every
    number a study prints must stay as it is, up to rounding, when its
    members are permuted too (`permute_member`).
    """
    def permuted(fld, index):
        if fld is None:
            return None
        return replace(fld, fn=lambda x, t: fld(x, t)[index],
                       label=f"permuted {fld.label}")

    return replace(sc, name=f"permuted {sc.name}",
                   h0=permuted(sc.h0, _REVERSED2),
                   h1=permuted(sc.h1, _REVERSED2), p=permuted(sc.p, _REVERSED2),
                   source=permuted(sc.source, _REVERSED))


def permute_member(u):
    """A member in the reversed component order: P u for an initial row
    (nx, n), a dense member or a separable one, whose x factor is
    permuted."""
    if isinstance(u, GridFunction):
        return GridFunction(u.grid, u.values[_REVERSED])
    if isinstance(u, SeparableGridFunction):
        return SeparableGridFunction(u.grid, u.x_factor[:, ::-1], u.t_factor)
    return np.asarray(u)[_REVERSED]


@pytest.fixture
def unit_grid():
    return SpaceTimeGrid(0.0, 1.0, 1.0, 101, 101)


def _gradient(v, axis: str, grid: SpaceTimeGrid):
    """np.gradient along "x" (axis 1) or "t" (axis 0), one-sided second
    order at both ends: the whole-grid difference of the reference defects."""
    if axis == "x":
        return np.gradient(v, grid.hx, axis=1, edge_order=2)
    return np.gradient(v, grid.ht, axis=0, edge_order=2)


def whole_grid_ibp_defect(w: GridFunction, sc: Scenario, axis: str) -> float:
    """`ibp_identity_defect` on the whole grid at once, end stencils and
    all, as it was before it ran in time blocks: the reference that the
    blocked defect must equal bit for bit."""
    rm = sc.samples.h1 if axis == "x" else sc.samples.h0

    def form(mats, vecs):
        return np.einsum("txab,txb,txa->tx", mats, vecs, w.values)

    defect = (form(rm, _gradient(w.values, axis, sc.grid))
              - 0.5 * _gradient(form(rm, w.values), axis, sc.grid))
    if axis == "x" or len(rm) > 1:
        defect += 0.5 * form(_gradient(rm, axis, sc.grid), w.values)
    interior = defect[:, 1:-1] if axis == "x" else defect[1:-1]
    return float(np.max(np.abs(interior)))


def whole_grid_conjugation_defect(u: GridFunction, sc: Scenario,
                                  s: float) -> float:
    """`conjugation_defect` on the whole grid at once, as it was before it
    ran in time blocks: the reference that the blocked defect must equal
    bit for bit."""
    grid = sc.grid
    wx, wt, _ = _gauge(sc, s)
    e = wt[:, None, None] * wx[:, None]
    w = e * u.values

    def commutator(axis, rate):
        c = _gradient(u.values, axis, grid)
        c *= e
        c -= _gradient(w, axis, grid)
        c += (s * rate) * w
        return c

    defect = _apply(sc.samples.h0, commutator("t", -sc.beta))
    defect += _apply(sc.samples.h1, commutator(
        "x", sc.eta.derivative(grid.x)[:, None]))
    return float(np.max(np.abs(defect[1:-1, 1:-1])))
