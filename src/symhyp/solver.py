"""Explicit time stepper for the first-order system, plus its oracles.

The scheme is local Lax-Friedrichs (Rusanov) on the quasi-linear form with a
characteristic boundary closure: at each boundary node the state is split
along the generalized eigenvectors of (h1 * nu, h0); incoming characteristics
take the prescribed inflow data, outgoing ones are linearly extrapolated from
the two adjacent interior nodes.  First order, dissipative, and stable under
the usual Courant restriction on the fastest characteristic.

The target inequalities quantify over solutions without any boundary
condition; a discrete marcher must impose some inflow closure, so solutions
generated here form a subfamily of that admissible set (the manufactured
route through `residual` has no such restriction).

`residual` applies the discrete operator to arbitrary samples, which turns
any smooth grid function into a manufactured solution; `exact_transport`
provides the constant-speed scalar analytic solution used as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, GridMismatchError, SingularCoefficientError
from .fields import (
    NORMALS,
    SIDES,
    GridFunction,
    Scenario,
    SpaceTimeGrid,
    central_derivative,
    check_same_grid,
    eig_bounds,
)

CFL_DEFAULT = 0.5

#: characteristics with |speed| below this are treated as non-propagating
SPEED_TOL = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Discrete solution with its boundary traces.

    traces has shape (2, nt, n) in SIDES order and equals the boundary
    columns of u exactly; cfl_used is the largest Courant number over the
    coefficient rows actually run, bounded by cfl_limit.
    """

    u: GridFunction
    traces: np.ndarray
    cfl_used: float
    cfl_limit: float
    scheme: str = "rusanov-characteristic"


def _whiten(h0m: np.ndarray, h1m: np.ndarray):
    """Cholesky whitening of the pencil (h1, h0) per node: (L, L^-1 h1 L^-T).

    h0 = L L^T, so the symmetric matrix returned has the generalized
    eigenvalues of (h1, h0).  h0 must already be checked positive definite.
    """
    chol = np.linalg.cholesky(h0m)
    y = np.linalg.solve(chol, h1m)
    return chol, np.linalg.solve(chol, np.swapaxes(y, -1, -2))


def _char_speeds(h0m: np.ndarray, h1m: np.ndarray) -> np.ndarray:
    """Largest |generalized eigenvalue| of (h1, h0) per node."""
    if h0m.shape[-1] == 1:
        return np.abs(h1m[..., 0, 0] / h0m[..., 0, 0])
    w = np.linalg.eigvalsh(_whiten(h0m, h1m)[1])
    return np.abs(w).max(axis=-1)


def _checked_speeds(h0m: np.ndarray, h1m: np.ndarray, x, t) -> np.ndarray:
    """Largest characteristic speed per node of sampled rows.

    x and t broadcast to the node axes of the samples.  Refuses, naming the
    node and the eigenvalue, when h0 is not positive definite somewhere.
    """
    lmin, _ = eig_bounds(h0m)
    if lmin.min() <= 0.0:
        k = np.unravel_index(int(np.argmin(lmin)), lmin.shape)
        xs, ts = np.broadcast_arrays(x, t)
        raise SingularCoefficientError(
            f"h0 is not positive definite at x={float(xs[k])}, "
            f"t={float(ts[k])} (lambda_min={lmin.min()!r})")
    return _char_speeds(h0m, h1m)


def max_char_speed(scenario: Scenario) -> float:
    """Fastest characteristic speed over all grid nodes."""
    grid = scenario.grid
    x = grid.x[None, :]
    static = scenario.h0.time_independent and scenario.h1.time_independent
    rows = grid.t[:1] if static else grid.t
    alpha = 0.0
    block = 256
    for start in range(0, len(rows), block):
        tb = rows[start:start + block, None]
        speeds = _checked_speeds(scenario.h0(x, tb), scenario.h1(x, tb), x, tb)
        alpha = max(alpha, float(speeds.max()))
    return alpha


def admissible_time_nodes(scenario: Scenario,
                          cfl_factor: float = CFL_DEFAULT) -> int:
    """Smallest nt honoring ht <= cfl_factor * hx / alpha on this grid."""
    grid = scenario.grid
    alpha = max_char_speed(scenario)
    if alpha == 0.0:
        return 2
    steps = math.ceil(grid.t_final * alpha / (cfl_factor * grid.hx) - 1e-12)
    return max(2, steps + 1)


def auto_time_nodes(scenario: Scenario,
                    cfl_factor: float = CFL_DEFAULT) -> int:
    """nt that the marcher accepts on the scenario's x grid and horizon.

    The Courant bound of a grid depends on the speeds at its own time nodes,
    so admissible_time_nodes is recomputed on each candidate grid, starting
    from nt=2 (t=0 and t=T only), until nt stops growing.  Static
    coefficients settle after one step.
    """
    grid = scenario.grid
    nt = 2
    while True:
        candidate = scenario.with_grid(SpaceTimeGrid(
            grid.x_lo, grid.x_hi, grid.t_final, grid.nx, nt))
        need = admissible_time_nodes(candidate, cfl_factor)
        if need <= nt:
            return nt
        nt = need


def _closure_projectors(flux: np.ndarray, h0b: np.ndarray):
    """Characteristic closure at one boundary node as (P_out, P_in).

    With the generalized eigenbasis V of (flux, h0b), V.T @ h0b @ V = I,
    taken as V = L^-T W from the eigenvectors W of the whitened pencil, the
    closed boundary state is u_b = P_out @ extrap + P_in @ g: outgoing and
    non-propagating characteristics keep the extrapolated state, incoming
    ones take the inflow data g.  P_in is None when nothing enters.
    """
    chol, sym = _whiten(h0b, flux)
    lam, w = np.linalg.eigh(sym)
    vecs = np.linalg.solve(chol.T, w)
    incoming = lam < -SPEED_TOL
    v_out, v_in = vecs[:, ~incoming], vecs[:, incoming]
    p_out = v_out @ (v_out.T @ h0b)
    p_in = v_in @ (v_in.T @ h0b) if incoming.any() else None
    return p_out, p_in


class _Row:
    """Everything one marcher step needs from the coefficients at time trow.

    h1, inv(h0) and p on the row; the row's Courant number cfl; the Rusanov
    interface speeds a_r, a_l of the interior nodes; and per side the
    closure projectors (P_out, P_in).  Refuses a row where h0 is not
    positive definite or whose fastest speed breaks the Courant bound.
    """

    def __init__(self, scenario: Scenario, trow: float, cfl_factor: float):
        grid = scenario.grid
        x = grid.x
        tval = np.asarray(trow)
        h0 = scenario.h0(x, tval)
        self.h1 = scenario.h1(x, tval)
        speeds = _checked_speeds(h0, self.h1, x, tval)
        fast = int(np.argmax(speeds))
        alpha = float(speeds[fast])
        self.cfl = alpha * grid.ht / grid.hx
        if self.cfl > cfl_factor * (1 + 1e-12):
            raise CflViolationError(
                f"time step ht={grid.ht!r} violates the Courant bound "
                f"{cfl_factor!r}*hx/alpha with alpha={alpha!r} at "
                f"x={float(x[fast])!r}, t={float(trow)!r}; "
                f"need nt >= {admissible_time_nodes(scenario, cfl_factor)}")
        self.inv_h0 = np.linalg.inv(h0)
        self.p = scenario.p(x, tval) if scenario.p is not None else None
        self.a_r = np.maximum(speeds[1:-1], speeds[2:])[:, None]
        self.a_l = np.maximum(speeds[:-2], speeds[1:-1])[:, None]
        self.closure = {
            side: _closure_projectors(NORMALS[side] * self.h1[ib], h0[ib])
            for side, ib in zip(SIDES, (0, -1))}


def _normalize_initial(initial, grid: SpaceTimeGrid, n_comp: int) -> np.ndarray:
    if callable(initial):
        initial = initial(grid.x)
    arr = np.asarray(initial, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != (grid.nx, n_comp):
        raise GridMismatchError(
            f"initial data shape {arr.shape} != (nx, n) = ({grid.nx}, {n_comp})")
    return arr


def _inflow_value(inflow, side: str, tval: float, n_comp: int) -> np.ndarray:
    if inflow is None:
        return np.zeros(n_comp)
    fn = inflow.get(side)
    if fn is None:
        return np.zeros(n_comp)
    return np.broadcast_to(np.asarray(fn(tval), dtype=float), (n_comp,))


def solve(scenario: Scenario, initial, inflow: dict | None = None,
          cfl_factor: float = CFL_DEFAULT) -> SolveResult:
    """March the system on the scenario grid.

    initial: array (nx, n) (or (nx,) for scalar systems) or callable of x.
    inflow: optional dict {"x_lo": fn, "x_hi": fn} of time functions giving
    the full state vector whose incoming characteristic part is imposed;
    missing sides default to zero data.

    Refuses to run when the grid time step violates the Courant bound, and
    when h0 fails to be positive definite at any sampled node; both are
    checked on each coefficient row as it is built, so a time-dependent
    violation can surface partway through the march.
    """
    grid = scenario.grid
    n = scenario.n_comp
    nx, nt = grid.nx, grid.nt
    hx, ht = grid.hx, grid.ht

    # the one place that decides which coefficient row each step sees
    static = (scenario.h0.time_independent and scenario.h1.time_independent
              and (scenario.p is None or scenario.p.time_independent))
    if static:
        rows = itertools.repeat(_Row(scenario, 0.0, cfl_factor), nt)
    else:
        rows = (_Row(scenario, tv, cfl_factor) for tv in grid.t)

    u = np.empty((nt, nx, n))
    u[0] = _normalize_initial(initial, grid, n)
    tgrid = grid.t
    lam_c = ht / (2.0 * hx)
    cfl_used = 0.0

    for step, (row, nxt) in enumerate(itertools.pairwise(rows)):
        cfl_used = max(cfl_used, row.cfl, nxt.cfl)
        tn = float(tgrid[step])
        tn1 = float(tgrid[step + 1])
        un = u[step]

        # interior: central transport + Rusanov dissipation + lower order
        rhs = np.einsum("iab,ib->ia", row.h1[1:-1], un[2:] - un[:-2]) / (2 * hx)
        if row.p is not None:
            rhs = rhs + np.einsum("iab,ib->ia", row.p[1:-1], un[1:-1])
        if scenario.source is not None:
            rhs = rhs - scenario.source(grid.x, np.asarray(tn))[1:-1]
        upd = un[1:-1] - ht * np.einsum("iab,ib->ia", row.inv_h0[1:-1], rhs)
        upd = upd + lam_c * (row.a_r * (un[2:] - un[1:-1])
                             - row.a_l * (un[1:-1] - un[:-2]))
        u[step + 1, 1:-1] = upd

        # characteristic closure at both boundary nodes, at the new time
        un1 = u[step + 1]
        for side, (ib, i1, i2) in zip(SIDES, ((0, 1, 2), (-1, -2, -3))):
            p_out, p_in = nxt.closure[side]
            ub = p_out @ (2.0 * un1[i1] - un1[i2])
            if p_in is not None:
                ub = ub + p_in @ _inflow_value(inflow, side, tn1, n)
            un1[ib] = ub

    traces = np.stack([u[:, 0, :], u[:, -1, :]])
    return SolveResult(u=GridFunction(grid, u), traces=traces,
                       cfl_used=cfl_used, cfl_limit=cfl_factor)


def residual(u: GridFunction, scenario: Scenario) -> GridFunction:
    """Apply the discrete operator: h0 D_t u + h1 D_x u + p u.

    Derivatives are the second-order differences of `central_derivative`.
    Declaring the result as the source makes any smooth sample a valid
    solution (the manufactured-solution route).
    """
    check_same_grid(u, scenario)
    samples = scenario.samples
    grid = scenario.grid
    ut = central_derivative(u.values, "t", grid)
    ux = central_derivative(u.values, "x", grid)
    out = (np.einsum("txab,txb->txa", samples.h0, ut)
           + np.einsum("txab,txb->txa", samples.h1, ux))
    if samples.p is not None:
        out = out + np.einsum("txab,txb->txa", samples.p, u.values)
    return GridFunction(grid, out)


def exact_transport(speed: float, profile, grid: SpaceTimeGrid,
                    inflow=None) -> GridFunction:
    """Constant-speed scalar transport solution u(x, t) = u0(x - c t).

    Where the backward characteristic exits the domain before time 0, the
    value is taken from the inflow time series at the entry boundary
    (zero when no inflow is given).  profile and inflow must accept arrays.
    """
    x, t = grid.meshgrid()
    if speed == 0.0:
        vals = np.broadcast_to(np.asarray(profile(x), dtype=float), grid.shape)
        return GridFunction(grid, np.array(vals)[..., None])
    y = x - speed * t
    if speed > 0:
        inside = y >= grid.x_lo
        tau = t - (x - grid.x_lo) / speed
    else:
        inside = y <= grid.x_hi
        tau = t - (x - grid.x_hi) / speed
    py = np.asarray(profile(np.clip(y, grid.x_lo, grid.x_hi)), dtype=float)
    py = np.broadcast_to(py, inside.shape)
    if inflow is None:
        bv = np.zeros(inside.shape)
    else:
        bv = np.broadcast_to(
            np.asarray(inflow(np.maximum(tau, 0.0)), dtype=float), inside.shape)
    vals = np.where(inside, py, bv)
    return GridFunction(grid, vals[..., None])
