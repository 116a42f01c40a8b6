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

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, GridMismatchError
from .fields import (
    SIDES,
    GridFunction,
    Scenario,
    SpaceTimeGrid,
    _whiten,
    central_derivative,
    check_same_grid,
)

CFL_DEFAULT = 0.5

#: characteristics with |speed| below this are treated as non-propagating
SPEED_TOL = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Discrete solution with its boundary traces.

    traces has shape (2, nt, n) in SIDES order and equals the boundary
    columns of u exactly; cfl_used is the largest Courant number over all
    grid nodes, bounded by cfl_limit.
    """

    u: GridFunction
    traces: np.ndarray
    cfl_used: float
    cfl_limit: float
    scheme: str = "rusanov-characteristic"


def max_char_speed(scenario: Scenario) -> float:
    """Fastest characteristic speed over all grid nodes."""
    return float(scenario.samples.speeds.max())


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
                    cfl_factor: float = CFL_DEFAULT) -> Scenario:
    """The scenario on the first grid, from its own nt upward, whose time
    step the marcher accepts, with its samples and node speeds filled.

    The Courant bound of a grid depends on the speeds at its own time nodes,
    so admissible_time_nodes is recomputed on each candidate grid until nt
    stops growing; from nt=2 (t=0 and t=T only), static coefficients settle
    after one step.
    """
    grid = scenario.grid
    while True:
        need = admissible_time_nodes(scenario, cfl_factor)
        if need <= scenario.grid.nt:
            return scenario
        scenario = scenario.with_grid(SpaceTimeGrid(
            grid.x_lo, grid.x_hi, grid.t_final, grid.nx, need))


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
    chol, sym = _whiten(h0b, flux)
    lam, w = np.linalg.eigh(sym)
    vecs = np.linalg.solve(np.swapaxes(chol, -1, -2), w)
    incoming = (lam < -SPEED_TOL)[..., None, :]
    v_out = np.where(incoming, 0.0, vecs)
    v_in = np.where(incoming, vecs, 0.0)
    return (v_out @ (np.swapaxes(v_out, -1, -2) @ h0b),
            v_in @ (np.swapaxes(v_in, -1, -2) @ h0b))


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


def _inflow_data(inflow, t: np.ndarray, n_comp: int) -> np.ndarray:
    """Prescribed boundary states at every time node, (2, nt, n) in SIDES
    order; zero on a side without an inflow function."""
    g = np.zeros((2, len(t), n_comp))
    for k, side in enumerate(SIDES):
        fn = None if inflow is None else inflow.get(side)
        if fn is not None:
            g[k] = [np.broadcast_to(np.asarray(fn(float(tv)), dtype=float),
                                    (n_comp,)) for tv in t]
    return g


def solve(scenario: Scenario, initial, inflow: dict | None = None,
          cfl_factor: float = CFL_DEFAULT) -> SolveResult:
    """March the system on the scenario grid.

    initial: array (nx, n) (or (nx,) for scalar systems) or callable of x.
    inflow: optional dict {"x_lo": fn, "x_hi": fn} of time functions giving
    the full state vector whose incoming characteristic part is imposed;
    each is evaluated at every time node before the march, and missing
    sides default to zero data.

    The coefficients and the node speeds are the scenario's sample set,
    shared by every call on the same scenario.  Before the first step it
    refuses a grid where h0 fails to be positive definite at any node, then
    one whose time step violates the Courant bound at the fastest node of
    any time row.
    """
    grid = scenario.grid
    n = scenario.n_comp
    nx, nt = grid.nx, grid.nt
    hx, ht = grid.hx, grid.ht
    samples = scenario.samples

    speeds = samples.speeds
    fast = np.unravel_index(int(np.argmax(speeds)), speeds.shape)
    alpha = float(speeds[fast])
    cfl_used = alpha * ht / hx
    if cfl_used > cfl_factor * (1 + 1e-12):
        raise CflViolationError(
            f"time step ht={ht!r} violates the Courant bound "
            f"{cfl_factor!r}*hx/alpha with alpha={alpha!r} at "
            f"x={float(grid.x[fast[1]])!r}, t={float(grid.t[fast[0]])!r}; "
            f"need nt >= {admissible_time_nodes(scenario, cfl_factor)}")

    def steps(arr):
        # one entry per time node; a time-independent sample holds one row
        return np.broadcast_to(arr, (nt,) + arr.shape[1:])

    rows = len(speeds)  # 1 unless h0 or h1 depends on t
    # Rusanov speed at every interface; a_r and a_l view its two sides
    iface = steps(np.maximum(speeds[:, :-1], speeds[:, 1:])[..., None])
    a_r, a_l = iface[:, 1:], iface[:, :-1]
    h1 = steps(samples.h1)[:, 1:-1]
    inv_h0 = steps(np.linalg.inv(samples.h0))[:, 1:-1]
    p = None if samples.p is None else steps(samples.p)[:, 1:-1]
    # the boundary flux has one distinct row when h0 and h1 have one
    flux = samples.flux[:, :rows]
    h0b = np.broadcast_to(np.stack([samples.h0[:, 0], samples.h0[:, -1]]),
                          flux.shape)
    p_out, p_in = (np.broadcast_to(pr, (2, nt, n, n))
                   for pr in _closure_projectors(flux, h0b))
    # incoming part of the inflow data, (2, nt, n)
    entering = (p_in @ _inflow_data(inflow, grid.t, n)[..., None])[..., 0]

    u = np.empty((nt, nx, n))
    u[0] = _normalize_initial(initial, grid, n)
    tgrid = grid.t
    lam_c = ht / (2.0 * hx)

    for step in range(nt - 1):
        tn = float(tgrid[step])
        un = u[step]

        # interior: central transport + Rusanov dissipation + lower order
        rhs = np.einsum("iab,ib->ia", h1[step], un[2:] - un[:-2]) / (2 * hx)
        if p is not None:
            rhs = rhs + np.einsum("iab,ib->ia", p[step], un[1:-1])
        if scenario.source is not None:
            rhs = rhs - scenario.source(grid.x, np.asarray(tn))[1:-1]
        upd = un[1:-1] - ht * np.einsum("iab,ib->ia", inv_h0[step], rhs)
        upd = upd + lam_c * (a_r[step] * (un[2:] - un[1:-1])
                             - a_l[step] * (un[1:-1] - un[:-2]))
        u[step + 1, 1:-1] = upd

        # characteristic closure at both boundary nodes, at the new time
        un1 = u[step + 1]
        for k, (ib, i1, i2) in enumerate(((0, 1, 2), (-1, -2, -3))):
            un1[ib] = (p_out[k, step + 1] @ (2.0 * un1[i1] - un1[i2])
                       + entering[k, step + 1])

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
