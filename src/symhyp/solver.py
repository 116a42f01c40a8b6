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

from .errors import CflViolationError, GridMismatchError, SingularCoefficientError
from .fields import (
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
    columns of u exactly; cfl_used is the largest Courant number over all
    grid nodes, bounded by cfl_limit.
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


def _node_speeds(scenario: Scenario) -> np.ndarray:
    """Largest characteristic speed at every sampled node, (rows, nx).

    rows is 1 when h0 and h1 are both sampled on one time row, nt otherwise.
    Refuses, naming the node and the eigenvalue, when h0 is not positive
    definite somewhere.
    """
    grid = scenario.grid
    samples = scenario.samples
    lmin, _ = eig_bounds(samples.h0)
    if lmin.min() <= 0.0:
        n, i = np.unravel_index(int(np.argmin(lmin)), lmin.shape)
        raise SingularCoefficientError(
            f"h0 is not positive definite at x={float(grid.x[i])}, "
            f"t={float(grid.t[n])} (lambda_min={lmin.min()!r})")
    h0, h1 = np.broadcast_arrays(samples.h0, samples.h1)
    speeds = np.empty(h0.shape[:2])
    # whitening a block of rows at a time bounds its temporaries
    block = 256
    for k in range(0, len(speeds), block):
        speeds[k:k + block] = _char_speeds(h0[k:k + block], h1[k:k + block])
    return speeds


def max_char_speed(scenario: Scenario) -> float:
    """Fastest characteristic speed over all grid nodes."""
    return float(_node_speeds(scenario).max())


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

    The coefficients are the scenario's validated samples.  Before the
    first step it refuses a grid where h0 fails to be positive definite at
    any node, then one whose time step violates the Courant bound at the
    fastest node of any time row.
    """
    grid = scenario.grid
    n = scenario.n_comp
    nx, nt = grid.nx, grid.nt
    hx, ht = grid.hx, grid.ht
    samples = scenario.samples

    speeds = _node_speeds(scenario)
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
    del speeds  # the march needs only the interface speeds
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
