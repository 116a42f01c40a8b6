"""Explicit time stepper for the first-order system, plus its oracles.

The scheme is local Lax-Friedrichs (Rusanov) on the quasi-linear form with a
characteristic boundary closure: at each boundary node the state is split
along the generalized eigenvectors of (h1 * nu, h0); incoming characteristics
take the prescribed inflow data, outgoing ones are linearly extrapolated from
the two adjacent interior nodes.  First order, dissipative, and stable under
the usual Courant restriction on the fastest characteristic.

The scheme is linear, so `solve` builds it before the first step: the
interior update as a three-point block stencil stored as flat bands over
the flat state of a time row (`_interior_bands`), and the closure folded
into one (n, 2n) map per boundary node of its two neighbours.  A step is
then one banded product and two small matrix products.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CflViolationError, GridMismatchError
from .fields import (
    SIDES,
    GridFunction,
    Scenario,
    SpaceTimeGrid,
    _inverse_factor,
    _whiten,
    central_derivative,
    check_same_grid,
)

CFL_DEFAULT = 0.5

#: characteristics with |speed| below this are treated as non-propagating
SPEED_TOL = 1e-12

#: time rows banded at once when a coefficient depends on t; bounds the
#: stencil's memory to this many rows
BAND_ROWS = 64


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
    linv = _inverse_factor(h0b)
    lam, w = np.linalg.eigh(_whiten(linv, flux))
    vecs = np.swapaxes(linv, -1, -2) @ w
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


def _interior_bands(samples, start: int, stop: int, lam_c: float,
                    ht: float) -> np.ndarray:
    """The interior step of time rows start..stop-1 as flat bands.

    One step is u_i <- L_i u_{i-1} + D_i u_i + R_i u_{i+1} at every interior
    node i, with A = inv(h0) h1, lam_c = ht / (2 hx) and the Rusanov speeds
    a_l, a_r of the node's two interfaces:
    L = lam_c (A + a_l I), D = I - lam_c (a_r + a_l) I - ht inv(h0) p and
    R = lam_c (a_r I - A).  Output (i, c) of the flat state, r = i n + c,
    reads the flat window [r - 2n + 1, r + 2n), so its band row holds
    [L_c | D_c | R_c] at offset n - 1 - c of a zero row of width 4n - 1,
    and every diagonal entry falls in column n - 1, 2n - 1 or 3n - 1.
    A time-independent sample contributes its one row; the result has
    shape (rows, (nx - 2) n, 4n - 1) with rows 1 when nothing depends on t.
    """
    def rows(arr):
        return arr if len(arr) == 1 else arr[start:stop]

    inv_h0 = np.linalg.inv(rows(samples.h0)[:, 1:-1])
    coef = lam_c * (inv_h0 @ rows(samples.h1)[:, 1:-1])
    if samples.p is not None:
        low = ht * (inv_h0 @ rows(samples.p)[:, 1:-1])
    face = rows(samples.speeds)
    face = lam_c * np.maximum(face[:, :-1], face[:, 1:])
    lead = max(len(coef), len(face), 0 if samples.p is None else len(low))
    n = coef.shape[-1]
    band = np.zeros((lead,) + coef.shape[1:-1] + (4 * n - 1,))
    for c in range(n):
        band[..., c, n - 1 - c:2 * n - 1 - c] = coef[..., c, :]
        band[..., c, 3 * n - 1 - c:4 * n - 1 - c] = -coef[..., c, :]
        if samples.p is not None:
            band[..., c, 2 * n - 1 - c:3 * n - 1 - c] = -low[..., c, :]
    a_l, a_r = face[:, :-1, None], face[:, 1:, None]
    band[..., n - 1] += a_l
    band[..., 2 * n - 1] += 1.0 - (a_r + a_l)
    band[..., 3 * n - 1] += a_r
    return band.reshape(len(band), -1, 4 * n - 1)


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

    Each step is one banded product over the flat state of the previous
    time row (see `_interior_bands`), then the closure at the two boundary
    nodes as one (n, 2n) map each of the two adjacent nodes, plus the
    entering inflow data and ht inv(h0) source where they exist.  Static
    coefficients give one band row for the whole march; time-dependent
    ones are banded BAND_ROWS time rows at a time, so no stencil over all
    time rows is ever held.
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

    # 1 unless a coefficient depends on t
    rows = max(len(speeds), 1 if samples.p is None else len(samples.p))
    # the boundary flux has one distinct row when h0 and h1 have one
    flux = samples.flux[:, :len(speeds)]
    h0b = np.broadcast_to(np.stack([samples.h0[:, 0], samples.h0[:, -1]]),
                          flux.shape)
    p_out, p_in = _closure_projectors(flux, h0b)
    # u_b = P_out (2 u_1 - u_2) at x_lo and P_out (2 u_-2 - u_-3) at x_hi,
    # as maps of the two adjacent nodes' flat state
    eye = np.eye(n)
    closure = np.broadcast_to(
        np.stack([p_out[0] @ np.hstack([2.0 * eye, -eye]),
                  p_out[1] @ np.hstack([-eye, 2.0 * eye])]),
        (2, nt, n, 2 * n))
    # incoming part of the inflow data, (2, nt, n)
    entering = None if inflow is None else \
        (p_in @ _inflow_data(inflow, grid.t, n)[..., None])[..., 0]
    inv_h0 = None if scenario.source is None else \
        np.broadcast_to(np.linalg.inv(samples.h0[:, 1:-1]),
                        (nt, nx - 2, n, n))

    # the march lives in one flat buffer with n - 1 zeros on either side:
    # a window of width 4n - 1 around an interior output of row k reaches
    # n - 1 values into row k - 1 (or the front zeros) and into the
    # boundary node of row k + 1 (zero until closed), all under zero band
    # entries, so every window is a zero-copy view of the buffer
    width, size, inner = 4 * n - 1, nx * n, (nx - 2) * n
    buf = np.zeros(nt * size + 2 * (n - 1))
    u = buf[n - 1:n - 1 + nt * size].reshape(nt, nx, n)
    u[0] = _normalize_initial(initial, grid, n)
    flat = u.reshape(nt, size)
    windows = sliding_window_view(buf, width)
    lam_c = ht / (2.0 * hx)
    tgrid = grid.t

    block = BAND_ROWS if rows > 1 else nt - 1
    for start in range(0, nt - 1, block):
        stop = min(start + block, nt - 1)
        bands = np.broadcast_to(
            _interior_bands(samples, start, stop, lam_c, ht),
            (stop - start, inner, width))
        for step in range(start, stop):
            new = u[step + 1]
            interior = flat[step + 1, n:n + inner]
            np.einsum("rk,rk->r", bands[step - start],
                      windows[step * size:step * size + inner], out=interior)
            if inv_h0 is not None:
                force = scenario.source(grid.x, np.asarray(tgrid[step]))
                interior += ht * np.einsum("iab,ib->ia", inv_h0[step],
                                           force[1:-1]).ravel()
            # characteristic closure at both boundary nodes, at the new time
            np.dot(closure[0, step + 1], flat[step + 1, n:3 * n], out=new[0])
            np.dot(closure[1, step + 1], flat[step + 1, -3 * n:-n],
                   out=new[-1])
            if entering is not None:
                new[0] += entering[0, step + 1]
                new[-1] += entering[1, step + 1]

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
