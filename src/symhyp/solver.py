"""Explicit time stepper for the first-order system, plus its oracles.

The scheme is local Lax-Friedrichs (Rusanov) on the quasi-linear form with a
characteristic boundary closure: at each boundary node the state is split
along the generalized eigenvectors of (h1 * nu, h0); incoming characteristics
take the prescribed inflow data, outgoing ones are linearly extrapolated from
the two adjacent interior nodes.  First order, dissipative, and stable under
the usual Courant restriction on the fastest characteristic.

The scheme is linear, so `solve` builds it before the first step as one
linear map from a time row to the next: the interior update as a
three-point block stencil (`_interior_bands`), with the closure composed
into the bands of the boundary nodes (`_close_bands`).  Every node's band
reads the seven nodes around it.  A step is then one banded product over
zero-copy windows of the previous row, written straight into the next one;
the march buffer keeps zeros between time rows, so no window overlaps the
row being written.  The buffer is a ring of one block of rows, passed to an
observer block by block, so a study that needs only some numbers of each
row never holds the solution; a SolveResult is one such observer's copy.

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

from .errors import CflViolationError, GridError, GridMismatchError
from .fields import (
    ROW_BLOCK,
    SIDES,
    GridFunction,
    Scenario,
    SeparableGridFunction,
    SpaceTimeGrid,
    _apply,
    central_derivative,
    check_finite,
    check_same_grid,
    row_block,
)

CFL_DEFAULT = 0.5

#: the most time nodes a Courant bound may ask for.  Past it the time axis
#: alone outgrows 80 MB, and the bound of a huge coefficient (1e300, or an
#: infinite speed) would fail in allocation, so it is refused instead
MAX_TIME_NODES = 10**7


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


def _time_nodes(steps: float) -> float:
    """The one Courant count, of `admissible_time_nodes` and `solve`: the
    fewest nt >= 2 with nt - 1 >= steps - 1e-12, for the T alpha / (cfl_factor
    hx) steps of the bound at speed alpha; inf when steps is not finite."""
    return max(2, math.ceil(steps - 1e-12) + 1) if math.isfinite(steps) \
        else math.inf


def admissible_time_nodes(scenario: Scenario,
                          cfl_factor: float = CFL_DEFAULT) -> int:
    """Smallest nt honoring ht <= cfl_factor * hx / alpha on this grid;
    GridError when that is past MAX_TIME_NODES."""
    grid = scenario.grid
    alpha = max_char_speed(scenario)
    steps = grid.t_final * alpha / (cfl_factor * grid.hx)
    if not steps < MAX_TIME_NODES:
        raise GridError(f"the Courant bound at speed {alpha!r} needs "
                        f"{steps:.3e} time steps (at most {MAX_TIME_NODES})")
    return _time_nodes(steps)


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
                    ht: float, out: np.ndarray) -> np.ndarray:
    """The interior step of time rows start..stop-1 as bands, into out.

    One step is u_i <- L_i u_{i-1} + D_i u_i + R_i u_{i+1} at every interior
    node i, with A = inv(h0) h1, lam_c = ht / (2 hx) and the Rusanov speeds
    a_l, a_r of the node's two interfaces:
    L = lam_c (A + a_l I), D = I - lam_c (a_r + a_l) I - ht inv(h0) p and
    R = lam_c (a_r I - A).  Every output (i, c) reads the flat state of
    nodes i - 3 .. i + 3 of the previous row, wide enough for a boundary
    output to reach the fourth node in (see `_close_bands`), so the band of
    node i is (n, 7n) and holds [L | D | R] in columns 2n .. 5n - 1.  The
    boundary nodes' bands are left as they are.  out is (rows, nx, n, 7n)
    and every entry this writes is written for every block, so one zeroed
    buffer serves a whole march.  A time-independent sample contributes its
    one row; the result is out[:rows] with rows 1 when nothing depends on t.
    """
    h0, h1, face = row_block((samples.h0, samples.h1, samples.speeds),
                             start, stop)
    inv_h0 = np.linalg.inv(h0[:, 1:-1])
    coef = lam_c * (inv_h0 @ h1[:, 1:-1])
    low = None if samples.p is None else \
        ht * (inv_h0 @ row_block((samples.p,), start, stop)[0][:, 1:-1])
    face = lam_c * np.maximum(face[:, :-1], face[:, 1:])
    a_l, a_r = face[:, :-1], face[:, 1:]
    mid = 1.0 - (a_r + a_l)
    lead = max(len(coef), len(face), 0 if low is None else len(low))
    n = coef.shape[-1]
    band = out[:lead]
    inner = band[:, 1:-1]
    # one band column at a time: each write runs along every node and row
    for c in range(n):
        for k in range(n):
            inner[..., c, 2 * n + k] = coef[..., c, k]
            inner[..., c, 4 * n + k] = -coef[..., c, k]
            if low is not None:
                inner[..., c, 3 * n + k] = -low[..., c, k]
        inner[..., c, 2 * n + c] += a_l
        inner[..., c, 3 * n + c] = mid if low is None else mid - low[..., c, c]
        inner[..., c, 4 * n + c] += a_r
    return band


def _close_bands(bands: np.ndarray, fold: np.ndarray) -> None:
    """Write the boundary nodes' bands, the closure composed with the step.

    The closure sets u_b = F (u_1, u_2) at x_lo and u_b = F (u_-3, u_-2) at
    x_hi from the new values of the two adjacent interior nodes; fold holds
    F = P_out [2I, -I] and P_out [-I, 2I], (2, rows, n, 2n).  Those nodes'
    bands are maps of the previous row's four nodes nearest the boundary,
    so one batched matmul of F with them gives each boundary node's band
    over the same four nodes: columns 3n .. 7n - 1 at x_lo and 0 .. 4n - 1
    at x_hi.  bands is (rows, nx, n, 7n), as from `_interior_bands`.
    """
    n = fold.shape[-2]
    near = np.stack([
        np.concatenate([bands[:, 1, :, 2 * n:6 * n],
                        bands[:, 2, :, n:5 * n]], axis=1),
        np.concatenate([bands[:, -3, :, 2 * n:6 * n],
                        bands[:, -2, :, n:5 * n]], axis=1)])
    closed = fold @ near
    bands[:, 0, :, 3 * n:] = closed[0]
    bands[:, -1, :, :4 * n] = closed[1]


def solve(scenario: Scenario, initial, inflow: dict | None = None,
          cfl_factor: float = CFL_DEFAULT,
          observer=None) -> SolveResult | None:
    """March the system on the scenario grid.

    initial: array (nx, n) (or (nx,) for scalar systems) or callable of x.
    inflow: optional dict {"x_lo": fn, "x_hi": fn} of time functions giving
    the full state vector whose incoming characteristic part is imposed;
    each is evaluated at every time node before the march, and missing
    sides default to zero data.
    observer: optional callable observer(first, rows).  The march keeps a
    ring of ROW_BLOCK + 1 rows, the carried row and one block of new rows,
    passes time row 0 and then each block of new rows (time nodes first ..
    first + len(rows) - 1, a view the next block overwrites) to the
    observer, and returns None.  Without an observer, solve copies every
    block into the history of the SolveResult it returns.  A block holding
    a non-finite value is refused before any observer sees it, with the
    message of a GridFunction of the full history.

    The coefficients, the node speeds and the closure projectors are the
    scenario's sample set, shared by every call on the same scenario.
    Before the first step it refuses a grid of fewer than four space nodes
    (the closure extrapolates from two interior nodes per side), one where
    h0 fails to be positive definite at any node, then one whose time step
    violates the Courant bound at the fastest node of any time row.

    Each step is one banded product over the flat state of the previous
    time row: the interior stencil of `_interior_bands` with the closure
    composed into the boundary rows by `_close_bands`, so the new row,
    boundary nodes included, is one linear map of the old one.  The
    entering inflow data and ht inv(h0) source are added where they exist,
    the source's share of nodes 1, 2 and -3, -2 through the same closure
    map.  Bands are built at the start of a block: for static coefficients
    at the first block only, one row broadcast over every block; for
    time-dependent ones at every block, ROW_BLOCK time rows at a time, so
    no stencil over all time rows is ever held.
    """
    grid = scenario.grid
    n = scenario.n_comp
    nx, nt = grid.nx, grid.nt
    hx, ht = grid.hx, grid.ht
    samples = scenario.samples
    if nx < 4:
        raise GridError(f"the boundary closure extrapolates from two interior "
                        f"nodes per side: need nx >= 4 (got {nx})")

    speeds = samples.speeds
    alpha = float(speeds.max())
    cfl_used = alpha * ht / hx
    need = _time_nodes(grid.t_final * alpha / (cfl_factor * hx))
    if nt < need:
        x, t = grid.node_of(speeds, np.argmax)
        raise CflViolationError(
            f"time step ht={ht!r} violates the Courant bound "
            f"{cfl_factor!r}*hx/alpha with alpha={alpha!r} at x={x!r}, "
            f"t={t!r}; need nt >= {need}")

    # False when a coefficient depends on t
    static = max(len(speeds), 1 if samples.p is None else len(samples.p)) == 1
    p_out, p_in = samples.closure
    # u_b = P_out (2 u_1 - u_2) at x_lo and P_out (2 u_-2 - u_-3) at x_hi,
    # as maps of the two adjacent nodes' flat state
    eye = np.eye(n)
    fold = p_out @ np.stack([np.hstack([2.0 * eye, -eye]),
                             np.hstack([-eye, 2.0 * eye])])[:, None]
    # incoming part of the inflow data, (2, nt, n)
    entering = None if inflow is None else \
        (p_in @ _inflow_data(inflow, grid.t, n)[..., None])[..., 0]
    inv_h0 = None if scenario.source is None else \
        np.broadcast_to(np.linalg.inv(samples.h0[:, 1:-1]),
                        (nt, nx - 2, n, n))

    history = None
    if observer is None:
        history = np.empty((nt, nx, n))

        def observer(first, rows):
            history[first:first + len(rows)] = rows

    # the march lives in a flat ring of block + 1 time rows with 3n zeros
    # before every row and after the last: the nodes i - 3 .. i + 3 that
    # output node i of row k + 1 reads lie in row k and the zeros on either
    # side of it, so no step reads memory it writes, and every window and
    # every row is a zero-copy view of it
    block = min(ROW_BLOCK, nt - 1)
    size, stride, width = nx * n, (nx + 3) * n, 7 * n
    buf = np.zeros(3 * n + (block + 1) * stride)
    u = buf[3 * n:].reshape(block + 1, stride)[:, :size] \
        .reshape(block + 1, nx, n)
    u[0] = _normalize_initial(initial, grid, n)
    reads = sliding_window_view(buf, width)[:block * stride] \
        .reshape(block, stride, width)[:, :size:n]
    lam_c = ht / (2.0 * hx)
    tgrid = grid.t

    space = np.zeros((1 if static else block, nx, n, width))
    check_finite(u[:1])
    observer(0, u[:1])
    for start in range(0, nt - 1, block):
        stop = min(start + block, nt - 1)
        if start == 0 or not static:
            bands = _interior_bands(samples, start, stop, lam_c, ht, space)
            # the closure at the new time of each step
            _close_bands(bands, fold if fold.shape[1] == 1
                         else fold[:, start + 1:stop + 1])
        new = u[1:1 + stop - start]
        steps = np.broadcast_to(bands, (len(new),) + bands.shape[1:])
        for step, band, window, row in zip(range(start, stop), steps,
                                           reads, new):
            np.einsum("icq,iq->ic", band, window, out=row)
            if inv_h0 is not None:
                force = ht * _apply(inv_h0[step], scenario.source(
                    grid.x, np.asarray(tgrid[step]))[1:-1])
                row[1:-1] += force
                near = np.stack([force[:2].ravel(), force[-2:].ravel()])
                row[::nx - 1] += (fold[:, min(step + 1, fold.shape[1] - 1)]
                                  @ near[..., None])[..., 0]
            if entering is not None:
                row[::nx - 1] += entering[:, step + 1]
        check_finite(new, start + 1)
        observer(start + 1, new)
        u[0] = new[-1]

    if history is None:
        return None
    values = GridFunction(grid, history)
    return SolveResult(u=values, traces=values.boundary_columns(),
                       cfl_used=cfl_used, cfl_limit=cfl_factor)


def residual(u: GridFunction | SeparableGridFunction,
             scenario: Scenario) -> GridFunction | SeparableGridFunction:
    """Apply the discrete operator: h0 D_t u + h1 D_x u + p u.

    Derivatives are the second-order differences of `central_derivative`.
    Declaring the result as the source makes any smooth sample a valid
    solution (the manufactured-solution route).

    A separable u = X T^T on a scenario whose h0, h1 and p are all
    time-independent gives the separable source with x factor
    [h0 X | h1 D_x X + p X] and t factor [D_t T | T], twice u's rank; no
    full-grid array is formed.  Any other separable u is materialized first.
    """
    check_same_grid(u, scenario)
    samples = scenario.samples
    grid = scenario.grid
    if isinstance(u, SeparableGridFunction):
        if all(c is None or len(c) == 1
               for c in (samples.h0, samples.h1, samples.p)):
            ut = central_derivative(u, "t")
            flux = samples.h1[0] @ central_derivative(u, "x").x_factor
            if samples.p is not None:
                flux += samples.p[0] @ u.x_factor
            x_factor = np.concatenate([samples.h0[0] @ u.x_factor, flux],
                                      axis=2)
            return SeparableGridFunction(
                grid, x_factor, np.hstack([ut.t_factor, u.t_factor]))
        u = u.materialize()
    out = (_apply(samples.h0, central_derivative(u, "t").values)
           + _apply(samples.h1, central_derivative(u, "x").values))
    if samples.p is not None:
        out = out + _apply(samples.p, u.values)
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
