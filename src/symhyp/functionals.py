"""Weighted space-time functionals and discrete identity defects.

All integrals use the trapezoid rule on the scenario grid, including the
two-point boundary "integrals" of the 1D setting (a sum over the endpoints,
integrated in time by trapezoid).  Exponential weights are evaluated in the
max-phi gauge: every integrand carries exp(2*s*(phi - max phi)), which keeps
doubles finite for large s; both sides of the target inequality scale by the
same factor, so ratios are unaffected and the divided-out exponent is
recorded on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldEvaluationError
from .fields import (
    GridFunction,
    Scenario,
    SeparableGridFunction,
    _apply,
    central_derivative,
    check_same_grid,
)
from .hypotheses import weight_matrix
from .solver import SolveResult, _principal


@dataclass(frozen=True)
class CarlemanTerms:
    """The six weighted integrals of the main estimate at one s.

    Left side: the initial-time quadratic form, the s^2-weighted volume
    norm, and the absolute flux over the minus-classified boundary.  Right
    side: the source norm, the complementary boundary norm, and the
    final-time quadratic form.  Values are in the max-phi gauge; log_scale
    is the natural log of the divided-out factor exp(2 s max phi).
    """

    s: float
    lhs_initial: float
    lhs_volume: float
    lhs_gamma_minus: float
    rhs_source: float
    rhs_gamma_rest: float
    rhs_terminal: float
    log_scale: float

    @property
    def lhs_total(self) -> float:
        return self.lhs_initial + self.lhs_volume + self.lhs_gamma_minus

    @property
    def rhs_total(self) -> float:
        return self.rhs_source + self.rhs_gamma_rest + self.rhs_terminal

    def as_tuple(self) -> tuple[float, ...]:
        return (self.lhs_initial, self.lhs_volume, self.lhs_gamma_minus,
                self.rhs_source, self.rhs_gamma_rest, self.rhs_terminal)


def trapezoid(y, x=None, dx: float = 1.0):
    """Trapezoid rule along the last axis, on the nodes `x` or at spacing dx."""
    d = dx if x is None else np.diff(x)
    return np.sum(d * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of a series on the nodes x, from 0."""
    return np.concatenate(
        ([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Node weights of the trapezoid rule on n nodes at spacing h."""
    q = np.full(n, h)
    q[[0, -1]] *= 0.5
    return q


def _quad_form(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(M v . v) over matching leading axes, as two two-operand
    contractions: M v first, then its dot product with v."""
    return np.einsum("...a,...a->...", _apply(mats, vecs), vecs)


def carleman_terms(u: GridFunction | SeparableGridFunction,
                   source: GridFunction | SeparableGridFunction,
                   scenario: Scenario, s: float) -> CarlemanTerms:
    """Evaluate all six weighted integrals for one sample and one s.

    u and source may each be dense or separable: each gives its own
    weighted volume norm, time rows and boundary columns, so a separable
    one is never materialized.  The gauged weight is a product wx(x) wt(t),
    and the trapezoid rule in (x, t) is a product of node weights, so every
    volume norm is one weighted sum (a Gram trace for separable data).
    Boundary quadratures include a node only when its class at that time
    matches the set being integrated; the complement of the minus set takes
    both PLUS and NEITHER nodes.
    """
    check_same_grid(u, scenario)
    check_same_grid(source, scenario)
    samples = scenario.samples
    grid = scenario.grid
    hx = grid.hx
    t = grid.t

    # phi = eta(x) - beta t with beta >= 0 peaks at t = 0, so the gauged
    # weight exp(2 s (phi - max phi)) is the product wx(x) wt(t)
    eta = scenario.eta(grid.x)
    phi_max = float(eta.max())
    wx = np.exp(2.0 * s * (eta - phi_max))
    wt = np.exp(-2.0 * s * scenario.beta * t)

    with np.errstate(over="ignore", invalid="ignore"):
        lhs_initial = s * trapezoid(
            _quad_form(samples.h0[0], u.time_row(0)) * wx, dx=hx)
        rhs_terminal = s * trapezoid(
            _quad_form(samples.h0[-1], u.time_row(-1)) * (wx * wt[-1]), dx=hx)

        qwx = _trapezoid_weights(grid.nx, hx) * wx
        qwt = _trapezoid_weights(grid.nt, grid.ht) * wt
        lhs_volume = s * s * u.weighted_norm(qwx, qwt)
        rhs_source = source.weighted_norm(qwx, qwt)

        # x_lo and x_hi columns, SIDES first like the samples: (2, nt, ...)
        ub = u.boundary_columns()
        wb = wx[[0, -1], None] * wt
        flux = np.abs(_quad_form(samples.flux, ub))
        rest = np.sum(ub ** 2, axis=-1) * wb
        lhs_gamma_minus = np.sum(
            s * trapezoid(np.where(samples.minus, flux * wb, 0.0), t))
        rhs_gamma_rest = np.sum(
            s * trapezoid(np.where(samples.minus, 0.0, rest), t))

    return CarlemanTerms(
        s=float(s),
        lhs_initial=float(lhs_initial),
        lhs_volume=float(lhs_volume),
        lhs_gamma_minus=float(lhs_gamma_minus),
        rhs_source=float(rhs_source),
        rhs_gamma_rest=float(rhs_gamma_rest),
        rhs_terminal=float(rhs_terminal),
        log_scale=2.0 * s * phi_max,
    )


def _ratio(num: float, den: float) -> float:
    """num / den by the rule of every study's ratio: a term that is not
    finite (member data whose squares overflow) is refused, so nan means
    0/0 only, a degenerate member that every maximum skips; x/0 is inf,
    the witness of a violation."""
    if not (math.isfinite(num) and math.isfinite(den)):
        raise FieldEvaluationError(f"non-finite member norms {num!r}, {den!r}")
    if den == 0.0:
        return math.nan if num == 0.0 else math.inf
    return num / den


def carleman_ratio(terms: CarlemanTerms) -> float:
    """Left-over-right ratio of the six-term estimate.

    The estimate asserts this stays below max(C, 1) beyond some s threshold.
    """
    return _ratio(terms.lhs_total, terms.rhs_total)


@dataclass(frozen=True)
class EnergyLedger:
    """Unweighted energy balance entries of the a-priori estimate.

    energy[n] is the squared spatial norm at time node n; lemma_lhs adds the
    running outflow through the plus-classified boundary; rhs_core is the
    initial energy plus the full-horizon trace norm over the complement.
    """

    times: np.ndarray
    energy: np.ndarray
    lemma_lhs: np.ndarray
    rhs_core: float

    @property
    def max_ratio(self) -> float:
        return _ratio(float(np.max(self.lemma_lhs)), self.rhs_core)


def _row_energies(rows: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Squared norm of each (nx, n) time row under the x weights wx."""
    return np.einsum("txc,x,txc->t", rows, wx, rows)


def _ledger(scenario: Scenario, energy: np.ndarray,
            ub: np.ndarray) -> EnergyLedger:
    """The ledger of the row energies and the (2, nt, n) boundary traces."""
    samples = scenario.samples
    t = scenario.grid.t
    with np.errstate(over="ignore", invalid="ignore"):
        flux = _quad_form(samples.flux, ub)
        outflow = np.sum(np.where(samples.plus, flux, 0.0), axis=0)
        rest = np.sum(np.where(samples.plus, 0.0, np.sum(ub ** 2, axis=-1)),
                      axis=0)
        cum_out = cumulative_trapezoid(outflow, t)
        return EnergyLedger(times=t, energy=energy,
                            lemma_lhs=energy + cum_out,
                            rhs_core=float(energy[0] + trapezoid(rest, t)))


def energy_ledger(u, scenario: Scenario) -> EnergyLedger:
    """Assemble the energy balance for a solution sample.

    Accepts a SolveResult or a bare GridFunction.  The energy of every time
    row is one pass over the samples, with the trapezoid rule in x as a
    weight vector, so no temporary of the solution's size exists in any
    memory layout.  It reads only those energies and the boundary traces,
    so a march observed by `MarchRecord(energy=True)` gives the same
    ledger, bit for bit, without holding the solution; this dense form is
    its oracle.
    """
    if isinstance(u, SolveResult):
        u = u.u
    check_same_grid(u, scenario)
    grid = scenario.grid
    energy = _row_energies(u.values, _trapezoid_weights(grid.nx, grid.hx))
    return _ledger(scenario, energy, u.boundary_columns())


def _trace_ratio(grid, initial: np.ndarray, traces: np.ndarray) -> float:
    """Norm of the initial row over the norm of the (2, nt, n) traces."""
    with np.errstate(over="ignore", invalid="ignore"):
        num = math.sqrt(trapezoid(np.sum(initial ** 2, axis=-1), dx=grid.hx))
        den = math.sqrt(np.sum(trapezoid(np.sum(traces ** 2, axis=-1),
                                         dx=grid.ht)))
    return _ratio(num, den)


def observability_ratio(result: SolveResult) -> float:
    """Initial-data norm over boundary-trace norm.

    inf is the witness of a vanishing trace with nonzero initial data
    (observability failure).  It reads only the initial row and the
    traces, which `MarchRecord` keeps.
    """
    return _trace_ratio(result.u.grid, result.u.values[0], result.traces)


class MarchRecord:
    """What the energy ledger and the observability ratio read of a march,
    kept as `solve` passes it each block of time rows (its observer).

    It keeps the initial row, both boundary traces, (2, nt, n) in SIDES
    order, and with energy=True the energy of every time row, so neither
    study holds a solution.  `ledger` and `observability_ratio` assemble
    them through the code of the dense `energy_ledger` and
    `observability_ratio`, with the same arithmetic on every number.
    """

    def __init__(self, scenario: Scenario, energy: bool = False):
        grid = self.grid = scenario.grid
        self.scenario = scenario
        self.initial = None
        self.traces = np.empty((2, grid.nt, scenario.n_comp))
        self.energy = np.empty(grid.nt) if energy else None
        self._wx = _trapezoid_weights(grid.nx, grid.hx)

    def __call__(self, first: int, rows: np.ndarray) -> None:
        """Keep what is needed of time rows first .. first + len(rows) - 1."""
        if first == 0:
            self.initial = rows[0].copy()
        stop = first + len(rows)
        self.traces[:, first:stop] = np.swapaxes(
            rows[:, ::self.grid.nx - 1], 0, 1)
        if self.energy is not None:
            self.energy[first:stop] = _row_energies(rows, self._wx)

    def ledger(self) -> EnergyLedger:
        return _ledger(self.scenario, self.energy, self.traces)

    def observability_ratio(self) -> float:
        return _trace_ratio(self.grid, self.initial, self.traces)


# ---------------------------------------------------------------------------
# discrete identity defects
# ---------------------------------------------------------------------------

def ibp_identity_defect(w: GridFunction, scenario: Scenario,
                        axis: str) -> float:
    """Defect of the symmetric-matrix product-rule identity.

    Measures max over interior nodes of
    (R dw . w) - 1/2 d(R w . w) + 1/2 ((dR) w . w), with R the samples of
    h1 along "x" and of h0 along "t", and every derivative the second-order
    central difference along `axis`.  A one-row R has no dR along t.
    Second-order small for smooth data, and exactly zero only in
    degenerate cases.
    """
    check_same_grid(w, scenario)
    grid = scenario.grid
    rm = scenario.samples.h1 if axis == "x" else scenario.samples.h0
    dw = central_derivative(w.values, axis, grid)
    # the defect cancels O(1) terms down to O(h^2), so it reads their last
    # bits: all three forms keep one three-operand contraction
    def form(mats, vecs):
        return np.einsum("txab,txb,txa->tx", mats, vecs, w.values)

    dquad = central_derivative(form(rm, w.values), axis, grid)
    defect = form(rm, dw) - 0.5 * dquad
    if axis == "x" or len(rm) > 1:
        defect += 0.5 * form(central_derivative(rm, axis, grid), w.values)
    interior = defect[:, 1:-1] if axis == "x" else defect[1:-1]
    return float(np.max(np.abs(interior)))


def conjugation_defect(u: GridFunction, scenario: Scenario, s: float) -> float:
    """Defect between the conjugated discrete operator and its closed form.

    Compares exp(s phi) L_d(exp(-s phi) w) against
    h0 D_t w + h1 D_x w - s A w with A = (d_t phi) h0 + (d_x phi) h1 and
    w = exp(s phi) u, everything in the max-phi gauge.  The zero-order
    coefficient is excluded: it commutes with the conjugation exactly.
    Max over nodes interior in both directions.
    """
    check_same_grid(u, scenario)
    samples = scenario.samples
    grid = scenario.grid
    x, t = grid.meshgrid()
    phi = scenario.eta(x) - scenario.beta * t
    shift = phi - phi.max()
    egrow = np.exp(s * shift)[..., None]
    edecay = np.exp(-s * shift)[..., None]
    w = egrow * u.values
    lhs = egrow * _principal(samples, edecay * w, grid)
    rhs = (_principal(samples, w, grid)
           - s * _apply(weight_matrix(scenario, samples.h0, samples.h1), w))

    return float(np.max(np.abs((lhs - rhs)[1:-1, 1:-1])))
