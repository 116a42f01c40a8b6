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
from scipy.integrate import cumulative_trapezoid, trapezoid

from .errors import GridMismatchError
from .fields import (
    SIDES,
    GridFunction,
    MatrixField,
    Scenario,
    central_derivative,
    sample_field,
)
from .hypotheses import (
    BoundaryLabel,
    boundary_flux,
    classify_boundary_series,
    weight_matrix,
)
from .solver import SolveResult


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


def _quad_form(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(M v . v) over matching leading axes."""
    return np.einsum("...ab,...b,...a->...", mats, vecs, vecs)


def _check_same_grid(u: GridFunction, scenario: Scenario) -> None:
    if u.grid != scenario.grid:
        raise GridMismatchError("grid function lives on a different grid")
    if u.n_comp != scenario.n_comp:
        raise GridMismatchError(
            f"component count {u.n_comp} != scenario size {scenario.n_comp}")


def carleman_terms(u: GridFunction, source: GridFunction, scenario: Scenario,
                   s: float, labels: np.ndarray | None = None) -> CarlemanTerms:
    """Evaluate all six weighted integrals for one sample and one s.

    `labels` is the per-(side, time) boundary classification; it is computed
    from the scenario when omitted.  Boundary quadratures include a node only
    when its label at that time matches the set being integrated; the
    complement of the minus set takes both PLUS and NEITHER labels.
    """
    _check_same_grid(u, scenario)
    _check_same_grid(source, scenario)
    if labels is None:
        labels = classify_boundary_series(scenario)
    grid = scenario.grid
    hx, ht = grid.hx, grid.ht
    t = grid.t

    phi = scenario.phi_grid()
    phi_max = float(phi.max())
    weight = np.exp(2.0 * s * (phi - phi_max))

    x_row = grid.x
    h0_first = scenario.h0(x_row, np.asarray(0.0))
    h0_last = scenario.h0(x_row, np.asarray(grid.t_final))

    lhs_initial = s * trapezoid(
        _quad_form(h0_first, u.values[0]) * weight[0], dx=hx)
    rhs_terminal = s * trapezoid(
        _quad_form(h0_last, u.values[-1]) * weight[-1], dx=hx)

    sq = np.sum(u.values ** 2, axis=-1)
    lhs_volume = s * s * trapezoid(trapezoid(sq * weight, dx=hx, axis=1), dx=ht)
    fsq = np.sum(source.values ** 2, axis=-1)
    rhs_source = trapezoid(trapezoid(fsq * weight, dx=hx, axis=1), dx=ht)

    lhs_gamma_minus = 0.0
    rhs_gamma_rest = 0.0
    for k, side in enumerate(SIDES):
        col = 0 if side == "x_lo" else grid.nx - 1
        ub = u.values[:, col, :]
        wb = weight[:, col]
        flux = np.abs(_quad_form(boundary_flux(scenario, side, t), ub))
        is_minus = np.array([lab is BoundaryLabel.MINUS for lab in labels[k]])
        lhs_gamma_minus += s * trapezoid(np.where(is_minus, flux * wb, 0.0),
                                         t)
        rest = np.sum(ub ** 2, axis=-1) * wb
        rhs_gamma_rest += s * trapezoid(np.where(is_minus, 0.0, rest), t)

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


def carleman_ratio(terms: CarlemanTerms) -> float:
    """Left-over-right ratio of the six-term estimate.

    The estimate asserts this stays below max(C, 1) beyond some s threshold.
    Returns nan for the degenerate 0/0 case and inf when only the right side
    vanishes (a violation candidate to be surfaced by callers).
    """
    lhs, rhs = terms.lhs_total, terms.rhs_total
    if rhs == 0.0:
        return math.nan if lhs == 0.0 else math.inf
    return lhs / rhs


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
        if self.rhs_core == 0.0:
            return math.nan if np.all(self.lemma_lhs == 0.0) else math.inf
        return float(np.max(self.lemma_lhs) / self.rhs_core)


def energy_ledger(u, scenario: Scenario,
                  labels: np.ndarray | None = None) -> EnergyLedger:
    """Assemble the energy balance for a solution sample.

    Accepts a SolveResult or a bare GridFunction.
    """
    if isinstance(u, SolveResult):
        u = u.u
    _check_same_grid(u, scenario)
    if labels is None:
        labels = classify_boundary_series(scenario)
    grid = scenario.grid
    t = grid.t

    energy = trapezoid(np.sum(u.values ** 2, axis=-1), dx=grid.hx, axis=1)

    outflow = np.zeros(grid.nt)
    rest = np.zeros(grid.nt)
    for k, side in enumerate(SIDES):
        col = 0 if side == "x_lo" else grid.nx - 1
        ub = u.values[:, col, :]
        flux = _quad_form(boundary_flux(scenario, side, t), ub)
        is_plus = np.array([lab is BoundaryLabel.PLUS for lab in labels[k]])
        outflow += np.where(is_plus, flux, 0.0)
        rest += np.where(is_plus, 0.0, np.sum(ub ** 2, axis=-1))

    cum_out = cumulative_trapezoid(outflow, t, initial=0.0)
    return EnergyLedger(
        times=t,
        energy=energy,
        lemma_lhs=energy + cum_out,
        rhs_core=float(energy[0] + trapezoid(rest, t)),
    )


def observability_ratio(result: SolveResult) -> float:
    """Initial-data norm over boundary-trace norm.

    nan marks the degenerate 0/0 case; inf is the witness of a vanishing
    trace with nonzero initial data (observability failure).
    """
    grid = result.u.grid
    num = math.sqrt(trapezoid(np.sum(result.u.values[0] ** 2, axis=-1),
                              dx=grid.hx))
    den_sq = 0.0
    for k in range(len(SIDES)):
        den_sq += trapezoid(np.sum(result.traces[k] ** 2, axis=-1), dx=grid.ht)
    den = math.sqrt(den_sq)
    if den == 0.0:
        return math.nan if num == 0.0 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# discrete identity defects
# ---------------------------------------------------------------------------

def _interior_max(field: np.ndarray, exclude_t: bool, exclude_x: bool) -> float:
    sl_t = slice(1, -1) if exclude_t else slice(None)
    sl_x = slice(1, -1) if exclude_x else slice(None)
    return float(np.max(np.abs(field[sl_t, sl_x])))


def ibp_identity_defect(r_field: MatrixField, w: GridFunction,
                        axis: str) -> float:
    """Defect of the symmetric-matrix product-rule identity.

    Measures max over interior nodes of
    (R dw . w) - 1/2 d(R w . w) + 1/2 ((dR) w . w), with every derivative the
    second-order central difference along `axis`.  Second-order small for
    smooth data, and exactly zero only in degenerate cases.
    """
    grid = w.grid
    rm = sample_field(r_field, grid)
    dw = central_derivative(w.values, axis, grid)
    drm = central_derivative(rm, axis, grid)
    dquad = central_derivative(_quad_form(rm, w.values), axis, grid)
    defect = (np.einsum("txab,txb,txa->tx", rm, dw, w.values)
              - 0.5 * dquad
              + 0.5 * _quad_form(drm, w.values))
    return _interior_max(defect, exclude_t=(axis == "t"),
                         exclude_x=(axis == "x"))


def conjugation_defect(u: GridFunction, scenario: Scenario, s: float) -> float:
    """Defect between the conjugated discrete operator and its closed form.

    Compares exp(s phi) L_d(exp(-s phi) w) against
    h0 D_t w + h1 D_x w - s A w with A = (d_t phi) h0 + (d_x phi) h1 and
    w = exp(s phi) u, everything in the max-phi gauge.  The zero-order
    coefficient is excluded: it commutes with the conjugation exactly.
    Max over nodes interior in both directions.
    """
    _check_same_grid(u, scenario)
    grid = scenario.grid
    phi = scenario.phi_grid()
    shift = phi - phi.max()
    egrow = np.exp(s * shift)[..., None]
    edecay = np.exp(-s * shift)[..., None]
    w = egrow * u.values

    h0m = sample_field(scenario.h0, grid)
    h1m = sample_field(scenario.h1, grid)

    def principal(vals):
        vt = central_derivative(vals, "t", grid)
        vx = central_derivative(vals, "x", grid)
        return (np.einsum("txab,txb->txa", h0m, vt)
                + np.einsum("txab,txb->txa", h1m, vx))

    lhs = egrow * principal(edecay * w)

    a_field = weight_matrix(scenario, h0m, h1m)
    rhs = principal(w) - s * np.einsum("txab,txb->txa", a_field, w)

    return float(np.max(np.abs((lhs - rhs)[1:-1, 1:-1])))
