"""Structural hypothesis checks and the constants they certify.

Every check minimizes (or maximizes) an eigenvalue bound over the grid nodes
of a scenario.  The conditions quantify over the whole closed cylinder; node
sampling is exact for the constant and affine coefficient catalog and is the
documented approximation for everything else.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BetaSelectionError, HypothesisRefusal
from .fields import (
    SIDES,
    Scenario,
    SpaceTimeGrid,
    SpatialWeight,
    boundary_classes,
    boundary_flux,
    eig_bounds,
)


class BoundaryLabel(enum.Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"
    NEITHER = "NEITHER"


def _labels(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """BoundaryLabel array of the boundary class masks, for display."""
    return np.where(plus, BoundaryLabel.PLUS,
                    np.where(minus, BoundaryLabel.MINUS, BoundaryLabel.NEITHER))


def classify_boundary(scenario: Scenario, t: float) -> dict[str, BoundaryLabel]:
    """Label both boundary points at one time as PLUS / MINUS / NEITHER.

    PLUS means the normal flux matrix h1 * nu is positive definite there
    (strictly), MINUS that it is negative semidefinite; the remainder is
    NEITHER, which can be nonempty.
    """
    flux = np.stack([boundary_flux(scenario, side, float(t))
                     for side in SIDES])
    return dict(zip(SIDES, _labels(*boundary_classes(flux))))


def classify_boundary_series(scenario: Scenario) -> np.ndarray:
    """Labels for every (side, time node), shape (2, nt), sides in SIDES order.

    Per time node: for time-dependent coefficients a boundary point may
    change class along the way, and the weighted boundary quadratures
    respect the per-node class.
    """
    samples = scenario.samples
    return _labels(samples.plus, samples.minus)


# ---------------------------------------------------------------------------
# pointwise definiteness checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityCheck:
    """Grid minimum of an eigenvalue bound, with the witnessing node."""

    name: str
    value: float
    passed: bool
    worst_x: float
    worst_t: float


@dataclass(frozen=True)
class H0BoundsCheck:
    """Two-sided spectral bounds delta1 <= h0 <= M over the grid."""

    delta1: float
    M: float
    passed: bool
    worst_x: float
    worst_t: float


def _argmin_node(values: np.ndarray, grid: SpaceTimeGrid) -> tuple[float, float]:
    # a one-row (1, nx) array of a time-independent field names n = 0, the
    # first minimizing node of the full grid as well
    n, i = np.unravel_index(int(np.argmin(values)), values.shape)
    return grid.node(int(i), int(n))


def weight_matrix(scenario: Scenario) -> np.ndarray:
    """(d_t phi) h0 + (d_x phi) h1 = -beta h0 + eta'(x) h1 on node samples.

    Shape (nt, nx, n, n), or (1, nx, n, n) when h0 and h1 are both
    time-independent.
    """
    samples = scenario.samples
    etax = scenario.eta.derivative(scenario.grid.x)[None, :, None, None]
    return -scenario.beta * samples.h0 + etax * samples.h1


def check_weight_coercivity(scenario: Scenario,
                            margin: float = 0.0) -> CoercivityCheck:
    """Smallest eigenvalue of (d_t phi) h0 + (d_x phi) h1 over all nodes.

    With phi = eta(x) - beta*t this is the matrix multiplying the solution
    in the conjugated system; the weighted estimate needs it uniformly
    positive definite.  Fails with the worst node recorded.  The checks
    sample grid nodes only; a positive `margin` guards against minima
    hiding between nodes of non-affine coefficients.
    """
    lmin, _ = eig_bounds(weight_matrix(scenario))
    value = float(lmin.min())
    wx, wt = _argmin_node(lmin, scenario.grid)
    return CoercivityCheck("weight_coercivity", value, value > margin, wx, wt)


def check_eta_coercivity(scenario: Scenario,
                         margin: float = 0.0) -> CoercivityCheck:
    """Smallest eigenvalue of (d_x eta) h1 over all nodes (delta0)."""
    grid = scenario.grid
    etax = scenario.eta.derivative(grid.x)[None, :, None, None]
    lmin, _ = eig_bounds(etax * scenario.samples.h1)
    value = float(lmin.min())
    wx, wt = _argmin_node(lmin, grid)
    return CoercivityCheck("eta_coercivity", value, value > margin, wx, wt)


def check_h0_bounds(scenario: Scenario, margin: float = 0.0) -> H0BoundsCheck:
    """Spectral bounds of h0: delta1 = min lambda_min, M = max lambda_max."""
    lmin, lmax = eig_bounds(scenario.samples.h0)
    delta1 = float(lmin.min())
    m_upper = float(lmax.max())
    wx, wt = _argmin_node(lmin, scenario.grid)
    return H0BoundsCheck(delta1, m_upper, delta1 > margin, wx, wt)


def eta_oscillation(eta: SpatialWeight, grid: SpaceTimeGrid) -> float:
    vals = eta(grid.x)
    return float(vals.max() - vals.min())


def minimal_time(eta: SpatialWeight, delta0: float, M: float,
                 grid: SpaceTimeGrid) -> float:
    """Critical observation time (M / delta0) * osc(eta), extrema on grid nodes."""
    if not delta0 > 0:
        raise ValueError(f"delta0 must be positive (got {delta0})")
    return (M / delta0) * eta_oscillation(eta, grid)


@dataclass(frozen=True)
class BetaSelection:
    """Admissible weight decay rate and the constants it certifies."""

    beta: float
    delta: float
    delta2: float
    window: tuple[float, float]


def select_beta(delta0: float, M: float, eta: SpatialWeight,
                grid: SpaceTimeGrid) -> BetaSelection:
    """Pick beta in the open window (osc(eta)/T, delta0/M).

    The midpoint is used: it balances delta = delta0 - beta*M (coercivity
    margin) against delta2 = beta*T - osc(eta) (weight gap between t = 0 and
    t = T), both of which must stay positive.  Raises BetaSelectionError when
    the window is empty, i.e. T does not exceed the critical time.
    """
    t_final = grid.t_final
    if not delta0 > 0:
        raise BetaSelectionError(f"delta0 must be positive (got {delta0})")
    osc = eta_oscillation(eta, grid)
    lo, hi = osc / t_final, delta0 / M
    if not lo < hi:
        raise BetaSelectionError(
            f"no admissible beta: window ({lo}, {hi}) is empty, "
            f"T={t_final} does not exceed the critical time {osc * M / delta0}")
    beta = 0.5 * (lo + hi)
    return BetaSelection(beta=beta,
                         delta=delta0 - beta * M,
                         delta2=beta * t_final - osc,
                         window=(lo, hi))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    """Everything the two main statements assume, verified on one scenario."""

    scenario: str
    beta: float
    delta: float
    delta0: float
    delta1: float
    M: float
    T_min: float
    delta2: float
    boundary_labels: np.ndarray  # (2, nt) of BoundaryLabel, SIDES order
    verdicts: dict[str, bool]
    witnesses: dict[str, tuple[float, float, float]]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def require(self, *names: str) -> None:
        """Raise HypothesisRefusal, carrying this report, unless every
        named check passed.

        The message names each failed check with its worst node and value
        from `witnesses`, so only witnessed checks can be required.
        """
        failed = []
        for name in names:
            if not self.verdicts[name]:
                x, t, lam = self.witnesses[name]
                failed.append(f"{name} fails: lambda_min={lam!r} "
                              f"at x={x!r}, t={t!r}")
        if failed:
            raise HypothesisRefusal(
                f"hypotheses fail on {self.scenario}: " + "; ".join(failed),
                self)

    def to_text(self) -> str:
        """Flat key/value rendering, one entry per line."""
        lines = [
            f"scenario={self.scenario}",
            f"beta={self.beta!r}",
            f"delta={self.delta!r}",
            f"delta0={self.delta0!r}",
            f"delta1={self.delta1!r}",
            f"M={self.M!r}",
            f"T_min={self.T_min!r}",
            f"delta2={self.delta2!r}",
        ]
        for name in sorted(self.verdicts):
            lines.append(f"verdict.{name}={'pass' if self.verdicts[name] else 'FAIL'}")
        for name in sorted(self.witnesses):
            x, t, lam = self.witnesses[name]
            lines.append(f"witness.{name}=x={x!r},t={t!r},lambda_min={lam!r}")
        lines.append(f"overall={'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def classification_rows(self, grid: SpaceTimeGrid):
        """One (side, x, time_index, t, label) tuple per boundary/time node."""
        rows = []
        for k, side in enumerate(SIDES):
            xb = grid.x_lo if side == "x_lo" else grid.x_hi
            for n, tv in enumerate(grid.t):
                rows.append((side, xb, n, float(tv),
                             self.boundary_labels[k, n].value))
        return rows


def check_hypotheses(scenario: Scenario) -> HypothesisReport:
    """Run every structural check on a scenario and collect the constants."""
    weight = check_weight_coercivity(scenario)
    eta_c = check_eta_coercivity(scenario)
    h0b = check_h0_bounds(scenario)
    grid = scenario.grid
    osc = eta_oscillation(scenario.eta, grid)
    if eta_c.passed and h0b.passed:
        t_min = minimal_time(scenario.eta, eta_c.value, h0b.M, grid)
        time_ok = grid.t_final > t_min
    else:
        t_min = math.nan
        time_ok = False
    verdicts = {
        "weight_coercivity": weight.passed,
        "eta_coercivity": eta_c.passed,
        "h0_bounds": h0b.passed,
        "time_window": time_ok,
    }
    witnesses = {
        "weight_coercivity": (weight.worst_x, weight.worst_t, weight.value),
        "eta_coercivity": (eta_c.worst_x, eta_c.worst_t, eta_c.value),
        "h0_bounds": (h0b.worst_x, h0b.worst_t, h0b.delta1),
    }
    return HypothesisReport(
        scenario=scenario.name,
        beta=scenario.beta,
        delta=weight.value,
        delta0=eta_c.value,
        delta1=h0b.delta1,
        M=h0b.M,
        T_min=t_min,
        delta2=scenario.beta * grid.t_final - osc,
        boundary_labels=classify_boundary_series(scenario),
        verdicts=verdicts,
        witnesses=witnesses,
    )
