"""Structural hypothesis checks and the constants they certify.

Every check minimizes (or maximizes) an eigenvalue bound over the sampled
nodes of a scenario (`Scenario.samples`) and passes when that bound is > 0.
The conditions quantify over the whole closed cylinder; node sampling is
exact for constant and affine coefficients and an approximation elsewhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BetaSelectionError, HypothesisRefusal
from .fields import (
    NORMALS,
    SIDES,
    Scenario,
    SpaceTimeGrid,
    SpatialWeight,
    boundary_classes,
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
    NEITHER, which can be nonempty.  h1 is read at the end nodes of the
    scenario's grid, where its samples sit.
    """
    ends = scenario.grid.x[[0, -1]]
    flux = np.stack([NORMALS[side] * scenario.h1(xb, float(t))
                     for side, xb in zip(SIDES, ends)])
    return dict(zip(SIDES, _labels(*boundary_classes(flux))))


def classify_boundary_series(scenario: Scenario) -> np.ndarray:
    """Labels for every (side, time node), shape (2, nt), sides in SIDES order.

    Per time node: for time-dependent coefficients a boundary point may
    change class along the way, and the weighted boundary quadratures
    respect the per-node class.
    """
    samples = scenario.samples
    return np.broadcast_to(_labels(samples.plus, samples.minus),
                           (2, scenario.grid.nt))


# ---------------------------------------------------------------------------
# pointwise definiteness checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityCheck:
    """Grid minimum of an eigenvalue bound, with the witnessing node; the
    h0 bounds check also carries the grid maximum M of lambda_max."""

    name: str
    value: float
    passed: bool
    worst_x: float
    worst_t: float
    M: float | None = None

    @property
    def delta1(self) -> float:
        return self.value


def weight_matrix(scenario: Scenario, h0: np.ndarray,
                  h1: np.ndarray) -> np.ndarray:
    """(d_t phi) h0 + (d_x phi) h1 = -beta h0 + eta'(x) h1 on coefficient
    rows (rows, nx, n, n) of the scenario's samples, whole or one row
    block; the result has their broadcast shape."""
    etax = scenario.eta.derivative(scenario.grid.x)[None, :, None, None]
    return -scenario.beta * h0 + etax * h1


def _coercivity(name: str, scenario: Scenario, matrices) -> CoercivityCheck:
    """Grid minimum of lambda_min(matrices(h0 rows, h1 rows)), through
    `node_map`, so a time-dependent coefficient's matrices never exist for
    every node at once."""
    lmin = scenario.samples.node_map(
        lambda h0, h1: eig_bounds(matrices(h0, h1))[0])
    value = float(lmin.min())
    return CoercivityCheck(name, value, value > 0.0,
                           *scenario.grid.node_of(lmin))


def check_weight_coercivity(scenario: Scenario) -> CoercivityCheck:
    """Smallest eigenvalue of (d_t phi) h0 + (d_x phi) h1 over all nodes.

    With phi = eta(x) - beta*t this is the matrix multiplying the solution
    in the conjugated system; the weighted estimate needs it uniformly
    positive definite.  Fails with the worst node recorded.
    """
    return _coercivity("weight_coercivity", scenario,
                       lambda h0, h1: weight_matrix(scenario, h0, h1))


def check_eta_coercivity(scenario: Scenario) -> CoercivityCheck:
    """Smallest eigenvalue of (d_x eta) h1 over all nodes (delta0)."""
    etax = scenario.eta.derivative(scenario.grid.x)[None, :, None, None]
    return _coercivity("eta_coercivity", scenario, lambda h0, h1: etax * h1)


def check_h0_bounds(scenario: Scenario) -> CoercivityCheck:
    """Spectral bounds of h0: delta1 = min lambda_min, M = max lambda_max."""
    lmin, lmax = eig_bounds(scenario.samples.h0)
    delta1 = float(lmin.min())
    return CoercivityCheck("h0_bounds", delta1, delta1 > 0.0,
                           *scenario.grid.node_of(lmin), M=float(lmax.max()))


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
    checks = [check(scenario) for check in (
        check_weight_coercivity, check_eta_coercivity, check_h0_bounds)]
    weight, eta_c, h0b = checks
    grid = scenario.grid
    osc = eta_oscillation(scenario.eta, grid)
    if eta_c.passed and h0b.passed:
        t_min = minimal_time(scenario.eta, eta_c.value, h0b.M, grid)
        time_ok = grid.t_final > t_min
    else:
        t_min = math.nan
        time_ok = False
    verdicts = {c.name: c.passed for c in checks} | {"time_window": time_ok}
    witnesses = {c.name: (c.worst_x, c.worst_t, c.value) for c in checks}
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
