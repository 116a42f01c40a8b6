"""Ensemble studies that estimate the constants the inequalities assert.

The weighted-estimate scan samples the solution quantifier with manufactured
solutions: arbitrary seeded smooth grid functions whose source is defined as
their own discrete residual.  The observability and energy studies use
genuine zero-inflow solves of the homogeneous system, as those statements
require, one `solve` per member, streamed into a `MarchRecord` that keeps
the initial row, the boundary traces and the row energies, never the
solution.  Both take their members alike: seeded band-limited initial
rows (`random_initial_profile`), or explicit initial rows in their place.
Every study builds the hypothesis report that `check` prints and refuses
to run through `HypothesisReport.require` when one of its structural
hypotheses fails: the refusal names each failed check with its worst node
and value and carries the report.  Every ratio follows one rule
(`functionals._ratio`): a norm that is not finite is refused, x/0 is inf,
and 0/0 is nan, a degenerate member.  Every aggregation is a max over the
others, so adding members can only grow the estimated constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    GridFunction,
    Scenario,
    SeparableGridFunction,
    random_initial_profile,
    random_smooth_separable,
)
from .functionals import (
    CarlemanTerms,
    MarchRecord,
    carleman_ratio,
    carleman_terms,
)
from .hypotheses import check_hypotheses
from .solver import CFL_DEFAULT, residual, solve

#: relative band around the tail level that defines the stabilization point
S0_TAIL_BAND = 0.10


@dataclass(frozen=True)
class ScanRow:
    member: int
    s: float
    terms: CarlemanTerms
    ratio: float


@dataclass(frozen=True)
class ScanPass:
    """One full (member x s) sweep at a fixed resolution; degenerate
    counts the members whose ratio is nan at every s."""

    nx: int
    nt: int
    rows: tuple[ScanRow, ...]
    rho_max: tuple[float, ...]
    s0_hat: float
    c_hat: float
    degenerate: int


@dataclass(frozen=True)
class CarlemanScanReport:
    scenario: str
    s_grid: tuple[float, ...]
    ensemble: int
    coarse: ScanPass
    fine: ScanPass | None
    drift: float | None

    @property
    def rho_max(self) -> tuple[float, ...]:
        return self.coarse.rho_max

    @property
    def s0_hat(self) -> float:
        return self.coarse.s0_hat

    @property
    def c_hat(self) -> float:
        return self.coarse.c_hat

    @property
    def all_finite(self) -> bool:
        return all(math.isfinite(r) for r in self.coarse.rho_max)


def _median(values) -> float:
    """The median of finite values, as np.median gives it, without the
    numpy.ma import that np.median makes on numpy 2."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _stabilized_tail(s_grid: tuple[float, ...],
                     rho: tuple[float, ...]) -> tuple[float, float]:
    """(s0_hat, c_hat) from the per-s maxima.

    The reference level is the median of the upper half of the s grid; the
    threshold is the smallest s whose maximum sits within S0_TAIL_BAND of
    that level, and the constant estimate is the largest maximum at or past
    the threshold.  Falls back to the last s when nothing qualifies.
    """
    tail = [r for r in rho[len(rho) // 2:] if math.isfinite(r)]
    if not tail:
        return s_grid[-1], math.nan
    tail_ref = _median(tail)
    s0_hat = s_grid[-1]
    for s, r in zip(s_grid, rho):
        if math.isfinite(r) and abs(r - tail_ref) <= S0_TAIL_BAND * abs(tail_ref):
            s0_hat = s
            break
    c_hat = max((r for s, r in zip(s_grid, rho)
                 if s >= s0_hat and math.isfinite(r)), default=math.nan)
    return s0_hat, c_hat


def _usable_max(values) -> float:
    """Largest non-nan value; nan when there is none."""
    return max((v for v in values if not math.isnan(v)), default=math.nan)


def _two_grids(scenario: Scenario, members, ensemble: int, make_member,
               run_pass, constant, refine: bool):
    """(member count, coarse, fine, drift) of a pass and its refined rerun.

    run_pass(scenario, members) runs on the scenario grid; when `members`
    is None they are make_member(grid, i) for i < ensemble, made one at a
    time as the pass reaches them, so a pass holds one generated member at
    once.  With `refine`, generated members are resampled on the
    node-doubled grid and the pass rerun there; drift is the relative
    change of constant(pass), None when the coarse constant is 0 or not
    finite.  Explicit members cannot be resampled, so they are never
    refined.
    """
    def generate(grid):
        return (make_member(grid, i) for i in range(ensemble))

    if members is not None:
        return len(members), run_pass(scenario, members), None, None
    coarse = run_pass(scenario, generate(scenario.grid))
    if not refine:
        return ensemble, coarse, None, None
    fine_scenario = scenario.with_grid(scenario.grid.refined())
    fine = run_pass(fine_scenario, generate(fine_scenario.grid))
    c0 = constant(coarse)
    drift = (abs(constant(fine) - c0) / abs(c0)
             if math.isfinite(c0) and c0 != 0.0 else None)
    return ensemble, coarse, fine, drift


def _scan_pass(scenario: Scenario, s_grid: tuple[float, ...],
               members) -> ScanPass:
    """One (member x s) sweep: one `residual` per member, one
    `carleman_terms` per (member, s).

    Members are dense or separable grid functions.  A separable member on
    time-independent coefficients keeps a separable source, so the sweep
    forms no full-grid array.  A member is degenerate when its ratio is
    nan at every s: a nonzero member has a positive s^2 volume term.
    """
    rows = []
    degenerate = idx = 0
    # no enumerate: its result tuple would keep this member alive while
    # the next one is made
    for u in members:
        src = residual(u, scenario)
        for s in s_grid:
            terms = carleman_terms(u, src, scenario, s)
            rows.append(ScanRow(member=idx, s=s, terms=terms,
                                ratio=carleman_ratio(terms)))
        degenerate += all(math.isnan(row.ratio)
                          for row in rows[-len(s_grid):])
        del u, src
        idx += 1
    rho = tuple(_usable_max(r.ratio for r in rows if r.s == s)
                for s in s_grid)
    s0_hat, c_hat = _stabilized_tail(s_grid, rho)
    return ScanPass(nx=scenario.grid.nx, nt=scenario.grid.nt,
                    rows=tuple(rows), rho_max=rho, s0_hat=s0_hat,
                    c_hat=c_hat, degenerate=degenerate)


def scan_carleman(scenario: Scenario, ensemble: int = 20,
                  s_grid=(1.0, 2.0, 4.0, 8.0, 16.0), seed: int = 0,
                  modes: int = 4, decay: float = 2.0,
                  members: list[GridFunction | SeparableGridFunction]
                  | None = None,
                  refine: bool = True) -> CarlemanScanReport:
    """Estimate the weighted-estimate constant over a manufactured ensemble.

    Member i is the seeded smooth grid function with seed `seed + i`,
    held as factors (`random_smooth_separable`), with its discrete
    residual taken as the source; the per-s maximum ratio over the
    ensemble is aggregated and the stabilized tail gives (s0_hat, c_hat).
    With refine=True the identical smooth functions are resampled on the
    node-doubled grid and the relative drift of c_hat is reported.

    Explicit `members`, dense or separable, replace the generated ensemble
    (refinement is skipped then, since arbitrary samples cannot be
    resampled).  A member whose ratio is nan (0/0) at every s is counted
    as degenerate, and nan ratios are excluded from every maximum.
    """
    check_hypotheses(scenario).require("weight_coercivity")
    s_grid = tuple(float(s) for s in s_grid)
    count, coarse, fine, drift = _two_grids(
        scenario, members, ensemble,
        make_member=lambda grid, i: random_smooth_separable(
            grid, scenario.n_comp, seed + i, modes=modes, decay=decay),
        run_pass=lambda sc, ms: _scan_pass(sc, s_grid, ms),
        constant=lambda scan_pass: scan_pass.c_hat, refine=refine)
    return CarlemanScanReport(scenario=scenario.name, s_grid=s_grid,
                              ensemble=count, coarse=coarse,
                              fine=fine, drift=drift)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservabilityReport:
    scenario: str
    t_final: float
    t_min: float
    ratios: tuple[float, ...]
    c_obs: float
    verdict: str  # OBSERVABLE | COUNTEREXAMPLE
    warnings: tuple[str, ...]
    counterexample: dict | None
    degenerate: int


def _homogeneous(scenario: Scenario) -> Scenario:
    return replace(scenario, source=None) if scenario.source is not None \
        else scenario


def _march_pass(scenario: Scenario, members, cfl_factor: float,
                energy: bool = False):
    """One `solve` per member into its own `MarchRecord`, each record
    yielded when its march ends."""
    for u0 in members:
        record = MarchRecord(scenario, energy=energy)
        solve(scenario, u0, cfl_factor=cfl_factor, observer=record)
        del u0  # so that it is gone when the next member is made
        yield record


def estimate_observability(scenario: Scenario, ensemble: int = 20,
                           seed: int = 0, modes: int = 3, decay: float = 2.0,
                           cfl_factor: float = CFL_DEFAULT,
                           members: list[np.ndarray] | None = None
                           ) -> ObservabilityReport:
    """Solve the homogeneous system per member and aggregate trace ratios.

    Zero inflow throughout.  Member i is the seeded band-limited sine
    profile with seed `seed + i` (`random_initial_profile`); explicit
    initial rows `members` replace the ensemble, as in
    `verify_energy_estimate`.  The verdict is OBSERVABLE only when the
    horizon exceeds the critical time and every non-degenerate ratio is
    finite; otherwise the worst member is recorded as the counterexample.
    """
    scenario = _homogeneous(scenario)
    report = check_hypotheses(scenario)
    report.require("eta_coercivity", "h0_bounds")
    t_min = report.T_min
    in_time = report.verdicts["time_window"]
    warnings = () if in_time else (
        f"T={scenario.grid.t_final!r} does not exceed the critical time "
        f"T_min={t_min!r}; proceeding (counterexample study)",)

    _, ratios, _, _ = _two_grids(
        scenario, members, ensemble,
        make_member=lambda grid, i: random_initial_profile(
            grid, scenario.n_comp, seed + i, modes=modes, decay=decay),
        run_pass=lambda sc, ms: [
            record.observability_ratio()
            for record in _march_pass(sc, ms, cfl_factor)],
        constant=_usable_max, refine=False)

    # ratios are >= 0, so the largest usable one is finite exactly when
    # there is one and every usable ratio is finite
    c_obs = _usable_max(ratios)
    observable = in_time and math.isfinite(c_obs)
    counterexample = None
    if not observable and not math.isnan(c_obs):
        worst = int(np.nanargmax([r if not math.isnan(r) else -math.inf
                                  for r in ratios]))
        counterexample = {"member": worst, "ratio": ratios[worst],
                          "t_min": t_min}
    return ObservabilityReport(
        scenario=scenario.name, t_final=scenario.grid.t_final, t_min=t_min,
        ratios=tuple(ratios), c_obs=c_obs,
        verdict="OBSERVABLE" if observable else "COUNTEREXAMPLE",
        warnings=warnings, counterexample=counterexample,
        degenerate=sum(map(math.isnan, ratios)))


# ---------------------------------------------------------------------------
# energy estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyEstimateReport:
    scenario: str
    ratios: tuple[float, ...]
    c_energy: float
    ratios_fine: tuple[float, ...] | None
    c_energy_fine: float | None
    drift: float | None
    degenerate: int

    @property
    def finite(self) -> bool:
        return math.isfinite(self.c_energy)


def verify_energy_estimate(scenario: Scenario, ensemble: int = 20,
                           seed: int = 0, modes: int = 3, decay: float = 2.0,
                           cfl_factor: float = CFL_DEFAULT,
                           members: list[np.ndarray] | None = None,
                           refine: bool = False) -> EnergyEstimateReport:
    """Max energy-balance ratio over zero-inflow solves of random data.

    Requires the two-sided spectral bounds on h0.  Identically degenerate
    members (zero data) are excluded; with refine=True the same initial
    profiles are resampled on the node-doubled grid for a drift estimate.
    """
    scenario = _homogeneous(scenario)
    check_hypotheses(scenario).require("h0_bounds")
    _, ratios, fine, drift = _two_grids(
        scenario, members, ensemble,
        make_member=lambda grid, i: random_initial_profile(
            grid, scenario.n_comp, seed + i, modes=modes, decay=decay),
        run_pass=lambda sc, ms: [
            record.ledger().max_ratio
            for record in _march_pass(sc, ms, cfl_factor, energy=True)],
        constant=_usable_max, refine=refine)
    return EnergyEstimateReport(
        scenario=scenario.name, ratios=tuple(ratios),
        c_energy=_usable_max(ratios),
        ratios_fine=None if fine is None else tuple(fine),
        c_energy_fine=None if fine is None else _usable_max(fine),
        drift=drift, degenerate=sum(map(math.isnan, ratios)))
