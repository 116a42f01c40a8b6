"""Ensemble estimators: refusals, degenerate members, determinism, direction."""

import math

import numpy as np
import pytest

from symhyp import (
    GridFunction,
    HypothesisRefusal,
    Scenario,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    build_scenario,
    check_hypotheses,
    estimate_observability,
    scan_carleman,
    verify_energy_estimate,
)

from conftest import system_scenario


def _indefinite_h0():
    return system_scenario([[1.0, 2.0], [2.0, 1.0]], np.eye(2))


def _wave_type():
    return build_scenario("wave-type", nx=31)


@pytest.mark.parametrize("study, make, check", [
    (scan_carleman, _wave_type, "weight_coercivity"),
    (estimate_observability, _wave_type, "eta_coercivity"),
    (verify_energy_estimate, _indefinite_h0, "h0_bounds"),
], ids=["carleman", "observability", "energy"])
def test_refusal_reads_the_check_report(study, make, check):
    sc = make()
    with pytest.raises(HypothesisRefusal) as err:
        study(sc, ensemble=1)
    msg = str(err.value)
    assert msg.startswith(f"hypotheses fail on {sc.name}:")
    for part in (f"{check} fails:", "lambda_min=", "x=", "t="):
        assert part in msg
    assert err.value.report.to_text() == check_hypotheses(sc).to_text()


def test_observability_refusal_names_every_failed_check():
    sc = system_scenario([[1.0, 2.0], [2.0, 1.0]], np.diag([1.0, -1.0]))
    with pytest.raises(HypothesisRefusal) as err:
        estimate_observability(sc, ensemble=1)
    msg = str(err.value)
    assert "eta_coercivity fails:" in msg and "h0_bounds fails:" in msg
    assert msg.count("; ") == 1


class TestScanCarleman:
    def test_refusal_carries_report_and_witness(self):
        sc = build_scenario("wave-type", nx=31)
        with pytest.raises(HypothesisRefusal) as err:
            scan_carleman(sc, ensemble=1, seed=0)
        report = err.value.report
        assert report.delta == pytest.approx(-1.5, abs=1e-12)  # -beta - 1
        assert not report.verdicts["weight_coercivity"]

    def test_zero_member_degenerate_excluded(self):
        sc = build_scenario("coupled-spd", nx=31, nt=41)
        zero = GridFunction.zeros(sc.grid, 2)
        report = scan_carleman(sc, s_grid=(1.0, 2.0), members=[zero])
        assert report.coarse.degenerate == 1
        assert all(math.isnan(r) for r in report.rho_max)
        assert math.isnan(report.c_hat)

    def test_zero_member_does_not_poison_aggregation(self):
        sc = build_scenario("coupled-spd", nx=31, nt=41)
        zero = GridFunction.zeros(sc.grid, 2)
        from symhyp import random_smooth_gridfunction
        live = random_smooth_gridfunction(sc.grid, 2, seed=1)
        report = scan_carleman(sc, s_grid=(1.0, 2.0), members=[zero, live])
        assert report.coarse.degenerate == 1
        assert all(math.isfinite(r) for r in report.rho_max)

    def test_ensemble_monotonicity(self):
        sc = build_scenario("coupled-spd", nx=31, nt=41)
        small = scan_carleman(sc, ensemble=3, seed=5, refine=False)
        large = scan_carleman(sc, ensemble=6, seed=5, refine=False)
        for r_small, r_large in zip(small.rho_max, large.rho_max):
            assert r_large >= r_small - 1e-15

    def test_deterministic_reports(self):
        sc = build_scenario("coupled-spd", nx=31, nt=41)
        a = scan_carleman(sc, ensemble=3, seed=7, refine=False)
        b = scan_carleman(sc, ensemble=3, seed=7, refine=False)
        assert a == b  # frozen dataclasses compare by value, bit for bit

    def test_refinement_drift_small_on_fixture(self):
        sc = build_scenario("coupled-spd", nx=51)
        report = scan_carleman(sc, ensemble=5, seed=2, refine=True)
        assert report.fine is not None
        assert report.fine.nx == 101
        assert report.drift is not None and report.drift < 0.2


    def test_samples_h1_once_per_grid(self):
        # every full-row evaluation of h1 is a sampling of it; the boundary
        # flux evaluates h1 at the two boundary points only
        sampled = []

        def h1(x, t):
            if np.ndim(x) == 2:
                sampled.append(np.shape(x)[1])
            xb = np.broadcast_to(x, np.broadcast_shapes(np.shape(x),
                                                        np.shape(t)))
            return np.array([[2.0, 1.0], [1.0, 2.0]]) + \
                xb[..., None, None] * np.array([[1.0, 0.0], [0.0, 0.0]])

        sc = Scenario(
            name="counting", grid=SpaceTimeGrid(0.0, 1.0, 2.0, 11, 41),
            n_comp=2, h0=SymMatrixField.constant(np.eye(2), label="h0"),
            h1=SymMatrixField(2, h1, label="h1", time_independent=True),
            eta=SpatialWeight.linear(1.0), beta=0.5)
        report = scan_carleman(sc, ensemble=3, s_grid=(1.0, 4.0), seed=0,
                               refine=True)
        assert report.fine is not None
        assert sampled == [11, 21]


class TestEstimateObservability:
    def test_refusal_on_indefinite_flux(self):
        sc = build_scenario("wave-type", nx=31)
        with pytest.raises(HypothesisRefusal) as err:
            estimate_observability(sc, ensemble=1)
        assert err.value.report.delta0 == pytest.approx(-1.0, abs=1e-12)

    def test_positive_direction_transport(self):
        sc = build_scenario("transport", nx=201, t_final=1.5)
        report = estimate_observability(sc, ensemble=5, seed=1)
        assert report.verdict == "OBSERVABLE"
        assert report.c_obs <= 1.1
        assert report.t_min == pytest.approx(1.0, abs=1e-12)
        assert not report.warnings

    def test_counterexample_direction_under_refinement(self):
        ratios = {}
        for nx in (101, 201):
            sc = build_scenario("transport", nx=nx, t_final=0.5)
            report = estimate_observability(sc, ensemble=1, seed=0,
                                            initial_kind="bump",
                                            support=(0.0, 0.4))
            assert report.verdict == "COUNTEREXAMPLE"
            assert report.warnings  # T below the critical time
            assert report.counterexample is not None
            ratios[nx] = report.c_obs
        assert ratios[101] > 10.0
        assert ratios[201] > ratios[101]

    def test_bump_is_one_member(self):
        sc = build_scenario("transport", nx=51, t_final=0.5)
        report = estimate_observability(sc, ensemble=3, initial_kind="bump")
        assert len(report.ratios) == 1

    def test_zero_member_degenerate(self):
        sc = build_scenario("transport", nx=51, t_final=1.5)
        report = estimate_observability(sc, members=[np.zeros((51, 1))])
        assert report.degenerate == 1
        assert math.isnan(report.c_obs)

    def test_ensemble_monotonicity(self):
        sc = build_scenario("transport", nx=101, t_final=1.5)
        small = estimate_observability(sc, ensemble=3, seed=4)
        large = estimate_observability(sc, ensemble=6, seed=4)
        assert large.c_obs >= small.c_obs - 1e-15


class TestVerifyEnergyEstimate:
    def test_refusal_on_indefinite_h0(self):
        sc = _indefinite_h0()
        with pytest.raises(HypothesisRefusal):
            verify_energy_estimate(sc, ensemble=1)

    def test_transport_ratio_close_to_one(self):
        sc = build_scenario("transport", nx=201)
        report = verify_energy_estimate(sc, ensemble=5, seed=3)
        assert report.finite
        assert report.c_energy <= 1.05

    def test_cross_resolution_stability(self):
        sc = build_scenario("coupled-spd", nx=51)
        report = verify_energy_estimate(sc, ensemble=3, seed=6, refine=True)
        assert report.finite
        assert report.c_energy_fine is not None
        assert report.drift is not None and report.drift < 0.2

    def test_zero_member_excluded(self):
        sc = build_scenario("transport", nx=51)
        report = verify_energy_estimate(sc, members=[np.zeros((51, 1))])
        assert report.degenerate == 1
        assert math.isnan(report.c_energy)
