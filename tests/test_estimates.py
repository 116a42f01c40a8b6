"""Ensemble estimators: refusals, degenerate members, determinism, direction."""

import math
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from symhyp import (
    GridFunction,
    HypothesisRefusal,
    Scenario,
    SeparableGridFunction,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    build_scenario,
    bump_profile,
    check_hypotheses,
    estimate_observability,
    random_smooth_separable,
    scan_carleman,
    verify_energy_estimate,
)
from symhyp import estimates

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


@pytest.mark.parametrize("study, members", [
    (verify_energy_estimate, 4), (estimate_observability, 4),
    (scan_carleman, 8),  # the scan also reruns on the refined grid
])
def test_one_generated_member_alive_at_a_time(study, members, monkeypatch):
    made, alive_at_make = [], []

    def tracked(make):
        def wrapper(*args, **kwargs):
            alive_at_make.append(sum(ref() is not None for ref in made))
            member = make(*args, **kwargs)
            made.append(weakref.ref(member))
            return member
        return wrapper

    for name in ("random_initial_profile", "random_smooth_separable"):
        monkeypatch.setattr(estimates, name,
                            tracked(getattr(estimates, name)))
    study(build_scenario("transport", nx=51), ensemble=4)
    # how many earlier members were alive as each one was made
    assert alive_at_make == [0] * members


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
        live = random_smooth_separable(sc.grid, 2, seed=1).materialize()
        report = scan_carleman(sc, s_grid=(1.0, 2.0), members=[zero, live])
        assert report.coarse.degenerate == 1
        assert all(math.isfinite(r) for r in report.rho_max)

    def test_separable_member_degenerate_only_when_every_sample_is_zero(
            self):
        sc = build_scenario("coupled-spd", nx=31, nt=41)
        x_factor = np.zeros((31, 2, 2))
        x_factor[:, :, 0] = 1.0
        t_factor = np.zeros((41, 2))
        t_factor[:, 1] = 1.0
        zero_product = SeparableGridFunction(sc.grid, x_factor, t_factor)
        zero_x = SeparableGridFunction(sc.grid, np.zeros((31, 2, 8)),
                                       np.ones((41, 8)))
        live = random_smooth_separable(sc.grid, 2, seed=1)
        report = scan_carleman(sc, s_grid=(1.0, 2.0),
                               members=[zero_product, zero_x, live])
        assert report.coarse.degenerate == 2
        assert all(math.isfinite(r) for r in report.rho_max)
        ratios = [row.ratio for row in report.coarse.rows]
        assert all(math.isnan(r) for r in ratios[:4])

    @pytest.mark.parametrize("name", ["coupled-spd", "coupled-varying",
                                      "transport"])
    def test_generated_members_match_dense_members(self, name):
        sc = build_scenario(name, nx=31)
        s_grid = (1.0, 4.0, 16.0)
        report = scan_carleman(sc, ensemble=3, s_grid=s_grid, seed=4,
                               refine=False)
        dense = scan_carleman(sc, s_grid=s_grid, members=[
            random_smooth_separable(sc.grid, sc.n_comp, 4 + i).materialize()
            for i in range(3)])
        assert len(report.coarse.rows) == len(dense.coarse.rows) == 9
        for got, want in zip(report.coarse.rows, dense.coarse.rows):
            assert (got.member, got.s) == (want.member, want.s)
            assert got.terms.as_tuple() == pytest.approx(
                want.terms.as_tuple(), rel=1e-12, abs=0.0)
            assert got.ratio == pytest.approx(want.ratio, rel=1e-12, abs=0.0)
        assert report.coarse.degenerate == dense.coarse.degenerate == 0

    def test_refined_scan_holds_no_full_grid_member(self):
        # one refined member of the coarse grid 101 x 1,449 is
        # 2,897 x 201 x 2 doubles, 9.3 MB
        sc = build_scenario("coupled-varying", nx=101, t_final=2.0)
        fine = sc.grid.refined()
        member_bytes = fine.nt * fine.nx * sc.n_comp * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = scan_carleman(sc, refine=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.fine is not None and report.fine.nt == fine.nt
        assert peak < member_bytes, (peak, member_bytes)

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

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10])
    def test_tail_median_is_numpy_median(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.standard_normal(size) * 10.0 ** rng.integers(
                -300, 300, size), np.full(size, 0.1 + 0.2)):
            values = values.tolist()
            assert repr(estimates._median(values)) == \
                repr(float(np.median(values)))

    def test_scan_does_not_import_numpy_ma(self):
        src = str(Path(estimates.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import symhyp; "
             "sc = symhyp.build_scenario('coupled-varying', nx=21); "
             "symhyp.scan_carleman(sc, ensemble=2, s_grid=(1.0, 2.0, 4.0), "
             "refine=False); print('numpy.ma' in sys.modules)", src],
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


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
            report = estimate_observability(
                sc, members=[bump_profile(sc.grid, (0.0, 0.4), sc.n_comp)])
            assert report.verdict == "COUNTEREXAMPLE"
            assert report.warnings  # T below the critical time
            assert report.counterexample is not None
            ratios[nx] = report.c_obs
        assert ratios[101] > 10.0
        assert ratios[201] > ratios[101]

    def test_members_made_as_the_pass_reaches_them(self, monkeypatch):
        events = []
        make, march = estimates.random_initial_profile, estimates.solve

        def making(*args, **kwargs):
            events.append("make")
            return make(*args, **kwargs)

        def marching(*args, **kwargs):
            events.append("solve")
            return march(*args, **kwargs)

        monkeypatch.setattr(estimates, "random_initial_profile", making)
        monkeypatch.setattr(estimates, "solve", marching)
        sc = build_scenario("transport", nx=51, t_final=1.5)
        estimate_observability(sc, ensemble=3)
        assert events == ["make", "solve"] * 3

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
