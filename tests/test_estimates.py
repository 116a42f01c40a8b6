"""Ensemble estimators: refusals, degenerate members, determinism, direction."""

import math
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
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
    admissible_time_nodes,
    build_scenario,
    bump_profile,
    check_hypotheses,
    conjugation_defect,
    estimate_observability,
    ibp_identity_defect,
    random_initial_profile,
    random_smooth_separable,
    scan_carleman,
    verify_energy_estimate,
)
from symhyp import estimates

from conftest import (
    mirror_member,
    mirror_scenario,
    permute_member,
    permute_scenario,
    system_scenario,
)
# modules, not names, so that their test classes are not collected here
import test_fields
import test_functionals

#: the constants of a hypothesis report
CONSTANTS = ("beta", "delta", "delta0", "delta1", "M", "T_min", "delta2")


def _constants(report):
    return [getattr(report, name) for name in CONSTANTS]


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


    def test_s_grid_is_a_set(self):
        # the tail level is the median of the upper half of ascending s:
        # read by position from this shuffled grid it gave s0_hat=2.0
        sc = build_scenario("transport", nx=21)
        report, shuffled = (scan_carleman(sc, s_grid=s_grid, refine=False)
                            for s_grid in ((1, 2, 4, 8, 16),
                                           (16, 8, 4, 2, 1, 4.0)))
        assert shuffled.s_grid == report.s_grid == (1.0, 2.0, 4.0, 8.0, 16.0)
        assert (shuffled.s0_hat, shuffled.c_hat, shuffled.rho_max) == \
            (report.s0_hat, report.c_hat, report.rho_max)
        assert report.s0_hat == 4.0


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

    @pytest.mark.parametrize("t_final", [1.5, 0.5])  # past / before T_min
    def test_all_degenerate_study_inconclusive(self, t_final):
        sc = build_scenario("transport", nx=51, t_final=t_final)
        report = estimate_observability(sc, members=[np.zeros((51, 1))] * 2)
        assert report.verdict == "INCONCLUSIVE"
        assert report.counterexample is None
        assert report.degenerate == 2

    def test_counterexample_skips_degenerate_members(self):
        sc = build_scenario("transport", nx=51, t_final=0.5)
        live = bump_profile(sc.grid, (0.0, 0.4), sc.n_comp)
        report = estimate_observability(
            sc, members=[np.zeros((51, 1)), live, 0.5 * live])
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.counterexample["member"] == 1
        assert report.counterexample["ratio"] == report.c_obs == \
            report.ratios[1]

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


class TestMirror:
    """Each study on coupled-varying and on its mirror image, with explicit
    members and their mirrors, a zero member among them: the same numbers
    to rounding, the same verdicts and degenerate counts."""

    @staticmethod
    def _pair(t_final=None):
        sc = build_scenario("coupled-varying", nx=41, t_final=t_final)
        return sc, mirror_scenario(sc)

    @staticmethod
    def _rows(sc):
        # seeds whose energy ratio passes 1 (most read 1.0, at t = 0)
        return [random_initial_profile(sc.grid, 2, seed)
                for seed in (3, 5)] + [np.zeros((41, 2))]

    @staticmethod
    def _same(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0, nan_ok=True)

    @pytest.mark.parametrize("t_final", [None, 0.5])  # past / before T_min
    def test_observability(self, t_final):
        sc, mirrored = self._pair(t_final)
        members = self._rows(sc)
        report = estimate_observability(sc, members=members)
        mirror = estimate_observability(
            mirrored, members=list(map(mirror_member, members)))
        self._same(mirror.ratios, report.ratios)
        assert mirror.t_min == pytest.approx(report.t_min, rel=1e-12)
        assert (mirror.verdict, mirror.degenerate) == \
            (report.verdict, report.degenerate)
        assert report.degenerate == 1

    def test_energy(self):
        sc, mirrored = self._pair()
        members = self._rows(sc)
        report = verify_energy_estimate(sc, members=members)
        mirror = verify_energy_estimate(
            mirrored, members=list(map(mirror_member, members)))
        self._same(mirror.ratios, report.ratios)
        self._same(mirror.c_energy, report.c_energy)
        assert mirror.degenerate == report.degenerate == 1

    def test_carleman_scan(self):
        sc, mirrored = self._pair()
        members = [random_smooth_separable(sc.grid, 2, seed)
                   for seed in range(2)]
        members += [members[0].materialize(), GridFunction.zeros(sc.grid, 2)]
        s_grid = (1.0, 4.0, 16.0)
        report = scan_carleman(sc, s_grid=s_grid, members=members)
        mirror = scan_carleman(mirrored, s_grid=s_grid,
                               members=list(map(mirror_member, members)))
        self._same([r.ratio for r in mirror.coarse.rows],
                   [r.ratio for r in report.coarse.rows])
        self._same(mirror.rho_max, report.rho_max)
        assert (mirror.s0_hat, mirror.coarse.degenerate) == \
            (report.s0_hat, report.coarse.degenerate)
        assert report.coarse.degenerate == 1

    def test_hypothesis_report(self):
        sc, mirrored = self._pair()
        report, mirror = map(check_hypotheses, (sc, mirrored))
        assert _constants(mirror) == _constants(report)
        assert mirror.verdicts == report.verdicts
        assert (mirror.boundary_labels == report.boundary_labels[::-1]).all()
        # the weight and eta minima sit at one node each; h0 = I ties at
        # every node, so only its value is compared
        span = sc.grid.x_lo + sc.grid.x_hi
        for name in ("weight_coercivity", "eta_coercivity"):
            x, t, lam = report.witnesses[name]
            assert mirror.witnesses[name] == \
                pytest.approx((span - x, t, lam), rel=0.0, abs=1e-15)
        assert mirror.witnesses["h0_bounds"][2] == \
            report.witnesses["h0_bounds"][2]

    def test_admissible_time_nodes(self):
        sc, mirrored = self._pair()
        assert admissible_time_nodes(mirrored) == admissible_time_nodes(sc) \
            == 580

    @pytest.mark.parametrize("name", ["transport", "coupled-spd",
                                      "coupled-varying"])
    def test_identity_defects(self, name):
        sc = build_scenario(name, nx=41)
        mirrored = mirror_scenario(sc)
        w = random_smooth_separable(sc.grid, sc.n_comp, 0).materialize()
        for axis in "xt":
            assert ibp_identity_defect(mirror_member(w), mirrored, axis) == \
                ibp_identity_defect(w, sc, axis)
        # the conjugation defect cancels O(1) terms down to O(h^2), so its
        # relative rounding is about 1e-16 / h^2: 1.6e-13 at nx 41
        for s in (1.0, 4.0, 16.0):
            assert conjugation_defect(mirror_member(w), mirrored, s) == \
                pytest.approx(conjugation_defect(w, sc, s), rel=1e-11, abs=0.0)


class TestComponentOrder:
    """Each study on coupled-varying and on it with its two components
    swapped (h -> P h P^T), with explicit members and their swaps, a zero
    member among them: the same constants and ratios to rounding."""

    @staticmethod
    def _pair():
        sc = build_scenario("coupled-varying", nx=41)
        return sc, permute_scenario(sc)

    def test_hypothesis_report(self):
        report, permuted = map(check_hypotheses, self._pair())
        TestMirror._same(_constants(permuted), _constants(report))
        assert permuted.verdicts == report.verdicts

    @pytest.mark.parametrize("study", [estimate_observability,
                                       verify_energy_estimate])
    def test_marched_studies(self, study):
        sc, permuted = self._pair()
        members = TestMirror._rows(sc)
        report = study(sc, members=members)
        swapped = study(permuted, members=list(map(permute_member, members)))
        TestMirror._same(swapped.ratios, report.ratios)
        assert swapped.degenerate == report.degenerate == 1

    def test_carleman_scan(self):
        sc, permuted = self._pair()
        members = [random_smooth_separable(sc.grid, 2, seed)
                   for seed in range(2)]
        members += [members[0].materialize(), GridFunction.zeros(sc.grid, 2)]
        s_grid = (1.0, 4.0, 16.0)
        report = scan_carleman(sc, s_grid=s_grid, members=members)
        swapped = scan_carleman(permuted, s_grid=s_grid,
                                members=list(map(permute_member, members)))
        TestMirror._same([r.ratio for r in swapped.coarse.rows],
                   [r.ratio for r in report.coarse.rows])
        TestMirror._same(swapped.rho_max, report.rho_max)
        assert (swapped.s0_hat, swapped.coarse.degenerate) == \
            (report.s0_hat, report.coarse.degenerate)

    def test_identity_defects(self):
        sc, permuted = self._pair()
        w = random_smooth_separable(sc.grid, 2, 0).materialize()
        # reversed components reverse the order in which the ibp forms sum
        # their n^2 terms, so the x defect moves in its last bits (1.2e-14)
        for axis in "xt":
            assert ibp_identity_defect(permute_member(w), permuted, axis) == \
                pytest.approx(ibp_identity_defect(w, sc, axis), rel=1e-12,
                              abs=0.0)
        # rounding of about 1e-16 / h^2, as for the mirror (measured: equal)
        for s in (1.0, 4.0, 16.0):
            assert conjugation_defect(permute_member(w), permuted, s) == \
                pytest.approx(conjugation_defect(w, sc, s), rel=1e-11, abs=0.0)


#: transforms of a scenario, each with the same transform of a member
TRANSFORMS = {"mirror": (mirror_scenario, mirror_member),
              "permute": (permute_scenario, permute_member)}


class TestOtherScenarios:
    """The mirror and component-order relations beyond coupled-varying:
    n = 3 with speeds of both signs, the time-dependent speed
    1 + 0.5 sin 4t, boundary classes that switch at t = 1, and the other
    three catalog scenarios at nx 41, wave-type's failing checks among
    them.  Each study whose hypotheses hold runs with explicit members on
    the scenario's grid at its admissible nt."""

    #: name: (scenario, admissible nt, whether the coefficients depend on x,
    #: the studies whose hypotheses hold)
    SCENARIOS = {
        "speeds-mixed-3": (lambda: test_fields._speed_scenario(3, "mixed"),
                           356, True, ("energy",)),
        "pulsing": (
            lambda: test_functionals.TestSeparableMembers.scenario("pulsing"),
            121, False, ("energy", "observability", "carleman")),
        "switch": (test_functionals.TestBoundaryClassSwitch.scenario,
                   81, False, ("energy",)),
        **{name: (lambda name=name: build_scenario(name, nx=41), 161, False,
                  studies)
           for name, studies in (
               ("transport", ("energy", "observability", "carleman")),
               ("coupled-spd", ("energy", "observability", "carleman")),
               ("wave-type", ("energy",)))},
    }

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_hypothesis_report(self, name, transform):
        make, _, x_dependent, _ = self.SCENARIOS[name]
        sc = make()
        report = check_hypotheses(sc)
        other = check_hypotheses(TRANSFORMS[transform][0](sc))
        TestMirror._same(_constants(other), _constants(report))
        assert other.verdicts == report.verdicts
        mirrored = transform == "mirror"
        labels = report.boundary_labels
        assert (other.boundary_labels == (labels[::-1] if mirrored
                                          else labels)).all()
        # coefficients that do not depend on x tie along x, and both sides
        # name the first node of the tie
        span = sc.grid.x_lo + sc.grid.x_hi
        for check, (x, t, lam) in report.witnesses.items():
            if mirrored and x_dependent:
                x = span - x
            assert other.witnesses[check] == \
                pytest.approx((x, t, lam), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_admissible_time_nodes(self, name):
        make, nt, _, _ = self.SCENARIOS[name]
        sc = make()
        assert [admissible_time_nodes(f(sc)) for f, _ in
                TRANSFORMS.values()] == [admissible_time_nodes(sc)] * 2 == \
            [nt] * 2

    @staticmethod
    def _study(study, sc, members):
        """The numbers a study prints, as one list, and its exact fields."""
        if study == "carleman":
            report = scan_carleman(sc, s_grid=(1.0, 4.0, 16.0),
                                   members=members)
            ratios = [r.ratio for r in report.coarse.rows]
            return (ratios + list(report.rho_max),
                    (report.s0_hat, report.coarse.degenerate))
        if study == "observability":
            report = estimate_observability(sc, members=members)
            return (list(report.ratios) + [report.t_min],
                    (report.verdict, report.degenerate))
        report = verify_energy_estimate(sc, members=members)
        return list(report.ratios) + [report.c_energy], report.degenerate

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("name, study", [
        (name, study) for name, (*_, studies) in SCENARIOS.items()
        for study in studies])
    def test_studies(self, name, study, transform):
        make, nt, _, _ = self.SCENARIOS[name]
        sc = make()
        sc = sc.with_grid(replace(sc.grid, nt=nt))  # the Courant bound's nt
        grid, n = sc.grid, sc.n_comp
        if study == "carleman":
            members = [random_smooth_separable(grid, n, seed)
                       for seed in range(2)]
            members += [members[0].materialize(), GridFunction.zeros(grid, n)]
        else:
            members = [random_initial_profile(grid, n, seed)
                       for seed in (3, 5)] + [np.zeros((grid.nx, n))]
        to_scenario, to_member = TRANSFORMS[transform]
        numbers, fields = self._study(study, sc, members)
        other, other_fields = self._study(study, to_scenario(sc),
                                          list(map(to_member, members)))
        TestMirror._same(other, numbers)
        assert other_fields == fields

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("name", ["transport", "coupled-spd",
                                      "wave-type"])
    def test_identity_defects(self, name, transform):
        make, *_ = self.SCENARIOS[name]
        sc = make()
        to_scenario, to_member = TRANSFORMS[transform]
        other = to_scenario(sc)
        w = random_smooth_separable(sc.grid, sc.n_comp, 0).materialize()
        # the mirror keeps every bit; reversed components reverse the order
        # of the ibp forms' n^2 terms (coupled-spd's x defect: 3.5e-14)
        rel = 0.0 if transform == "mirror" else 1e-12
        for axis in "xt":
            assert ibp_identity_defect(to_member(w), other, axis) == \
                pytest.approx(ibp_identity_defect(w, sc, axis), rel=rel,
                              abs=0.0)
        # rounding of about 1e-16 / h^2, as in TestMirror
        for s in (1.0, 4.0, 16.0):
            assert conjugation_defect(to_member(w), other, s) == \
                pytest.approx(conjugation_defect(w, sc, s), rel=1e-11, abs=0.0)
