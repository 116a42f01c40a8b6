"""Hypothesis checks: analytic constants, boundary partition, beta selection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symhyp import (
    BetaSelectionError,
    BoundaryLabel,
    Scenario,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    build_scenario,
    check_eta_coercivity,
    check_h0_bounds,
    check_hypotheses,
    check_weight_coercivity,
    classify_boundary,
    classify_boundary_series,
    eig_bounds,
    minimal_time,
    select_beta,
)
from symhyp.fields import ROW_BLOCK

from conftest import scalar_scenario, system_scenario

SPD = [[2.0, 1.0], [1.0, 2.0]]
INDEFINITE = [[0.0, 1.0], [1.0, 0.0]]


class TestClassifyBoundary:
    def test_scalar_sign(self):
        sc = scalar_scenario()
        labels = classify_boundary(sc, 0.0)
        assert labels["x_hi"] is BoundaryLabel.PLUS
        assert labels["x_lo"] is BoundaryLabel.MINUS

    def test_indefinite_gives_neither(self):
        # witnesses that the partition need not cover the whole boundary
        sc = system_scenario(np.eye(2), INDEFINITE)
        labels = classify_boundary(sc, 0.5)
        assert labels["x_lo"] is BoundaryLabel.NEITHER
        assert labels["x_hi"] is BoundaryLabel.NEITHER

    def test_definite_flux_flips_sign(self):
        sc = system_scenario(SPD, SPD)
        labels = classify_boundary(sc, 0.0)
        assert labels["x_hi"] is BoundaryLabel.PLUS   # lambda_min = 1
        assert labels["x_lo"] is BoundaryLabel.MINUS  # lambda_max = -1

    def test_series_is_total(self):
        sc = system_scenario(SPD, SPD, nt=17)
        labels = classify_boundary_series(sc)
        assert labels.shape == (2, 17)
        assert all(isinstance(v, BoundaryLabel) for v in labels.ravel())

    def test_classification_coherence_random_vectors(self):
        # PLUS: strictly positive quadratic form; MINUS: nonpositive
        sc = system_scenario(SPD, SPD)
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((100, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        h1 = np.asarray(SPD)
        for side, nu, label in (("x_hi", 1.0, BoundaryLabel.PLUS),
                                ("x_lo", -1.0, BoundaryLabel.MINUS)):
            forms = np.einsum("ab,vb,va->v", nu * h1, vecs, vecs)
            if label is BoundaryLabel.PLUS:
                assert np.all(forms > 0)
            else:
                assert np.all(forms <= 0)


class TestWeightCoercivity:
    def test_scalar_transport(self):
        sc = scalar_scenario(beta=0.5)
        res = check_weight_coercivity(sc)
        assert res.passed
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_indefinite_fails_with_witness(self):
        sc = system_scenario(np.eye(2), INDEFINITE, beta=0.5)
        res = check_weight_coercivity(sc)
        assert not res.passed
        assert res.value == pytest.approx(-1.5, abs=1e-12)  # -beta - 1
        assert 0.0 <= res.worst_x <= 1.0

    def test_spd_pair(self):
        sc = system_scenario(SPD, SPD, beta=0.5)
        res = check_weight_coercivity(sc)
        assert res.value == pytest.approx(0.5, abs=1e-12)


class TestEtaCoercivity:
    def test_spd(self):
        assert check_eta_coercivity(system_scenario(SPD, SPD)).value == \
            pytest.approx(1.0, abs=1e-12)

    def test_indefinite_fails(self):
        res = check_eta_coercivity(system_scenario(np.eye(2), INDEFINITE))
        assert not res.passed
        assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_scalar_steeper_eta(self):
        sc = scalar_scenario(eta_slope=2.0)
        assert check_eta_coercivity(sc).value == pytest.approx(2.0, abs=1e-12)


class TestH0Bounds:
    def test_identity(self):
        res = check_h0_bounds(system_scenario(np.eye(2), SPD))
        assert (res.delta1, res.M) == pytest.approx((1.0, 1.0))

    def test_spd(self):
        res = check_h0_bounds(system_scenario(SPD, SPD))
        assert (res.delta1, res.M) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_indefinite_fails(self):
        res = check_h0_bounds(system_scenario([[1.0, 2.0], [2.0, 1.0]], SPD))
        assert not res.passed
        assert res.delta1 == pytest.approx(-1.0, abs=1e-12)


class TestMinimalTime:
    def test_direct_substitution(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 3)
        eta = SpatialWeight.linear(1.0)
        assert minimal_time(eta, 1.0, 1.0, grid) == pytest.approx(1.0)
        assert minimal_time(eta, 1.0, 3.0, grid) == pytest.approx(3.0)

    def test_constant_eta_degenerate(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 3)
        eta = SpatialWeight.linear(0.0, 1.0)
        assert minimal_time(eta, 1.0, 1.0, grid) == 0.0

    def test_invariant_under_eta_scaling(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 101, 3)
        c = 3.7
        base = minimal_time(SpatialWeight.linear(1.0), 1.0, 2.0, grid)
        scaled = minimal_time(SpatialWeight.linear(c), c * 1.0, 2.0, grid)
        assert scaled == pytest.approx(base, abs=1e-10)


class TestSelectBeta:
    def test_midpoint_arithmetic(self):
        grid = SpaceTimeGrid(0.0, 1.0, 2.0, 11, 3)
        sel = select_beta(1.0, 1.0, SpatialWeight.linear(1.0), grid)
        assert sel.window == pytest.approx((0.5, 1.0))
        assert sel.beta == pytest.approx(0.75)
        assert sel.delta == pytest.approx(0.25)
        assert sel.delta2 == pytest.approx(0.5)

    def test_empty_window_fails(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 3)
        with pytest.raises(BetaSelectionError):
            select_beta(1.0, 1.0, SpatialWeight.linear(1.0), grid)

    def test_wider_window(self):
        grid = SpaceTimeGrid(0.0, 1.0, 1.0, 11, 3)
        sel = select_beta(2.0, 1.0, SpatialWeight.linear(1.0), grid)
        assert sel.beta == pytest.approx(1.5)
        assert sel.delta == pytest.approx(0.5)
        assert sel.delta2 == pytest.approx(0.5)

    @settings(deadline=None, max_examples=50)
    @given(delta0=st.floats(0.5, 4.0), m=st.floats(0.5, 4.0),
           t=st.floats(0.1, 50.0), frac=st.floats(0.05, 0.45))
    def test_monotonicity_in_beta(self, delta0, m, t, frac):
        # inside the admissible window, growing beta trades delta for delta2
        grid = SpaceTimeGrid(0.0, 1.0, t, 11, 3)
        osc = 1.0
        lo, hi = osc / t, delta0 / m
        if not lo < hi:
            return
        b1 = lo + frac * (hi - lo)
        b2 = lo + (frac + 0.5) * (hi - lo)
        d1, d2 = delta0 - b1 * m, delta0 - b2 * m
        g1, g2 = b1 * t - osc, b2 * t - osc
        assert d2 < d1 and g2 > g1


class TestConsistency:
    @pytest.mark.parametrize("name,beta", [("transport", 0.3),
                                           ("coupled-varying", 0.7),
                                           ("coupled-spd", 0.2)])
    def test_weight_coercivity_follows_from_parts(self, name, beta):
        # beta < delta0 / M forces delta >= delta0 - beta * M
        sc = build_scenario(name, nx=51, beta=beta)
        eta_c = check_eta_coercivity(sc)
        h0b = check_h0_bounds(sc)
        assert eta_c.passed and h0b.passed
        if beta < eta_c.value / h0b.M:
            res = check_weight_coercivity(sc)
            assert res.passed
            assert res.value >= eta_c.value - beta * h0b.M - 1e-10


class TestHypothesisReport:
    def test_wave_type_failure_shape(self):
        sc = build_scenario("wave-type", nx=51)
        report = check_hypotheses(sc)
        assert not report.passed
        assert not report.verdicts["weight_coercivity"]
        assert not report.verdicts["eta_coercivity"]
        assert report.verdicts["h0_bounds"]
        assert report.delta == pytest.approx(-1.5, abs=1e-12)
        assert report.delta0 == pytest.approx(-1.0, abs=1e-12)
        assert math.isnan(report.T_min)
        text = report.to_text()
        assert "verdict.weight_coercivity=FAIL" in text
        assert "witness.eta_coercivity" in text

    def test_transport_report_constants(self):
        sc = build_scenario("transport", nx=51)
        report = check_hypotheses(sc)
        assert report.passed
        assert report.delta0 == pytest.approx(1.0, abs=1e-12)
        assert report.delta1 == pytest.approx(1.0, abs=1e-12)
        assert report.M == pytest.approx(1.0, abs=1e-12)
        assert report.T_min == pytest.approx(1.0, abs=1e-12)
        assert report.delta == pytest.approx(1.0 - 0.75, abs=1e-12)
        assert report.delta2 == pytest.approx(0.75 * 2.0 - 1.0, abs=1e-12)

    def test_classification_rows_total(self):
        sc = build_scenario("transport", nx=51, nt=33)
        report = check_hypotheses(sc)
        rows = report.classification_rows(sc.grid)
        assert len(rows) == 2 * 33
        assert {r[0] for r in rows} == {"x_lo", "x_hi"}
        assert {r[4] for r in rows} == {"MINUS", "PLUS"}

    def test_delta1_not_above_m_when_passing(self):
        for name in ("transport", "coupled-spd", "coupled-varying"):
            report = check_hypotheses(build_scenario(name, nx=51))
            if report.verdicts["h0_bounds"]:
                assert report.delta1 <= report.M


class TestTimeDependentSamples:
    """h0 = I, h1 = [[2 + x + 0.5 sin 4t, 1], [1, 2]] on 101 x 1601 nodes,
    T = 2: 5.2 MB of h1 samples, whose eigenvalues are smallest where
    sin 4t = -1, at t = 3 pi / 8, past the first ROW_BLOCK rows."""

    @staticmethod
    def scenario():
        # written entry by entry, so that the field's own temporaries stay
        # below those of sampling
        def h1(x, t):
            out = np.empty(np.broadcast_shapes(x.shape, t.shape) + (2, 2))
            out[..., 0, 0] = 2.0 + x + 0.5 * np.sin(4.0 * t)
            out[..., 0, 1] = out[..., 1, 0] = 1.0
            out[..., 1, 1] = 2.0
            return out

        return Scenario(name="timedep-h1",
                        grid=SpaceTimeGrid(0.0, 1.0, 2.0, 101, 1601),
                        n_comp=2, h0=SymMatrixField.constant(np.eye(2)),
                        h1=SymMatrixField(2, h1, time_independent=False),
                        eta=SpatialWeight.linear(1.0), beta=0.5)

    def test_row_blocks_match_every_node_at_once(self):
        sc = self.scenario()
        etax = sc.eta.derivative(sc.grid.x)[None, :, None, None]
        for check, mats in ((check_weight_coercivity,
                             -sc.beta * sc.samples.h0 + etax * sc.samples.h1),
                            (check_eta_coercivity, etax * sc.samples.h1)):
            res = check(sc)
            lmin = eig_bounds(mats)[0]
            n, i = np.unravel_index(int(np.argmin(lmin)), lmin.shape)
            assert n > 3 * ROW_BLOCK
            assert res.value == float(lmin.min())
            assert (res.worst_x, res.worst_t) == sc.grid.node(int(i), int(n))

    def test_sampling_and_checks_bound_their_temporaries(self):
        # sampling may add two arrays of one entry's samples, a quarter of
        # h1 each; the checks hold their eigenvalue bounds and one row
        # block's matrices.  Forming the defect and the checks over every
        # node at once peaked at 3.0 and 2.25 times the h1 samples
        sc = self.scenario()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h1 = sc.samples.h1
            sampled = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = check_hypotheses(sc)
            checked = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.passed
        assert sampled < 1.6 * h1.nbytes, (sampled, h1.nbytes)
        assert checked < 0.75 * h1.nbytes, (checked, h1.nbytes)
