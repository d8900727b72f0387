"""Tests for the clustering policy and its optimizer (paper Sec. IV-B2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusteringPolicy, evaluate_clustering, optimize_clustering
from repro.core.policy import InfoModel
from repro.events import EmpiricalInterArrival
from repro.exceptions import PolicyError

DELTA1, DELTA2 = 1.0, 6.0


class TestPolicyConstruction:
    def test_region_layout(self):
        p = ClusteringPolicy(n1=3, n2=6, n3=9, c_n1=0.4, c_n2=0.7, c_n3=0.2)
        v = p.vector
        np.testing.assert_allclose(v[:2], 0.0)          # cooling
        assert v[2] == pytest.approx(0.4)               # hot entry
        np.testing.assert_allclose(v[3:5], 1.0)         # hot interior
        assert v[5] == pytest.approx(0.7)               # hot exit
        np.testing.assert_allclose(v[6:8], 0.0)         # cooling 2
        assert v[8] == pytest.approx(0.2)               # recovery entry
        assert p.tail == 1.0                            # aggressive tail
        assert p.info_model == InfoModel.PARTIAL

    def test_single_slot_hot_region(self):
        p = ClusteringPolicy(n1=2, n2=2, n3=4, c_n1=0.5, c_n2=0.5)
        assert p.vector[1] == pytest.approx(0.5)  # common boundary value

    def test_single_slot_hot_region_rejects_contradiction(self):
        # The old behaviour silently ignored c_n2 when n1 == n2, making
        # the policy round-trip inconsistently through scaled().
        with pytest.raises(PolicyError):
            ClusteringPolicy(n1=2, n2=2, n3=4, c_n1=0.5, c_n2=0.9)

    def test_single_slot_hot_region_scaled_round_trip(self):
        p = ClusteringPolicy(n1=3, n2=3, n3=5, c_n1=0.8, c_n2=0.8)
        s = p.scaled(0.25)  # equal boundaries stay equal, no PolicyError
        assert s.c_n1 == pytest.approx(0.2)
        assert s.c_n2 == pytest.approx(0.2)
        assert s.vector[2] == pytest.approx(0.2)

    def test_single_slot_hot_region_tolerates_rounding(self):
        c = 0.1 + 0.2  # 0.30000000000000004
        p = ClusteringPolicy(n1=2, n2=2, n3=4, c_n1=c, c_n2=0.3)
        assert p.vector[1] == pytest.approx(0.3)

    def test_recovery_coincides_with_hot_exit(self):
        p = ClusteringPolicy(n1=1, n2=3, n3=3, c_n2=0.2, c_n3=0.8)
        assert p.vector[2] == pytest.approx(0.8)  # larger boundary wins

    def test_scaled(self):
        p = ClusteringPolicy(2, 4, 6, c_n1=0.8, c_n2=0.6, c_n3=1.0)
        s = p.scaled(0.5)
        assert s.c_n1 == pytest.approx(0.4)
        assert s.c_n2 == pytest.approx(0.3)
        assert s.c_n3 == pytest.approx(0.5)
        # interior hot slots stay at 1
        assert s.vector[2] == 1.0

    @pytest.mark.parametrize("n1,n2,n3", [(0, 1, 2), (3, 2, 4), (2, 5, 4)])
    def test_rejects_bad_boundaries(self, n1, n2, n3):
        with pytest.raises(PolicyError):
            ClusteringPolicy(n1, n2, n3)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(PolicyError):
            ClusteringPolicy(1, 2, 3, c_n1=1.5)
        with pytest.raises(PolicyError):
            ClusteringPolicy(1, 2, 3).scaled(2.0)


class TestEvaluation:
    def test_energy_and_qom_consistency(self, small_weibull):
        p = ClusteringPolicy(4, 8, 12)
        analysis = evaluate_clustering(small_weibull, p, DELTA1, DELTA2)
        assert 0 < analysis.qom <= 1
        assert analysis.energy_rate > 0
        assert analysis.expected_cycle == pytest.approx(
            small_weibull.mu / analysis.qom, rel=1e-6
        )

    def test_deterministic_perfect_capture(self):
        """Hot slot on the deterministic gap captures everything."""
        from repro.events import DeterministicInterArrival

        d = DeterministicInterArrival(5)
        p = ClusteringPolicy(5, 5, 6, c_n1=1.0)
        analysis = evaluate_clustering(d, p, DELTA1, DELTA2)
        assert analysis.qom == pytest.approx(1.0, abs=1e-9)
        assert analysis.energy_rate == pytest.approx(
            (DELTA1 + DELTA2) / 5.0, rel=1e-9
        )


class TestOptimizer:
    def test_respects_energy_budget(self, small_weibull):
        sol = optimize_clustering(small_weibull, 0.5, DELTA1, DELTA2)
        assert sol.energy_rate <= 0.5 * (1 + 1e-6)

    def test_beats_naive_structures(self, small_weibull):
        """The optimum must beat an arbitrary feasible clustering policy."""
        sol = optimize_clustering(small_weibull, 0.5, DELTA1, DELTA2)
        naive = ClusteringPolicy(1, 1, 30, c_n1=0.0, c_n2=0.0, c_n3=0.0)
        naive_analysis = evaluate_clustering(
            small_weibull, naive, DELTA1, DELTA2
        )
        if naive_analysis.energy_rate <= 0.5:
            assert sol.qom >= naive_analysis.qom - 1e-6

    def test_below_fi_bound(self, small_weibull):
        from repro.core import solve_greedy

        sol = optimize_clustering(small_weibull, 0.4, DELTA1, DELTA2)
        bound = solve_greedy(small_weibull, 0.4, DELTA1, DELTA2).qom
        assert sol.qom <= bound + 1e-6

    def test_qom_nondecreasing_in_e(self, small_weibull):
        qoms = [
            optimize_clustering(small_weibull, e, DELTA1, DELTA2).qom
            for e in (0.2, 0.5, 1.0)
        ]
        # Allow small search noise but preserve the trend.
        assert qoms[1] >= qoms[0] - 0.02
        assert qoms[2] >= qoms[1] - 0.02

    def test_saturating_rate_gives_full_capture(self, small_weibull):
        threshold = DELTA1 + DELTA2 / small_weibull.mu
        sol = optimize_clustering(small_weibull, threshold * 1.05, DELTA1, DELTA2)
        assert sol.qom == pytest.approx(1.0, abs=0.01)

    def test_tiny_rate_still_feasible(self, small_weibull):
        sol = optimize_clustering(small_weibull, 0.02, DELTA1, DELTA2)
        assert sol.energy_rate <= 0.02 * (1 + 1e-6)
        assert sol.qom > 0

    def test_negative_rate_rejected(self, small_weibull):
        with pytest.raises(PolicyError):
            optimize_clustering(small_weibull, -1.0, DELTA1, DELTA2)

    def test_two_slot_hot_region_lands_on_high_hazard(self):
        """For alpha = (0.2, 0.8) the hot region must include slot 2."""
        d = EmpiricalInterArrival([0.2, 0.8])
        sol = optimize_clustering(d, 0.5, DELTA1, DELTA2)
        p = sol.policy
        assert p.activation_probability(1, 2) > p.activation_probability(1, 1) - 1e-9

    def test_top_k_must_be_positive(self, small_weibull):
        with pytest.raises(PolicyError, match="top_k"):
            optimize_clustering(small_weibull, 0.5, DELTA1, DELTA2, top_k=0)

    def test_infeasible_finalists_fall_through_to_next_ranked(self):
        """Regression: every one of the ``top_k`` finalists of this
        re-solve turned infeasible at full tolerance, and the search
        raised "screened structures all became infeasible" instead of
        trying the next-ranked structures.  The input is the chunk-3
        re-solve of a partial-information adaptive trajectory on
        W(20, 3), constant recharge 0.5, capacity 200, seed 5004."""
        from repro.adaptive import AdaptiveController
        from repro.analysis.partial_info import clear_analysis_cache
        from repro.energy import ConstantRecharge
        from repro.events import WeibullInterArrival
        from repro.sim import ChunkedSimulator

        clear_analysis_cache()
        sim = ChunkedSimulator(
            WeibullInterArrival(20, 3), ConstantRecharge(0.5),
            capacity=200.0, delta1=DELTA1, delta2=DELTA2,
            total_horizon=6000, seed=5004, full_info=False,
        )
        controller = AdaptiveController(sim, e=0.5, chunk_slots=2000)
        for _ in range(3):
            controller.step()
        assert len(controller.history) == 3
