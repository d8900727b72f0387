"""Bit-identity of the batched kernel against the reference loops.

``simulate_batch(specs)[i]`` must equal
``simulate_single(**specs[i], backend="reference")`` bit-for-bit, and
``simulate_network_runs`` likewise against the reference
``simulate_network`` — across policies, info models, ragged horizons,
mixed eligibility, and both scan implementations (forced via the
``REPRO_NATIVE_SCAN`` environment flag).  The default single-run
backends are a batch of one, so only the reference backend, which
draws and loops on its own, is an independent check.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggressivePolicy, solve_greedy
from repro.core.baselines import (
    AgeThresholdPolicy,
    energy_balanced_period,
    solve_ebcw,
)
from repro.core.battery_aware import OverflowGuardPolicy
from repro.core.clustering import optimize_clustering
from repro.core.multi import MultiAggressiveCoordinator, make_multi_periodic
from repro.core.policy import InfoModel, VectorPolicy
from repro.energy import BernoulliRecharge, ConstantRecharge
from repro.events import WeibullInterArrival
from repro.exceptions import SimulationError
from repro.sim import (
    NetworkRunSpec,
    RunSpec,
    simulate_batch,
    simulate_network,
    simulate_network_runs,
    simulate_single,
    spawn_seeds,
)

DELTA1, DELTA2 = 1.0, 6.0


@pytest.fixture(params=["native", "numpy"])
def kernel_impl(request, monkeypatch):
    """Run each test against both scan implementations."""
    monkeypatch.setenv(
        "REPRO_NATIVE_SCAN", "1" if request.param == "native" else "0"
    )
    return request.param


def _reference_single(spec: RunSpec):
    return simulate_single(
        distribution=spec.distribution,
        policy=spec.policy,
        recharge=spec.recharge,
        capacity=spec.capacity,
        delta1=spec.delta1,
        delta2=spec.delta2,
        horizon=spec.horizon,
        seed=spec.seed,
        initial_energy=spec.initial_energy,
        collect_battery_trace=spec.collect_battery_trace,
        backend="reference",
    )


def _reference_network(spec: NetworkRunSpec):
    return simulate_network(
        distribution=spec.distribution,
        coordinator=spec.coordinator,
        recharge=spec.recharge,
        capacity=spec.capacity,
        delta1=spec.delta1,
        delta2=spec.delta2,
        horizon=spec.horizon,
        seed=spec.seed,
        initial_energy=spec.initial_energy,
        backend="reference",
    )


def _spec(weibull, policy, **overrides) -> RunSpec:
    fields = dict(
        distribution=weibull,
        policy=policy,
        recharge=BernoulliRecharge(0.5, 1.0),
        capacity=40.0,
        delta1=DELTA1,
        delta2=DELTA2,
        horizon=700,
        seed=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def _policies(weibull):
    return [
        AggressivePolicy(),
        AggressivePolicy(info_model=InfoModel.FULL),
        solve_greedy(weibull, 0.5, DELTA1, DELTA2).as_policy(),
        optimize_clustering(weibull, 0.5, DELTA1, DELTA2).policy,
        solve_ebcw(weibull, 0.5, DELTA1, DELTA2).policy,
        energy_balanced_period(weibull, 0.5, DELTA1, DELTA2),
        AgeThresholdPolicy(25),
    ]


class TestBatchBitIdentity:
    def test_every_policy_matches_per_run(self, weibull, kernel_impl):
        """One batch over all shipped policy classes, distinct seeds."""
        specs = [
            _spec(weibull, policy, seed=seed)
            for seed, policy in enumerate(_policies(weibull))
        ]
        batch = simulate_batch(specs)
        singles = [_reference_single(s) for s in specs]
        assert batch == singles

    def test_ragged_horizons_and_capacities(self, weibull, kernel_impl):
        """Runs of different lengths pack into one padded batch."""
        horizons = [0, 1, 17, 350, 701]
        specs = [
            _spec(
                weibull, AggressivePolicy(),
                horizon=h, capacity=cap, seed=i,
            )
            for i, (h, cap) in enumerate(
                zip(horizons, [40.0, 0.0, 6.9, 1000.0, 40.0])
            )
        ]
        assert simulate_batch(specs) == [_reference_single(s) for s in specs]

    def test_seed_kinds_match_per_run(self, weibull, kernel_impl):
        """Int, SeedSequence, spawned-child and huge-entropy seeds."""
        seeds = [
            0,
            12345,
            2**40 + 7,
            2**100 + 13,
            np.random.SeedSequence(5),
            np.random.SeedSequence(entropy=9, spawn_key=(3,)),
            spawn_seeds(123, 2)[1],
        ]
        specs = [
            _spec(weibull, AggressivePolicy(), seed=s, horizon=200)
            for s in seeds
        ]
        assert simulate_batch(specs) == [_reference_single(s) for s in specs]

    def test_mixed_eligibility_preserves_order(self, weibull, kernel_impl):
        """Ineligible runs peel to the reference loop, in place."""
        guard = OverflowGuardPolicy(AggressivePolicy(), high_watermark=0.5)
        specs = [
            _spec(weibull, AggressivePolicy(), seed=0),
            _spec(weibull, guard, seed=1),
            _spec(weibull, AggressivePolicy(), seed=2),
        ]
        batch = simulate_batch(specs)
        singles = [_reference_single(s) for s in specs]
        assert batch == singles

    def test_battery_trace_runs_match(self, weibull, kernel_impl):
        """Trace collection forces the reference loop but stays exact."""
        spec = _spec(
            weibull, AggressivePolicy(), collect_battery_trace=True,
            horizon=120,
        )
        (got,) = simulate_batch([spec])
        want = _reference_single(spec)
        assert got.sensors == want.sensors
        assert got.n_events == want.n_events
        np.testing.assert_array_equal(got.battery_trace, want.battery_trace)

    def test_reference_backend_matches(self, weibull, kernel_impl):
        specs = [
            _spec(weibull, p, seed=i, horizon=150)
            for i, p in enumerate(_policies(weibull)[:3])
        ]
        assert simulate_batch(specs, backend="reference") == [
            _reference_single(s) for s in specs
        ]

    def test_constant_recharge_overflow(self, weibull, kernel_impl):
        spec = _spec(
            weibull, AggressivePolicy(), recharge=ConstantRecharge(2.0),
            capacity=10.0,
        )
        assert simulate_batch([spec]) == [_reference_single(spec)]

    def test_empty_batch(self, kernel_impl):
        assert simulate_batch([]) == []

    def test_batch_records_run_manifest_events(self, weibull):
        """Each spec in a batch emits a simulation_run manifest event.

        Regression: the batched `--replicates` CLI path produced a
        telemetry manifest with an empty ``runs`` list because only
        ``simulate_single`` recorded run events.
        """
        from repro.devtools import telemetry

        guard = OverflowGuardPolicy(AggressivePolicy(), high_watermark=0.5)
        specs = [
            _spec(weibull, AggressivePolicy(), seed=0, horizon=50),
            _spec(weibull, guard, seed=1, horizon=50),
        ]
        with telemetry.collect() as collection:
            simulate_batch(specs)
        runs = [
            e for e in collection.snapshot()["events"]
            if e.get("kind") == "simulation_run"
        ]
        assert len(runs) == 2
        assert {r["entry"] for r in runs} == {"simulate_batch"}
        assert {r["backend"] for r in runs} == {"vectorized", "reference"}
        assert all("seed" in r for r in runs)

    @pytest.mark.parametrize("m", [1, 2, 3, 64])
    def test_batch_sizes_match_per_run(self, weibull, kernel_impl, m):
        """Replicate-shaped batches: one policy, M spawned seeds."""
        specs = [
            _spec(weibull, AggressivePolicy(), seed=s, horizon=300)
            for s in spawn_seeds(7, m)
        ]
        assert simulate_batch(specs) == [_reference_single(s) for s in specs]


class TestBatchDispatch:
    def test_vectorized_rejects_ineligible(self, weibull):
        guard = OverflowGuardPolicy(AggressivePolicy(), high_watermark=0.5)
        with pytest.raises(SimulationError, match="battery-aware"):
            simulate_batch(
                [_spec(weibull, guard)], backend="vectorized"
            )

    def test_unknown_backend_rejected(self, weibull):
        with pytest.raises(SimulationError, match="backend"):
            simulate_batch(
                [_spec(weibull, AggressivePolicy())], backend="warp"
            )

    def test_invalid_spec_reports_index(self, weibull):
        specs = [
            _spec(weibull, AggressivePolicy()),
            _spec(weibull, AggressivePolicy(), horizon=-1),
        ]
        with pytest.raises(SimulationError, match="spec 1"):
            simulate_batch(specs)


class TestNetworkRuns:
    def _net_spec(self, weibull, coordinator, **overrides) -> NetworkRunSpec:
        fields = dict(
            distribution=weibull,
            coordinator=coordinator,
            recharge=BernoulliRecharge(0.1, 1.0),
            capacity=50.0,
            delta1=DELTA1,
            delta2=DELTA2,
            horizon=400,
            seed=11,
        )
        fields.update(overrides)
        return NetworkRunSpec(**fields)

    def test_mixed_fleets_match_per_run(self, weibull, kernel_impl):
        """Different coordinators and sensor counts in one batch."""
        specs = [
            self._net_spec(
                weibull, MultiAggressiveCoordinator(n), seed=n, horizon=h
            )
            for n, h in [(1, 400), (3, 250), (5, 0)]
        ] + [
            self._net_spec(
                weibull,
                make_multi_periodic(weibull, 0.1, 2, DELTA1, DELTA2),
                seed=9,
            )
        ]
        batch = simulate_network_runs(specs)
        singles = [_reference_network(s) for s in specs]
        assert batch == singles

    def test_reference_backend_matches(self, weibull, kernel_impl):
        spec = self._net_spec(
            weibull, MultiAggressiveCoordinator(2), horizon=200
        )
        assert simulate_network_runs([spec], backend="reference") == [
            _reference_network(spec)
        ]

    def test_empty(self, kernel_impl):
        assert simulate_network_runs([]) == []


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=6),
        horizon=st.integers(0, 400),
        ragged=st.booleans(),
        capacity=st.sampled_from([0.0, 6.9, 40.0, 1000.0]),
        p_hot=st.floats(0.0, 1.0),
        tail=st.floats(0.0, 1.0),
        full_info=st.booleans(),
        q=st.floats(0.1, 1.0),
        force_numpy=st.booleans(),
    )
    def test_random_batches_bit_identical(
        self, seeds, horizon, ragged, capacity, p_hot, tail,
        full_info, q, force_numpy,
    ):
        policy = VectorPolicy(
            np.array([p_hot, tail / 2.0, p_hot / 3.0]),
            tail=tail,
            info_model=InfoModel.FULL if full_info else InfoModel.PARTIAL,
        )
        distribution = WeibullInterArrival(20, 2)
        recharge = BernoulliRecharge(q, 0.7)
        specs = [
            RunSpec(
                distribution=distribution,
                policy=policy,
                recharge=recharge,
                capacity=capacity,
                delta1=DELTA1,
                delta2=DELTA2,
                horizon=horizon + (i if ragged else 0),
                seed=seed,
            )
            for i, seed in enumerate(seeds)
        ]
        previous = os.environ.get("REPRO_NATIVE_SCAN")
        os.environ["REPRO_NATIVE_SCAN"] = "0" if force_numpy else "1"
        try:
            batch = simulate_batch(specs)
        finally:
            if previous is None:
                del os.environ["REPRO_NATIVE_SCAN"]
            else:
                os.environ["REPRO_NATIVE_SCAN"] = previous
        assert batch == [_reference_single(s) for s in specs]
