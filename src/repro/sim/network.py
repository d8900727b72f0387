"""Multi-sensor slotted simulation (paper Sec. V and VI-B).

Runs ``N`` identical sensors against one event stream under a
:class:`~repro.core.multi.Coordinator`.  Each sensor owns its battery and
an independent recharge stream; the coordinator picks at most one
responsible sensor per slot and that sensor's activation probability.
Recency semantics follow the coordinator's information model: under full
information every sensor learns each event occurrence, under partial
information only network captures (broadcast by the sink) renew the
shared state.

Backends
--------
``simulate_network`` accepts ``backend="auto" | "reference" | "vectorized"``
with the same contract as :func:`repro.sim.simulate_single`: the
reference backend is the readable per-slot loop below, the vectorized
backend runs the call as a batch of one through
:func:`repro.sim.batch_kernel.simulate_network_runs` (compiled scan, or
the numpy scans of :mod:`repro.sim.network_kernel`) and is bit-identical
to it.  ``auto`` uses the kernel whenever the coordinator is eligible
and falls back to the reference loop otherwise, recording why.

Like the single-sensor engine, each sensor's battery is maintained in
*reflected* form — ``battery_s = (neg_s + cum_s) - shave_s`` with
``cum_s`` the per-sensor cumulative recharge, ``neg_s`` the initial
energy minus activation costs, and ``shave_s`` the running overflow
maximum — so the per-slot loop and the vectorized scans perform the same
floating-point operations in the same order (see DESIGN.md §8/§10).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.multi import NO_SENSOR, Coordinator
from repro.core.policy import InfoModel
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.events.renewal import generate_event_flags
from repro.exceptions import SimulationError
from repro.sim.engine import BACKENDS
from repro.sim.metrics import AoIStats, SensorStats, SimulationResult
from repro.sim.parallel import parallel_map, resolve_n_jobs
from repro.sim.rng import SeedLike, make_rng, spawn


def simulate_network(
    distribution: InterArrivalDistribution,
    coordinator: Coordinator,
    recharge: RechargeProcess,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike = None,
    initial_energy: Optional[float] = None,
    backend: str = "auto",
) -> SimulationResult:
    """Simulate ``coordinator.n_sensors`` sensors for ``horizon`` slots.

    Every sensor gets an independent recharge stream drawn from the same
    ``recharge`` process (the paper's setting: identical sensors,
    identical average rate ``e``).

    ``backend`` selects the execution engine: ``"reference"`` forces the
    per-slot Python loop, ``"vectorized"`` forces the fast network
    kernel (and raises :class:`SimulationError` when the coordinator is
    not eligible), ``"auto"`` uses the kernel whenever it is eligible.
    All backends are bit-identical.  ``"auto"`` and ``"vectorized"`` run
    the call as a batch of one
    (:func:`repro.sim.batch_kernel.simulate_network_runs`); the
    reference backend draws and loops here, independent of the packer.
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend != "reference":
        # Runtime import: batch_kernel reaches back into this module for
        # its reference fallback.
        from repro.sim import batch_kernel

        spec = batch_kernel.NetworkRunSpec(
            distribution=distribution,
            coordinator=coordinator,
            recharge=recharge,
            capacity=capacity,
            delta1=delta1,
            delta2=delta2,
            horizon=horizon,
            seed=seed,
            initial_energy=initial_energy,
        )
        with batch_kernel.recorded_as("simulate_network"):
            return batch_kernel.simulate_network_runs([spec], backend)[0]

    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity}")
    n = coordinator.n_sensors
    rng = make_rng(seed)
    event_rng, coin_rng, *recharge_rngs = spawn(rng, 2 + n)

    events = generate_event_flags(distribution, horizon, event_rng)
    coins = coin_rng.random(horizon)
    recharge_rows = np.stack(
        [
            np.asarray(recharge.sequence(horizon, r), dtype=np.float64)
            for r in recharge_rngs
        ]
    )

    start = capacity / 2.0 if initial_energy is None else float(initial_energy)
    if not 0 <= start <= capacity:
        raise SimulationError(f"initial energy {start} outside [0, {capacity}]")

    coordinator.reset()
    _record_network_run(coordinator, capacity, delta1, delta2, horizon, seed)
    return _simulate_network_reference(
        coordinator=coordinator,
        events=events,
        recharge_rows=recharge_rows,
        coins=coins,
        capacity=float(capacity),
        delta1=float(delta1),
        delta2=float(delta2),
        horizon=horizon,
        initial=start,
    )


def _record_network_run(
    coordinator: Coordinator,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike,
) -> None:
    """Emit the run-manifest event for one reference simulate_network call.

    Batched calls record theirs in
    :func:`repro.sim.batch_kernel._record_runs`, under the same entry.
    """
    if not telemetry.enabled():
        return
    telemetry.count("network.dispatch.reference")
    telemetry.event(
        "simulation_run",
        entry="simulate_network",
        backend="reference",
        coordinator=type(coordinator).__name__,
        n_sensors=int(coordinator.n_sensors),
        capacity=float(capacity),
        delta1=float(delta1),
        delta2=float(delta2),
        horizon=int(horizon),
        seed=telemetry.describe_seed(seed),
    )


def _simulate_network_reference(
    coordinator: Coordinator,
    events: np.ndarray,
    recharge_rows: np.ndarray,
    coins: np.ndarray,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
) -> SimulationResult:
    """The bit-exact per-slot reference loop (reflected battery form).

    Arrays are indexed directly (no ``.tolist()`` round-trips); the
    per-sensor cumulative recharge is precomputed with ``np.cumsum``,
    whose strictly sequential adds match a scalar running sum
    operation-for-operation.
    """
    n = coordinator.n_sensors
    activation_cost = delta1 + delta2
    cost_capture = delta1 + delta2

    # Reflected per-sensor battery state: the level before each decision
    # is (neg[s] + cum[s][t]) - shave[s].
    cum = np.cumsum(recharge_rows, axis=1)
    neg = [initial] * n
    shave = [0.0] * n

    activations = [0] * n
    captures_by = [0] * n
    blocked = [0] * n
    last_capture_by = [0] * n

    full_info = coordinator.info_model == InfoModel.FULL

    n_events = 0
    n_captures = 0
    recency = 1  # event at slot 0

    # System-level Age-of-Information accumulators: the sink's age
    # resets whenever *any* sensor captures (same closed gap forms as
    # the single-sensor engine, over the network capture sequence).
    aoi_area = 0
    aoi_sq = 0
    aoi_max = 0
    last_capture = 0

    for t in range(1, horizon + 1):
        # 1. Recharge every sensor (clip at capacity via the running shave).
        for s in range(n):
            over = (neg[s] + cum[s, t - 1]) - capacity
            if over > shave[s]:
                shave[s] = over

        # 2. The responsible sensor decides.
        sensor, prob = coordinator.decide(t, recency)
        active = False
        if sensor != NO_SENSOR and coins[t - 1] < prob:
            battery = (neg[sensor] + cum[sensor, t - 1]) - shave[sensor]
            if battery >= activation_cost:
                active = True
            else:
                blocked[sensor] += 1

        # 3. Event arrival / capture.
        event = events[t - 1]
        if event:
            n_events += 1
        captured = False
        if active:
            activations[sensor] += 1
            if event:
                captured = True
                n_captures += 1
                captures_by[sensor] += 1
                last_capture_by[sensor] = t
                neg[sensor] = neg[sensor] - cost_capture
                gap = t - last_capture
                aoi_area += gap * (gap - 1) // 2
                aoi_sq += ((gap - 1) * gap // 2) * (2 * gap - 1) // 3
                if gap - 1 > aoi_max:
                    aoi_max = gap - 1
                last_capture = t
            else:
                neg[sensor] = neg[sensor] - delta1

        # 4. Shared recency update.
        if full_info:
            recency = 1 if event else recency + 1
        else:
            recency = 1 if captured else recency + 1

    residual = horizon - last_capture
    aoi_area += residual * (residual + 1) // 2
    aoi_sq += (residual * (residual + 1) // 2) * (2 * residual + 1) // 3
    if residual > aoi_max:
        aoi_max = residual
    aoi = AoIStats(
        area=aoi_area,
        area_sq=aoi_sq,
        max_age=aoi_max,
        last_capture_slot=last_capture,
        n_resets=n_captures,
        horizon=horizon,
    )
    harvested = [float(cum[s, -1]) if horizon else 0.0 for s in range(n)]
    stats = tuple(
        SensorStats(
            activations=activations[s],
            captures=captures_by[s],
            energy_harvested=harvested[s],
            energy_consumed=activations[s] * delta1 + captures_by[s] * delta2,
            energy_overflow=shave[s],
            blocked_slots=blocked[s],
            final_battery=(neg[s] + harvested[s]) - shave[s],
            last_capture_slot=last_capture_by[s],
        )
        for s in range(n)
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=n_captures,
        sensors=stats,
        aoi=aoi,
    )


def simulate_network_batch(
    distribution: InterArrivalDistribution,
    coordinator: Coordinator,
    recharge: RechargeProcess,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seeds: Sequence[SeedLike],
    initial_energy: Optional[float] = None,
    n_jobs: Optional[int] = None,
    backend: str = "auto",
) -> List[SimulationResult]:
    """Run :func:`simulate_network` once per seed, optionally in parallel.

    Each run executes on the selected ``backend`` (the vectorized
    network kernel under ``"auto"`` whenever the coordinator is
    eligible); ``n_jobs`` additionally fans independent *runs* out
    across processes.  Results are returned in seed order and are
    identical to a serial loop for every ``n_jobs`` and ``backend``.

    Serial execution (``n_jobs`` of ``None`` or 1) packs all eligible
    runs into one batched scan call
    (:func:`repro.sim.batch_kernel.simulate_network_runs`) instead of
    dispatching them one at a time — bit-identical, just faster.
    """
    if resolve_n_jobs(n_jobs) == 1:
        # Runtime import: batch_kernel reaches back into this module
        # for its reference fallback.
        from repro.sim.batch_kernel import (
            NetworkRunSpec,
            simulate_network_runs,
        )

        return simulate_network_runs(
            [
                NetworkRunSpec(
                    distribution=distribution,
                    coordinator=coordinator,
                    recharge=recharge,
                    capacity=capacity,
                    delta1=delta1,
                    delta2=delta2,
                    horizon=horizon,
                    seed=seed,
                    initial_energy=initial_energy,
                )
                for seed in seeds
            ],
            backend=backend,
        )

    def _one(seed: SeedLike) -> SimulationResult:
        return simulate_network(
            distribution,
            coordinator,
            recharge,
            capacity=capacity,
            delta1=delta1,
            delta2=delta2,
            horizon=horizon,
            seed=seed,
            initial_energy=initial_energy,
            backend=backend,
        )

    return parallel_map(_one, list(seeds), n_jobs=n_jobs)
