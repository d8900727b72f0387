"""Single-sensor slotted simulation engine (paper Sec. III-A, Fig. 1).

Each slot follows the paper's fixed update sequence:

1. the recharge ``e_t`` is applied (clipped at capacity ``K``);
2. the sensor takes its activation decision — only permitted when the
   battery holds at least ``delta1 + delta2``;
3. the event ``V_t``, if any, occurs; an active sensor captures it.

An active slot consumes ``delta1``; a capture consumes ``delta2`` more.
The recency state fed to the policy depends on its information model:
full information tracks slots since the last *event*, partial information
slots since the last *capture*.  An event is assumed at slot 0, so both
recencies start at 1.

Backends
--------
``simulate_single`` accepts ``backend="auto" | "reference" | "vectorized"``.
The reference backend is the readable per-slot Python loop below; the
vectorized backend runs the call as a batch of one through
:mod:`repro.sim.batch_kernel`, which replays the identical arithmetic in
a compiled scan (or numpy when no C compiler is available) and is
bit-identical to it.  Both consume the same three RNG sub-streams in the
same order, so a seed pins one trajectory regardless of backend.

To make bit-identity achievable the battery is maintained in *reflected*
form: instead of the clipped level ``B_t`` the loop tracks

* ``cum``   — the running sum of recharge amounts,
* ``neg``   — the initial energy minus all activation costs so far,
* ``shave`` — the running maximum of ``(neg + cum) - K`` (total overflow),

and the level before each decision is ``(neg + cum) - shave``.  This is
the Skorokhod-reflection solution of the clip recursion: exactly equal in
real arithmetic, and — because every term is a plain sequential sum — a
form that ``np.cumsum`` / ``np.subtract.accumulate`` / ``np.maximum``
reproduce operation-for-operation in floating point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policy import ActivationPolicy
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.events.renewal import generate_event_flags
from repro.exceptions import SimulationError
from repro.sim import kernel
from repro.sim.metrics import AoIStats, SensorStats, SimulationResult
from repro.sim.rng import SeedLike, make_rng, spawn

#: Valid values of the ``backend`` argument.
BACKENDS = ("auto", "reference", "vectorized")


def _record_run(
    policy: ActivationPolicy,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike,
) -> None:
    """Emit the run-manifest event for one reference simulate_single call.

    Batched calls record theirs in
    :func:`repro.sim.batch_kernel._record_runs`, under the same entry.
    """
    if not telemetry.enabled():
        return
    telemetry.count("sim.dispatch.reference")
    telemetry.event(
        "simulation_run",
        entry="simulate_single",
        backend="reference",
        policy=type(policy).__name__,
        capacity=float(capacity),
        delta1=float(delta1),
        delta2=float(delta2),
        horizon=int(horizon),
        seed=telemetry.describe_seed(seed),
    )


def simulate_single(
    distribution: InterArrivalDistribution,
    policy: ActivationPolicy,
    recharge: RechargeProcess,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike = None,
    initial_energy: Optional[float] = None,
    collect_battery_trace: bool = False,
    backend: str = "auto",
    collect_aoi: bool = True,
) -> SimulationResult:
    """Run one sensor for ``horizon`` slots and return its statistics.

    ``initial_energy`` defaults to ``capacity / 2`` as in the paper's
    experiments.  Events, recharge and activation coin-flips each use an
    independent sub-stream of ``seed`` for reproducibility.

    ``backend`` selects the execution engine: ``"reference"`` forces the
    per-slot Python loop, ``"vectorized"`` forces the fast kernel (and
    raises :class:`SimulationError` when the configuration is not
    eligible), ``"auto"`` uses the kernel whenever it is eligible.  All
    backends are bit-identical.  ``"auto"`` and ``"vectorized"`` run
    the call as a batch of one
    (:func:`repro.sim.batch_kernel.simulate_batch`), which draws the same
    three sub-streams; ``"reference"`` draws and loops here, so the
    reference stays independent of the batch packer it checks.

    ``collect_aoi=False`` leaves ``result.aoi`` as ``None`` (the
    benchmark times both settings against each other); it never changes
    any other field of the result.
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend != "reference":
        # Runtime import: batch_kernel reaches back into this module for
        # its reference fallback.
        from repro.sim import batch_kernel

        spec = batch_kernel.RunSpec(
            distribution=distribution,
            policy=policy,
            recharge=recharge,
            capacity=capacity,
            delta1=delta1,
            delta2=delta2,
            horizon=horizon,
            seed=seed,
            initial_energy=initial_energy,
            collect_battery_trace=collect_battery_trace,
            collect_aoi=collect_aoi,
        )
        with batch_kernel.recorded_as("simulate_single"):
            return batch_kernel.simulate_batch([spec], backend)[0]

    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity}")
    if delta1 < 0 or delta2 < 0:
        raise SimulationError(
            f"delta1/delta2 must be >= 0, got {delta1}, {delta2}"
        )
    rng = make_rng(seed)
    event_rng, recharge_rng, coin_rng = spawn(rng, 3)

    events = generate_event_flags(distribution, horizon, event_rng)
    recharge_amounts = recharge.sequence(horizon, recharge_rng)
    coins = coin_rng.random(horizon)

    # Policy fast paths: a recency table, a slot table, or a per-slot
    # call (battery-aware policies always take the per-slot call so they
    # can see the current level).  Resolved by the shared RL015 gate, the
    # rule the batch packer dispatches on too.
    fast = kernel.policy_fast_paths(policy, horizon)
    initial = capacity / 2.0 if initial_energy is None else float(initial_energy)
    if not 0 <= initial <= capacity:
        raise SimulationError(
            f"initial energy {initial} outside [0, {capacity}]"
        )

    _record_run(policy, capacity, delta1, delta2, horizon, seed)
    return _simulate_reference(
        policy=policy,
        events=events,
        recharge_amounts=recharge_amounts,
        coins=coins,
        table=fast.table,
        tail=fast.tail,
        slot_probs=fast.slot_probs,
        battery_aware=fast.battery_aware,
        full_info=fast.full_info,
        capacity=float(capacity),
        delta1=float(delta1),
        delta2=float(delta2),
        horizon=horizon,
        initial=initial,
        collect_battery_trace=collect_battery_trace,
        collect_aoi=collect_aoi,
    )


def _simulate_reference(
    policy: ActivationPolicy,
    events: np.ndarray,
    recharge_amounts: np.ndarray,
    coins: np.ndarray,
    table: Optional[np.ndarray],
    tail: float,
    slot_probs: Optional[np.ndarray],
    battery_aware: bool,
    full_info: bool,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
    collect_battery_trace: bool,
    collect_aoi: bool = True,
) -> SimulationResult:
    """The bit-exact per-slot reference loop (reflected battery form)."""
    activation_cost = delta1 + delta2  # decision threshold (Sec. III-A)
    cost_capture = delta1 + delta2
    table_size = 0 if table is None else table.size

    n_events = 0
    n_captures = 0
    activations = 0
    blocked = 0
    trace = np.empty(horizon) if collect_battery_trace else None

    # Age-of-Information accumulators: a capture at slot t closes a gap
    # of g = t - last_capture slots whose end-of-slot ages are
    # 1 .. g - 1 (then 0 at t itself); the trailing censored gap of
    # r slots contributes ages 1 .. r.  Pure integer arithmetic — the
    # vectorized paths replay the same closed forms exactly.
    aoi_area = 0
    aoi_sq = 0
    aoi_max = 0
    last_capture = 0

    # Reflected battery state (see module docstring): the level before
    # each decision is (neg + cum) - shave.
    cum = 0.0
    neg = initial
    shave = 0.0

    recency = 1  # an event occurred at slot 0
    events_list = events.tolist()
    recharge_list = recharge_amounts.tolist()
    coins_list = coins.tolist()
    table_list = table.tolist() if table is not None else None
    slot_list = slot_probs.tolist() if slot_probs is not None else None

    for t in range(1, horizon + 1):
        # 1. Recharge (clip at capacity via the running shave).
        cum = cum + recharge_list[t - 1]
        pre = neg + cum
        over = pre - capacity
        if over > shave:
            shave = over
        battery = pre - shave

        # 2. Activation decision.
        if table_list is not None:
            prob = table_list[recency - 1] if recency <= table_size else tail
        elif slot_list is not None:
            prob = slot_list[t - 1]
        elif battery_aware:
            prob = policy.activation_probability_with_battery(
                t, recency, battery, capacity
            )
        else:
            prob = policy.activation_probability(t, recency)
        wants_active = coins_list[t - 1] < prob
        if wants_active and battery < activation_cost:
            blocked += 1
            wants_active = False

        # 3. Event arrival and capture.
        event = events_list[t - 1]
        if event:
            n_events += 1
        captured = False
        if wants_active:
            activations += 1
            if event:
                captured = True
                n_captures += 1
                neg = neg - cost_capture
                gap = t - last_capture
                aoi_area += gap * (gap - 1) // 2
                aoi_sq += ((gap - 1) * gap // 2) * (2 * gap - 1) // 3
                if gap - 1 > aoi_max:
                    aoi_max = gap - 1
                last_capture = t
            else:
                neg = neg - delta1

        if trace is not None:
            trace[t - 1] = (neg + cum) - shave

        # 4. Recency update for the next slot.
        if full_info:
            recency = 1 if event else recency + 1
        else:
            recency = 1 if captured else recency + 1

    aoi: Optional[AoIStats] = None
    if collect_aoi:
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
    stats = SensorStats(
        activations=activations,
        captures=n_captures,
        energy_harvested=cum,
        energy_consumed=activations * delta1 + n_captures * delta2,
        energy_overflow=shave,
        blocked_slots=blocked,
        final_battery=(neg + cum) - shave,
        last_capture_slot=last_capture if collect_aoi else 0,
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=n_captures,
        sensors=(stats,),
        battery_trace=trace,
        aoi=aoi,
    )
