"""Network dispatch plans and numpy scans for the multi-sensor path.

The multi-sensor reference loop walks every slot in Python and touches
every sensor on every slot.  For the coordinators the paper simulates —
round-robin M-FI / M-PI, the multi-aggressive baseline and the
block-rotated periodic baseline — the work decomposes per sensor:

* **responsibility** is a pure function of the slot index (slot and
  block round-robin), or of the precomputed event stream (active-slot
  rotation under full information);
* **desire** (``coin < prob``) is computable up front whenever the
  activation probability does not depend on realized captures: slot
  tables, full-information recency tables, and constant tables;
* each sensor's battery then advances independently in the engine's
  Skorokhod-reflected form, so the single-sensor scan machinery of
  :mod:`repro.sim.kernel` applies per sensor unchanged.

Under **partial information** with a non-constant recency table the
shared recency depends on realized captures (which depend on battery
state), so desire cannot be precomputed; the kernel then walks only the
candidate slots (``coin < p_max``) with lazily-reflected per-sensor
batteries — the sparse-scan pattern proven in :mod:`repro.sim.kernel`.

:func:`plan_or_reason` (an RL015 gate) turns an eligible coordinator
into a :class:`NetworkPlan`.  :func:`repro.sim.batch_kernel.simulate_network_runs`
— the one vectorized network path, a single ``simulate_network`` call
being a batch of one — feeds the plans to the compiled batch scan
(:mod:`repro.sim._native`), or, without one, runs
:func:`simulate_network_kernel` per run:

* **per-sensor upfront scans** — pure numpy, for precomputable desire:
  each sensor reuses the single-sensor speculate-and-validate scan.
* **sparse candidate scan** — pure numpy + Python, for capture-coupled
  partial-information tables.

Every path performs the same floating-point operations in the same
order as the reference loop, so results are **bit-identical** — this is
asserted by ``tests/sim/test_network_kernel.py`` and re-checked by the
``network`` section of the benchmark harness on every run.

Eligibility is structural (coordinator type, assignment mode, policy
fast paths) and independent of whether the native scan compiled, so a
given configuration always takes the same backend under ``auto``;
unsupported coordinators (custom subclasses, active-slot rotation with
capture-dependent policies, battery-aware policies) fall back to the
reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.multi import (
    NO_SENSOR,
    Coordinator,
    MultiAggressiveCoordinator,
    MultiPeriodicCoordinator,
    RoundRobinCoordinator,
)
from repro.core.policy import InfoModel
from repro.devtools import telemetry
from repro.sim.kernel import _TABLE_SLOTS, _full_info_probs, _scan_upfront
from repro.sim.metrics import (
    AoIStats,
    SensorStats,
    SimulationResult,
    aoi_from_capture_slots,
)


@dataclass(frozen=True)
class NetworkPlan:
    """Precomputed dispatch plan for one eligible network configuration.

    ``resp[t - 1]`` is the responsible sensor in slot ``t`` (or
    :data:`~repro.core.multi.NO_SENSOR`).  Exactly one of ``slot_probs``
    (per-slot activation probability of the responsible sensor) and
    ``table``/``tail`` (shared recency table) describes the activation
    probabilities; ``full_info`` selects the recency semantics.
    """

    n_sensors: int
    resp: np.ndarray
    table: Optional[np.ndarray]
    tail: float
    slot_probs: Optional[np.ndarray]
    full_info: bool


def _slot_round_robin(horizon: int, n_sensors: int) -> np.ndarray:
    """Responsibility under plain slot round-robin (``t = kN + s``)."""
    return np.arange(horizon, dtype=np.int64) % n_sensors


def _active_slot_resp(probs: np.ndarray, n_sensors: int) -> np.ndarray:
    """Responsibility under active-slot rotation, given per-slot probs.

    The coordinator's counter advances only on slots with positive
    activation probability; other slots get :data:`NO_SENSOR`.
    """
    active = probs > 0.0
    counter_before = np.cumsum(active, dtype=np.int64) - active.astype(np.int64)
    return np.where(
        active, counter_before % n_sensors, np.int64(NO_SENSOR)
    ).astype(np.int64)


def _constant_table_prob(
    table: Optional[np.ndarray], tail: float
) -> Optional[float]:
    """The constant probability a recency table collapses to, if any.

    Expressed with inequalities (never float equality): the table is
    constant and equal to ``tail`` iff ``min >= max`` and ``tail`` lies
    within ``[max, min]``.
    """
    tsize = 0 if table is None else table.size
    if tsize == 0:
        return tail
    tmin = float(np.min(table))
    tmax = float(np.max(table))
    if tmin >= tmax and tail >= tmax and tail <= tmin:
        return tail
    return None


def plan_or_reason(
    coordinator: Coordinator,
    events: np.ndarray,
    recharge_rows: np.ndarray,
    horizon: int,
) -> Tuple[Optional[NetworkPlan], Optional[str]]:
    """Build the kernel's dispatch plan, or explain why it cannot run.

    Returns ``(plan, None)`` when the configuration is eligible and
    ``(None, reason)`` otherwise.  The eligibility rule depends only on
    the coordinator's structure and the recharge sign — never on the
    drawn coins or on whether the native scan compiled — so a given
    configuration always takes the same backend under ``auto``.
    """
    if recharge_rows.size and float(np.min(recharge_rows)) < 0:
        return None, "recharge sequence contains negative amounts"
    n = coordinator.n_sensors

    if type(coordinator) is MultiAggressiveCoordinator:
        return (
            NetworkPlan(
                n_sensors=n,
                resp=_slot_round_robin(horizon, n),
                table=None,
                tail=1.0,
                slot_probs=None,
                full_info=False,
            ),
            None,
        )

    if type(coordinator) is MultiPeriodicCoordinator:
        slots0 = np.arange(horizon, dtype=np.int64)
        probs = np.where(slots0 % coordinator.theta2 < coordinator.theta1,
                         1.0, 0.0)
        return (
            NetworkPlan(
                n_sensors=n,
                resp=(slots0 // coordinator.theta2) % n,
                table=None,
                tail=0.0,
                slot_probs=probs,
                full_info=False,
            ),
            None,
        )

    if type(coordinator) is RoundRobinCoordinator:
        policy = coordinator.policy
        if bool(getattr(policy, "battery_aware", False)):
            return None, "policy is battery-aware (needs per-slot battery feedback)"
        full_info = policy.info_model == InfoModel.FULL
        table: Optional[np.ndarray] = None
        tail = 0.0
        slot_probs: Optional[np.ndarray] = None
        recency_fast = policy.recency_probabilities(min(horizon, _TABLE_SLOTS))
        if recency_fast is not None:
            table, tail = recency_fast
        else:
            slot_probs = policy.slot_probabilities(horizon)
            if slot_probs is None:
                return None, (
                    "policy provides neither a recency table nor slot "
                    "probabilities (per-slot policy calls need the "
                    "reference loop)"
                )
            slot_probs = np.asarray(slot_probs, dtype=np.float64)

        if coordinator.assignment == "slot":
            resp = _slot_round_robin(horizon, n)
        elif slot_probs is not None:
            resp = _active_slot_resp(slot_probs, n)
        elif full_info:
            # Full-information recency is a pure function of the event
            # stream, so the per-slot probabilities — and with them the
            # rotation counter — are precomputable.
            slot_probs = _full_info_probs(events, table, tail, horizon)
            table = None
            resp = _active_slot_resp(slot_probs, n)
        else:
            constant = _constant_table_prob(table, tail)
            if constant is None:
                return None, (
                    "active-slot assignment with a capture-dependent "
                    "partial-information policy (rotation state needs "
                    "the reference loop)"
                )
            if constant > 0.0:
                resp = _slot_round_robin(horizon, n)
            else:
                resp = np.full(horizon, NO_SENSOR, dtype=np.int64)
        return (
            NetworkPlan(
                n_sensors=n,
                resp=resp,
                table=table,
                tail=float(tail),
                slot_probs=slot_probs,
                full_info=full_info,
            ),
            None,
        )

    return None, (
        f"unsupported coordinator {type(coordinator).__name__} "
        "(only the shipped round-robin / aggressive / periodic "
        "coordinators have a vectorized decomposition)"
    )


def simulate_network_kernel(
    events: np.ndarray,
    recharge_rows: np.ndarray,
    coins: np.ndarray,
    plan: NetworkPlan,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
) -> SimulationResult:
    """Run the numpy network scans on pre-drawn arrays.

    RNG stream-order contract: the kernel never draws random numbers; it
    receives the exact arrays (events, coins, per-sensor recharge rows)
    the batch packer drew from the run's ``2 + N`` sub-streams, in that
    order.
    """
    n = plan.n_sensors
    if horizon == 0:
        return _network_result(
            [0] * n, [0] * n, [0] * n, [initial] * n, [0.0] * n,
            [0.0] * n, 0, delta1, delta2, 0,
            [0] * n, aoi_from_capture_slots((), 0),
        )
    cs = np.cumsum(recharge_rows, axis=1)
    n_events = int(np.count_nonzero(events))
    harvested = [float(cs[s, -1]) for s in range(n)]

    # Pure-numpy paths.  Desire is computable up front except for
    # non-constant partial-information recency tables.
    desire: Optional[np.ndarray] = None
    if plan.slot_probs is not None:
        desire = coins < plan.slot_probs
    elif plan.full_info:
        desire = coins < _full_info_probs(events, plan.table, plan.tail, horizon)
    elif _constant_table_prob(plan.table, plan.tail) is not None:
        desire = coins < plan.tail
    if desire is not None:
        telemetry.count("network_kernel.scan.numpy_upfront")
        activations, captures, blocked, negs, shaves = [], [], [], [], []
        last_captures: List[int] = []
        slot_arrays: List[np.ndarray] = []
        for s in range(n):
            a, c, b, neg, shave, slots = _scan_upfront(
                desire & (plan.resp == s), events, cs[s],
                capacity, delta1, delta2, initial,
            )
            activations.append(a)
            captures.append(c)
            blocked.append(b)
            negs.append(neg)
            shaves.append(shave)
            last_captures.append(int(slots[-1]) if slots.size else 0)
            slot_arrays.append(slots)
        # At most one sensor is responsible per slot, so the per-sensor
        # capture-slot sets are disjoint; the system capture sequence is
        # their sorted union.
        merged = np.sort(np.concatenate(slot_arrays)) if n else np.empty(
            0, dtype=np.int64
        )
        aoi = aoi_from_capture_slots(merged, horizon)
    else:
        telemetry.count("network_kernel.scan.numpy_partial")
        (
            activations, captures, blocked, negs, shaves,
            last_captures, capture_slots,
        ) = _scan_partial_network(
            events, cs, coins, plan.resp, plan.table, plan.tail, n,
            capacity, delta1, delta2, initial,
        )
        aoi = aoi_from_capture_slots(capture_slots, horizon)
    return _network_result(
        activations, captures, blocked, negs, shaves,
        harvested, n_events, delta1, delta2, horizon,
        last_captures, aoi,
    )


def _scan_partial_network(
    events: np.ndarray,
    cs: np.ndarray,
    coins: np.ndarray,
    resp: np.ndarray,
    table: Optional[np.ndarray],
    tail: float,
    n_sensors: int,
    capacity: float,
    delta1: float,
    delta2: float,
    initial: float,
) -> Tuple[
    List[int], List[int], List[int], List[float], List[float],
    List[int], List[int],
]:
    """Sparse scan for capture-coupled partial-information tables.

    The shared recency (slots since the last network capture) advances
    deterministically between candidates, so only slots with
    ``coin < p_max`` and a responsible sensor need visiting.  Each
    sensor's reflected battery is updated lazily: between its visits
    ``neg`` is constant and ``cum`` non-decreasing, so the running
    ``shave`` maximum is attained at the visited slot (the same
    monotonicity argument as the single-sensor sparse scan).  Returns
    per-sensor counts/state/last-capture slots plus the ascending
    system capture-slot list (for the AoI closed forms).
    """
    cost_capture = delta1 + delta2
    activation_cost = delta1 + delta2
    table_arr = (
        np.empty(0) if table is None else np.asarray(table, dtype=np.float64)
    )
    tsize = table_arr.size
    p_max = float(max(np.max(table_arr), tail)) if tsize else tail

    cand = np.nonzero((coins < p_max) & (resp >= 0))[0]
    cand_slots: List[int] = (cand + 1).tolist()
    resp_c: List[int] = resp[cand].tolist()
    coin_c: List[float] = coins[cand].tolist()
    evc: List[bool] = events[cand].tolist()
    csc: List[List[float]] = cs[:, cand].tolist()
    table_list: List[float] = table_arr.tolist()

    neg = [initial] * n_sensors
    shave = [0.0] * n_sensors
    activations = [0] * n_sensors
    captures = [0] * n_sensors
    blocked = [0] * n_sensors
    last_captures = [0] * n_sensors
    capture_slots: List[int] = []
    last_capture = 0  # slot of the implicit event before slot 1
    for k in range(len(cand_slots)):
        slot = cand_slots[k]
        recency = slot - last_capture
        prob = table_list[recency - 1] if recency <= tsize else tail
        if not coin_c[k] < prob:
            continue
        s = resp_c[k]
        pre = neg[s] + csc[s][k]
        over = pre - capacity
        if over > shave[s]:
            shave[s] = over
        if (pre - shave[s]) < activation_cost:
            blocked[s] += 1
            continue
        activations[s] += 1
        if evc[k]:
            captures[s] += 1
            neg[s] = neg[s] - cost_capture
            last_capture = slot
            last_captures[s] = slot
            capture_slots.append(slot)
        else:
            neg[s] = neg[s] - delta1
    for s in range(n_sensors):  # trailing slots: overshoot max at the end
        over_end = (neg[s] + float(cs[s, -1])) - capacity
        if over_end > shave[s]:
            shave[s] = over_end
    return (
        activations, captures, blocked, neg, shave,
        last_captures, capture_slots,
    )


def _network_result(
    activations: List[int],
    captures: List[int],
    blocked: List[int],
    negs: List[float],
    shaves: List[float],
    harvested: List[float],
    n_events: int,
    delta1: float,
    delta2: float,
    horizon: int,
    last_captures: List[int],
    aoi: AoIStats,
) -> SimulationResult:
    """Assemble the result from final reflected state (engine formulas)."""
    stats = tuple(
        SensorStats(
            activations=activations[s],
            captures=captures[s],
            energy_harvested=harvested[s],
            energy_consumed=activations[s] * delta1 + captures[s] * delta2,
            energy_overflow=shaves[s],
            blocked_slots=blocked[s],
            final_battery=(negs[s] + harvested[s]) - shaves[s],
            last_capture_slot=last_captures[s],
        )
        for s in range(len(activations))
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=sum(captures),
        sensors=stats,
        aoi=aoi,
    )
