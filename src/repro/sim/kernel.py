"""Shared gates and pure-numpy scans of the vectorized simulation path.

The reference engine walks every slot in Python.  For the policies the
paper actually simulates — recency tables (greedy, clustering,
aggressive, EBCW) and slot tables (periodic) — almost all of that work
collapses into array primitives:

* **desire** (``coin < prob``) is computable up front whenever the
  activation probability does not depend on the capture history: slot
  tables, full-information recency tables (recency follows from the
  event flags alone), and constant tables (aggressive);
* the only genuinely sequential state is the **battery**, and in the
  engine's reflected form (``battery = (neg + cum_recharge) - shave``)
  it advances by pure prefix sums between activation candidates.

This module holds the pieces :mod:`repro.sim.batch_kernel` — the one
vectorized path, which runs a single ``simulate_single`` call as a
batch of one — builds on:

* the **RL015 gates** :func:`policy_fast_paths` and
  :func:`ineligibility_reason`, the only place the scan layers read
  policy attributes and decide eligibility;
* the per-run **numpy scans** used when the compiled scan
  (:mod:`repro.sim._native`) is unavailable or disabled.  The batch
  packer first speculates across all rows at once that no desired slot
  is battery-blocked (phase A); a row where that fails takes
  :func:`_scan_upfront`, whose phase B walks only the desired slots and
  skips blocked stretches in ``O(log n)`` by bisection.  Capture-coupled
  partial-information tables take the candidate walk
  :func:`_scan_partial`.

Every path performs the same floating-point operations in the same
order as the reference loop, so results are **bit-identical** — this is
asserted by ``tests/sim/test_kernel.py`` and re-checked by the
benchmark harness on every run.

RNG stream-order contract: nothing here draws random numbers; the scans
receive the exact arrays (events, recharge, coins) the caller drew from
a run's three sub-streams, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.policy import ActivationPolicy, InfoModel
from repro.devtools import telemetry
from repro.sim.metrics import AoIStats, SensorStats, SimulationResult

#: Default size of the recency lookup table when the policy provides a
#: recency fast path; recencies beyond it use the policy's tail value.
_TABLE_SLOTS = 1 << 16


@dataclass(frozen=True)
class PolicyFastPaths:
    """How one policy's activation probabilities can be precomputed.

    Exactly one of ``table``/``slot_probs`` is set for table-driven
    policies; both are ``None`` when the policy needs per-slot calls
    (battery-aware policies always do, so they can see the level).
    """

    table: Optional[np.ndarray]
    tail: float
    slot_probs: Optional[np.ndarray]
    battery_aware: bool
    full_info: bool


def policy_fast_paths(policy: ActivationPolicy, horizon: int) -> PolicyFastPaths:
    """Resolve the policy's fast paths for one run (RL015 gate).

    This is the single place the scan layers read policy attributes:
    the reference engine and the batch packer both dispatch on the
    result, so the eligibility decision cannot drift from what the
    scans actually consume.
    """
    table: Optional[np.ndarray] = None
    tail = 0.0
    slot_probs: Optional[np.ndarray] = None
    battery_aware = bool(getattr(policy, "battery_aware", False))
    if not battery_aware:
        recency_fast = policy.recency_probabilities(min(horizon, _TABLE_SLOTS))
        if recency_fast is not None:
            table, tail = recency_fast
        else:
            slot_probs = policy.slot_probabilities(horizon)
    return PolicyFastPaths(
        table=table,
        tail=float(tail),
        slot_probs=slot_probs,
        battery_aware=battery_aware,
        full_info=policy.info_model == InfoModel.FULL,
    )


def ineligibility_reason(
    battery_aware: bool,
    collect_battery_trace: bool,
    has_table: bool,
    has_slot_probs: bool,
    recharge_amounts: np.ndarray,
) -> Optional[str]:
    """Why this configuration cannot use the kernel; None when it can.

    The rule is independent of whether the native scan compiled, so a
    given configuration always takes the same backend under ``auto``.
    """
    if battery_aware:
        return "policy is battery-aware (needs per-slot battery feedback)"
    if collect_battery_trace:
        return "battery traces are collected by the reference loop only"
    if not (has_table or has_slot_probs):
        return (
            "policy provides neither a recency table nor slot "
            "probabilities (per-slot policy calls need the reference loop)"
        )
    if recharge_amounts.size and float(recharge_amounts.min()) < 0:
        return "recharge sequence contains negative amounts"
    return None


def _result(
    activations: int,
    captures: int,
    blocked: int,
    n_events: int,
    neg: float,
    shave: float,
    harvested: float,
    delta1: float,
    delta2: float,
    horizon: int,
    aoi: Optional[AoIStats] = None,
) -> SimulationResult:
    """Assemble the result from final reflected state (engine formulas)."""
    stats = SensorStats(
        activations=activations,
        captures=captures,
        energy_harvested=harvested,
        energy_consumed=activations * delta1 + captures * delta2,
        energy_overflow=shave,
        blocked_slots=blocked,
        final_battery=(neg + harvested) - shave,
        last_capture_slot=aoi.last_capture_slot if aoi is not None else 0,
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=captures,
        sensors=(stats,),
        battery_trace=None,
        aoi=aoi,
    )


def _full_info_probs(
    events: np.ndarray,
    table: Optional[np.ndarray],
    tail: float,
    horizon: int,
) -> np.ndarray:
    """Per-slot activation probabilities under full information.

    Full-information recency is slots-since-last-event, computable in
    one pass: the last event slot at or before ``t - 1`` via a running
    maximum over ``t * 1[event at t]``.
    """
    slots = np.arange(1, horizon + 1, dtype=np.int64)
    event_slots = np.where(events, slots, 0)
    last_incl = np.maximum.accumulate(event_slots)
    last_before = np.concatenate(([0], last_incl[:-1]))
    recency = slots - last_before  # >= 1; event at slot 0 is implicit
    tsize = 0 if table is None else table.size
    if tsize == 0:
        return np.full(horizon, tail)
    clipped = np.minimum(recency, tsize) - 1
    probs: np.ndarray = np.asarray(table, dtype=np.float64)[clipped]
    if bool(np.any(recency > tsize)):
        probs = np.where(recency > tsize, tail, probs)
    return probs


def _scan_upfront(
    desire: np.ndarray,
    events: np.ndarray,
    cs: np.ndarray,
    capacity: float,
    delta1: float,
    delta2: float,
    initial: float,
) -> Tuple[int, int, int, float, float, np.ndarray]:
    """Scan when desire is known per slot.

    Returns counts + final state + the ascending 1-based capture-slot
    array (the AoI closed forms consume it).
    """
    cost_capture = delta1 + delta2
    activation_cost = delta1 + delta2
    horizon = cs.shape[0]

    # Phase A: speculate that no desired slot is battery-blocked.  Then
    # every desired slot activates, so the running cost subtractions are
    # known and everything vectorizes; verify the assumption afterwards.
    des_idx = np.nonzero(desire)[0]
    costs = np.where(events[des_idx], cost_capture, delta1)
    negs = np.subtract.accumulate(
        np.concatenate(([initial], costs))
    )
    before = np.concatenate(
        ([0], np.cumsum(desire[:-1], dtype=np.int64))
    )
    pre = negs[before] + cs
    over = pre - capacity
    shave_run = np.maximum(np.maximum.accumulate(over), 0.0)
    battery = pre - shave_run
    if not bool(np.any(desire & (battery < activation_cost))):
        telemetry.count("kernel.upfront.speculation_ok")
        cap_idx = np.nonzero(events[des_idx])[0]
        return (
            int(des_idx.size),
            int(cap_idx.size),
            0,
            float(negs[-1]),
            float(shave_run[-1]),
            (des_idx[cap_idx] + 1).astype(np.int64),
        )
    telemetry.count("kernel.upfront.sparse_scan")

    # Phase B: sparse scan over the desired slots only.  Between
    # activations ``neg`` is constant and ``cs`` is non-decreasing, so
    # the battery level and the overshoot are monotone — the running
    # ``shave`` maximum can be applied lazily at each visited candidate,
    # and blocked stretches can be skipped by bisection.
    csc: List[float] = cs[des_idx].tolist()
    evc: List[bool] = events[des_idx].tolist()
    slots_c: List[int] = (des_idx + 1).tolist()
    n = len(csc)
    neg = initial
    shave = 0.0
    activations = 0
    captures = 0
    blocked = 0
    capture_slots: List[int] = []
    i = 0
    while i < n:
        pre_i = neg + csc[i]
        over_i = pre_i - capacity
        if over_i > shave:
            shave = over_i
        if (pre_i - shave) < activation_cost:
            j = _first_unblocked(csc, i + 1, n, neg, shave, activation_cost)
            blocked += j - i
            i = j
            continue
        activations += 1
        if evc[i]:
            captures += 1
            neg = neg - cost_capture
            capture_slots.append(slots_c[i])
        else:
            neg = neg - delta1
        i += 1
    if horizon:  # trailing slots: overshoot is monotone, max at the end
        over_end = (neg + float(cs[-1])) - capacity
        if over_end > shave:
            shave = over_end
    return (
        activations, captures, blocked, neg, shave,
        np.asarray(capture_slots, dtype=np.int64),
    )


def _first_unblocked(
    csc: List[float],
    lo: int,
    hi: int,
    neg: float,
    shave: float,
    activation_cost: float,
) -> int:
    """First index in ``[lo, hi)`` whose battery could clear the gate.

    Uses the frozen ``shave`` from the blocked slot, which can only
    understate the true shave — so the predicate over-estimates the
    battery and every skipped index is genuinely blocked.  The caller
    re-evaluates the landing index with the true running state.  The
    predicate is monotone (``cs`` non-decreasing, fp rounding monotone),
    so a short linear probe followed by bisection is exact.
    """
    probe_end = min(lo + 4, hi)
    for j in range(lo, probe_end):
        if ((neg + csc[j]) - shave) >= activation_cost:
            return j
    lo2, hi2 = probe_end, hi
    while lo2 < hi2:
        mid = (lo2 + hi2) // 2
        if ((neg + csc[mid]) - shave) >= activation_cost:
            hi2 = mid
        else:
            lo2 = mid + 1
    return lo2


def _scan_partial(
    events: np.ndarray,
    cs: np.ndarray,
    coins: np.ndarray,
    table: Optional[np.ndarray],
    tail: float,
    capacity: float,
    delta1: float,
    delta2: float,
    initial: float,
) -> Tuple[int, int, int, float, float, np.ndarray]:
    """Sparse scan for non-constant partial-information recency tables.

    Recency (slots since last capture) depends on the capture history,
    so desire cannot be precomputed — but only slots with
    ``coin < p_max`` can possibly activate, and between candidates the
    recency simply advances with time.  The scan walks that candidate
    superset, resolving desire, battery and recency per candidate.
    Returns counts + final state + the 1-based capture-slot array.
    """
    cost_capture = delta1 + delta2
    activation_cost = delta1 + delta2
    horizon = cs.shape[0]
    table_arr = (
        np.empty(0) if table is None else np.asarray(table, dtype=np.float64)
    )
    tsize = table_arr.size
    p_max = float(max(np.max(table_arr), tail)) if tsize else tail

    cand = np.nonzero(coins < p_max)[0]
    cand_slots: List[int] = (cand + 1).tolist()
    csc: List[float] = cs[cand].tolist()
    coin_c: List[float] = coins[cand].tolist()
    evc: List[bool] = events[cand].tolist()
    table_list: List[float] = table_arr.tolist()

    neg = initial
    shave = 0.0
    activations = 0
    captures = 0
    blocked = 0
    last_capture = 0  # slot of the implicit event before slot 1
    capture_slots: List[int] = []
    for k in range(len(csc)):
        slot = cand_slots[k]
        recency = slot - last_capture
        prob = table_list[recency - 1] if recency <= tsize else tail
        if not coin_c[k] < prob:
            continue
        pre_k = neg + csc[k]
        over_k = pre_k - capacity
        if over_k > shave:
            shave = over_k
        if (pre_k - shave) < activation_cost:
            blocked += 1
            continue
        activations += 1
        if evc[k]:
            captures += 1
            neg = neg - cost_capture
            last_capture = slot
            capture_slots.append(slot)
        else:
            neg = neg - delta1
    if horizon:
        over_end = (neg + float(cs[-1])) - capacity
        if over_end > shave:
            shave = over_end
    return (
        activations, captures, blocked, neg, shave,
        np.asarray(capture_slots, dtype=np.int64),
    )
