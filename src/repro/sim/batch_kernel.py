"""The vectorized simulation path: many (policy, seed) runs per scan call.

Every vectorized simulation runs here.  The figure sweeps and any
serious policy comparison run M replicates x P configurations in one
call; :func:`repro.sim.simulate_single` and
:func:`repro.sim.simulate_network` run a single call as a batch of one.
This module packs the runs into contiguous ``(runs, slots)`` arrays and
executes the whole batch in one scan call:

* **packing** — ragged horizons pad to the longest run; a per-run
  length bounds every scan, so padding is arithmetic-inert (it is never
  read by the native scan, and the numpy reductions below are
  constructed so padded columns cannot change any per-run value).  A
  batch of one needs no padding and packs as views, copying nothing.
* **native batch scan** — one ``repro_batch_scan`` call runs every
  packed run through the same ``static`` C routine, serially.
* **numpy batch scan** — phase-A speculation runs across the whole
  batch with axis-1 reductions; rows that fail speculation peel off to
  the proven per-run sparse scans of :mod:`repro.sim.kernel`.

Results split back into per-run :class:`SimulationResult` objects
**bit-identical** to the reference loop — per run, the same FP ops in
the same order.  The padded reductions preserve this exactly:

* recharge rows pad with ``0.0`` and the axis-1 ``cumsum`` adds them
  sequentially, and IEEE ``x + 0.0 == x`` (bitwise; ``-0.0`` needs a
  negative recharge, which eligibility excludes), so each padded
  cumulative-recharge row replicates its last valid value;
* activation costs pad with ``0.0`` inside a running difference, and
  ``x - y == x + (-y)`` exactly, so per-run partial sums match the
  reference's gathered ``subtract.accumulate`` bitwise;
* the overflow running ``max`` is exact and the padded overshoot never
  exceeds the last valid one, so the final column reads back each
  run's true shave.

Dispatch goes through the shared gates
(:func:`repro.sim.kernel.policy_fast_paths`,
:func:`repro.sim.kernel.ineligibility_reason`,
:func:`repro.sim.network_kernel.plan_or_reason`): ineligible runs peel
off to the reference loop with the already-drawn arrays, and mixed
batches return results in input order.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.multi import Coordinator
from repro.core.policy import ActivationPolicy
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.events.renewal import (
    generate_event_flags,
    generate_event_flags_bulk,
)
from repro.exceptions import SimulationError
from repro.sim import engine, kernel, network_kernel
from repro.sim._native import get_native_scan
from repro.sim.metrics import (
    AoIStats,
    SimulationResult,
    aoi_from_capture_slots,
)
from repro.sim.rng import SeedLike, bulk_substreams, spawn_substreams

__all__ = [
    "NetworkRunSpec",
    "RunSpec",
    "simulate_batch",
    "simulate_network_runs",
]

#: Below this many seeds, per-seed sub-stream derivation beats the
#: vectorized hash of :func:`repro.sim.rng.bulk_substreams`, whose fixed
#: cost is about 0.1 ms per call.  Measured for three sub-streams per
#: seed on a 2-core x86-64 host: 0.020 vs 0.096 ms for one seed, 0.100
#: vs 0.109 ms for five, 0.119 vs 0.111 ms for six.  Both derivations
#: give identical streams.
_BULK_SEEDS_MIN = 6

#: The public call the current batch serves.  The single-run entry
#: points set it (:func:`recorded_as`) around their batch of one, so
#: the run manifest names the call the user made.
_ENTRY: ContextVar[str] = ContextVar("repro_sim_entry", default="")

#: Per-run dispatch counter of each single-run entry point.
_DISPATCH_COUNTERS = {
    "simulate_single": "sim.dispatch",
    "simulate_network": "network.dispatch",
}


@contextlib.contextmanager
def recorded_as(entry: str) -> Iterator[None]:
    """Record the runs of batches in the block as calls of ``entry``.

    Each run then counts ``<entry's counter>.{backend}`` and its
    ``simulation_run`` and ``backend_fallback`` manifest events carry
    ``entry`` instead of the batch function's name.
    """
    token = _ENTRY.set(entry)
    try:
        yield
    finally:
        _ENTRY.reset(token)


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One ``simulate_single`` configuration, ready for batching.

    Field-for-field the arguments of :func:`repro.sim.simulate_single`;
    ``simulate_batch(specs)[i]`` equals ``simulate_single(**specs[i])``
    bit-for-bit.  Specs in one batch may differ in every field,
    including horizon.
    """

    distribution: InterArrivalDistribution
    policy: ActivationPolicy
    recharge: RechargeProcess
    capacity: float
    delta1: float
    delta2: float
    horizon: int
    seed: SeedLike = None
    initial_energy: Optional[float] = None
    collect_battery_trace: bool = False
    collect_aoi: bool = True


@dataclass(frozen=True, eq=False)
class NetworkRunSpec:
    """One ``simulate_network`` configuration, ready for batching."""

    distribution: InterArrivalDistribution
    coordinator: Coordinator
    recharge: RechargeProcess
    capacity: float
    delta1: float
    delta2: float
    horizon: int
    seed: SeedLike = None
    initial_energy: Optional[float] = None


@dataclass
class _Drawn:
    """One run's drawn arrays plus its resolved dispatch decision."""

    events: np.ndarray
    recharge: np.ndarray
    coins: np.ndarray
    fast: kernel.PolicyFastPaths
    reason: Optional[str]
    initial: float


def _check_backend(backend: str) -> None:
    if backend not in engine.BACKENDS:
        raise SimulationError(
            f"backend must be one of {engine.BACKENDS}, got {backend!r}"
        )


def _validated_initials(specs: Sequence[Any]) -> List[float]:
    """Check every spec's parameters; return each run's initial energy.

    Messages name the offending spec's index unless the batch has only
    one, i.e. it is a single-run call.
    """
    initials = []
    for i, s in enumerate(specs):
        where = f"spec {i}: " if len(specs) > 1 else ""
        if s.horizon < 0:
            raise SimulationError(
                f"{where}horizon must be >= 0, got {s.horizon}"
            )
        if s.capacity < 0:
            raise SimulationError(
                f"{where}capacity must be >= 0, got {s.capacity}"
            )
        if s.delta1 < 0 or s.delta2 < 0:
            raise SimulationError(
                f"{where}delta1/delta2 must be >= 0, got "
                f"{s.delta1}, {s.delta2}"
            )
        initial = (
            s.capacity / 2.0
            if s.initial_energy is None
            else float(s.initial_energy)
        )
        if not 0 <= initial <= s.capacity:
            raise SimulationError(
                f"{where}initial energy {initial} outside [0, {s.capacity}]"
            )
        initials.append(initial)
    return initials


def _substreams(
    seeds: Sequence[SeedLike], count: int
) -> List[List[np.random.Generator]]:
    """``count`` sub-streams per seed, by the faster derivation."""
    if len(seeds) < _BULK_SEEDS_MIN:
        return [spawn_substreams(seed, count) for seed in seeds]
    return bulk_substreams(seeds, count)


def _bulk_event_rows(
    specs: Sequence[Any],
    event_rngs: Sequence[np.random.Generator],
) -> List[np.ndarray]:
    """Event-flag rows for every spec, grouped by (distribution, horizon).

    Batches typically replicate one event model across many seeds; each
    group costs one :func:`generate_event_flags_bulk` call, and a group
    of one takes the cheaper per-run :func:`generate_event_flags`.
    Rows are bit-identical to per-run calls with the same streams.
    """
    rows: List[Optional[np.ndarray]] = [None] * len(specs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((id(spec.distribution), spec.horizon), []).append(i)
    for (_, horizon), idxs in groups.items():
        if len(idxs) == 1:
            rows[idxs[0]] = generate_event_flags(
                specs[idxs[0]].distribution, horizon, event_rngs[idxs[0]]
            )
            continue
        mat = generate_event_flags_bulk(
            specs[idxs[0]].distribution,
            horizon,
            [event_rngs[i] for i in idxs],
        )
        for j, i in enumerate(idxs):
            rows[i] = mat[j]
    return rows  # type: ignore[return-value]


def _bulk_recharge_rows(
    specs: Sequence[Any],
    rngs_per_spec: Sequence[List[np.random.Generator]],
) -> List[np.ndarray]:
    """Recharge rows for every spec, grouped by (process, horizon).

    ``rngs_per_spec[i]`` holds spec ``i``'s recharge streams (one for a
    single sensor, ``n_sensors`` for a fleet); the returned entry is the
    matching ``(len(rngs), horizon)`` block, bit-identical to per-run
    ``sequence`` calls.
    """
    rows: List[Optional[np.ndarray]] = [None] * len(specs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((id(spec.recharge), spec.horizon), []).append(i)
    for (_, horizon), idxs in groups.items():
        flat = [rng for i in idxs for rng in rngs_per_spec[i]]
        mat = np.asarray(
            specs[idxs[0]].recharge.sequence_bulk(horizon, flat),
            dtype=np.float64,
        )
        offset = 0
        for i in idxs:
            width = len(rngs_per_spec[i])
            rows[i] = mat[offset:offset + width]
            offset += width
    return rows  # type: ignore[return-value]


def _record_runs(
    entry: str,
    specs: Sequence[Any],
    tags: Sequence[Dict[str, Any]],
    vectorized: Sequence[bool],
    fallback_reasons: Sequence[str],
) -> None:
    """Emit one run-manifest event per spec, plus the fallback events.

    Mirrors ``engine._record_run`` so ``--telemetry`` manifests list
    every simulation a batched call performed, with seed provenance —
    a batch must not be less auditable than the per-run loop it
    replaces.  Inside :func:`recorded_as` the runs are recorded under
    the single-run entry point instead, with its dispatch counter.
    """
    if not telemetry.enabled():
        return
    entry = _ENTRY.get() or entry
    counter = _DISPATCH_COUNTERS.get(entry)
    for spec, run_tags, is_vec in zip(specs, tags, vectorized):
        backend = "vectorized" if is_vec else "reference"
        if counter is not None:
            telemetry.count(f"{counter}.{backend}")
        telemetry.event(
            "simulation_run",
            entry=entry,
            backend=backend,
            **run_tags,
            capacity=float(spec.capacity),
            delta1=float(spec.delta1),
            delta2=float(spec.delta2),
            horizon=int(spec.horizon),
            seed=telemetry.describe_seed(spec.seed),
        )
    by_reason: Dict[str, int] = {}
    for reason in fallback_reasons:
        by_reason[reason] = by_reason.get(reason, 0) + 1
    for reason, n in sorted(by_reason.items()):
        telemetry.event(
            "backend_fallback", entry=entry, reason=reason, runs=n
        )


def _packed(blocks: Sequence[np.ndarray], stride: int, dtype: type
            ) -> np.ndarray:
    """Stack 1-D rows or 2-D row blocks into one zero-padded matrix.

    The result is C-contiguous, ``stride`` columns wide.  A single
    block that already fills the stride is returned as is (a view), so
    packing a batch of one copies nothing.
    """
    blocks = [np.atleast_2d(b) for b in blocks]
    if len(blocks) == 1 and blocks[0].shape[1] == stride:
        return np.ascontiguousarray(blocks[0], dtype=dtype)
    out = np.zeros((sum(b.shape[0] for b in blocks), stride), dtype=dtype)
    row = 0
    for b in blocks:
        out[row:row + b.shape[0], :b.shape[1]] = b
        row += b.shape[0]
    return out


def _pack_tables(
    probs_arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[int]]:
    """Concatenate per-run prob tables, deduplicating shared ones.

    Batches typically replicate a handful of policies across many
    seeds; keying on the array's ``id`` keeps the flat buffer at one
    copy per distinct table instead of one per run, and a single
    distinct table is passed through uncopied.  Returns the buffer and
    each run's offset into it.
    """
    offsets: List[int] = []
    unique: List[np.ndarray] = []
    offset_by_id: Dict[int, int] = {}
    total = 0
    for arr in probs_arrays:
        off = offset_by_id.get(id(arr))
        if off is None:
            off = total
            offset_by_id[id(arr)] = off
            unique.append(arr)
            total += arr.size
        offsets.append(off)
    if len(unique) == 1:
        return np.ascontiguousarray(unique[0], dtype=np.float64), offsets
    return np.concatenate(unique), offsets


_EMPTY_TABLE = np.empty(0, dtype=np.float64)


def _run_probs(
    table: Optional[np.ndarray], slot_probs: Optional[np.ndarray]
) -> Tuple[np.ndarray, int]:
    """The (table, slot_mode) pair a run's scan reads probabilities from."""
    if slot_probs is not None:
        return np.asarray(slot_probs, dtype=np.float64), 1
    if table is not None:
        return np.asarray(table, dtype=np.float64), 0
    return _EMPTY_TABLE, 0


def simulate_batch(
    specs: Iterable[RunSpec],
    backend: str = "auto",
) -> List[SimulationResult]:
    """Run every spec and return results in input order.

    ``backend`` has the ``simulate_single`` contract: ``"reference"``
    forces the per-slot loop for every run, ``"vectorized"`` raises
    when any run is ineligible, ``"auto"`` batches the eligible runs
    and peels ineligible ones off to the reference loop.  All backends
    are bit-identical to per-run ``simulate_single`` calls.
    """
    specs = list(specs)
    _check_backend(backend)
    n_specs = len(specs)
    if n_specs == 0:
        return []
    telemetry.count("batch.runs", n_specs)

    initials = _validated_initials(specs)
    fast_cache: Dict[Tuple[int, int], kernel.PolicyFastPaths] = {}
    streams = _substreams([s.seed for s in specs], 3)
    event_rows = _bulk_event_rows(specs, [st[0] for st in streams])
    recharge_rows = _bulk_recharge_rows(specs, [[st[1]] for st in streams])
    drawn: List[_Drawn] = []
    for i, spec in enumerate(specs):
        coins = streams[i][2].random(spec.horizon)
        key = (id(spec.policy), spec.horizon)
        fast = fast_cache.get(key)
        if fast is None:
            fast = kernel.policy_fast_paths(spec.policy, spec.horizon)
            fast_cache[key] = fast
        reason = kernel.ineligibility_reason(
            battery_aware=fast.battery_aware,
            collect_battery_trace=spec.collect_battery_trace,
            has_table=fast.table is not None,
            has_slot_probs=fast.slot_probs is not None,
            recharge_amounts=recharge_rows[i][0],
        )
        drawn.append(_Drawn(
            events=event_rows[i], recharge=recharge_rows[i][0],
            coins=coins, fast=fast, reason=reason, initial=initials[i],
        ))

    vectorized = [backend != "reference" and d.reason is None for d in drawn]
    results: List[Optional[SimulationResult]] = [None] * n_specs
    eligible: List[int] = []
    fallback_reasons: List[str] = []
    for i, d in enumerate(drawn):
        spec = specs[i]
        if vectorized[i]:
            if spec.horizon == 0:
                results[i] = kernel._result(
                    0, 0, 0, 0, d.initial, 0.0, 0.0,
                    spec.delta1, spec.delta2, 0,
                    aoi=(
                        aoi_from_capture_slots((), 0)
                        if spec.collect_aoi
                        else None
                    ),
                )
            else:
                eligible.append(i)
            continue
        if backend == "vectorized":
            where = f" for spec {i}" if n_specs > 1 else ""
            raise SimulationError(
                f"vectorized backend unavailable{where}: {d.reason}"
            )
        if backend != "reference":
            fallback_reasons.append(d.reason or "")
        results[i] = engine._simulate_reference(
            policy=spec.policy,
            events=d.events,
            recharge_amounts=d.recharge,
            coins=d.coins,
            table=d.fast.table,
            tail=d.fast.tail,
            slot_probs=d.fast.slot_probs,
            battery_aware=d.fast.battery_aware,
            full_info=d.fast.full_info,
            capacity=float(spec.capacity),
            delta1=float(spec.delta1),
            delta2=float(spec.delta2),
            horizon=spec.horizon,
            initial=d.initial,
            collect_battery_trace=spec.collect_battery_trace,
            collect_aoi=spec.collect_aoi,
        )
    telemetry.count("batch.dispatch.reference", vectorized.count(False))
    _record_runs(
        "simulate_batch",
        specs,
        [{"policy": type(s.policy).__name__} for s in specs],
        vectorized,
        fallback_reasons,
    )

    if eligible:
        _scan_batch_packed(specs, drawn, eligible, results)

    return results  # type: ignore[return-value]


def _scan_batch_packed(
    specs: Sequence[RunSpec],
    drawn: Sequence[_Drawn],
    eligible: Sequence[int],
    results: List[Optional[SimulationResult]],
) -> None:
    """Pack the eligible runs, scan them in one batch, split results."""
    n_runs = len(eligible)
    lengths = [specs[i].horizon for i in eligible]
    stride = max(lengths)
    telemetry.count("batch.padding_waste_slots", n_runs * stride - sum(lengths))

    events2 = _packed([drawn[i].events for i in eligible], stride, np.bool_)
    coins2 = _packed([drawn[i].coins for i in eligible], stride, np.float64)
    # Row-wise sequential adds; zero padding replicates each row's last
    # valid cumulative value exactly (x + 0.0 == x).
    cs2 = np.cumsum(
        _packed([drawn[i].recharge for i in eligible], stride, np.float64),
        axis=1,
    )
    fparams = np.array(
        [
            (drawn[i].fast.tail, specs[i].capacity, specs[i].delta1,
             specs[i].delta2, drawn[i].initial)
            for i in eligible
        ],
        dtype=np.float64,
    )

    native = get_native_scan()
    if native is not None:
        telemetry.count("batch.dispatch.native", n_runs)
        run_probs = [
            _run_probs(drawn[i].fast.table, drawn[i].fast.slot_probs)
            for i in eligible
        ]
        tables, offsets = _pack_tables([p for p, _ in run_probs])
        iparams = np.array(
            [
                (h, off, probs.size, mode, drawn[i].fast.full_info)
                for h, off, (probs, mode), i in zip(
                    lengths, offsets, run_probs, eligible
                )
            ],
            dtype=np.int64,
        )
        counts, state = native.scan_batch(
            cs2, events2.view(np.uint8), coins2, tables, iparams, fparams
        )
        counts_l = counts.tolist()
        scanned = [
            (c[0], c[1], c[2], st[0], st[1])
            for c, st in zip(counts_l, state.tolist())
        ]
        # The scan always computes the AoI accumulators; collect_aoi
        # only gates attachment below.
        aois: List[Optional[AoIStats]] = [
            AoIStats(
                area=c[3],
                area_sq=c[4],
                max_age=c[5],
                last_capture_slot=c[6],
                n_resets=c[1],
                horizon=h,
            )
            for c, h in zip(counts_l, lengths)
        ]
    else:
        telemetry.count("batch.dispatch.numpy", n_runs)
        scanned, aois = _numpy_batch_scan(
            [drawn[i].fast for i in eligible], events2, cs2, coins2,
            lengths, fparams,
        )

    # Zero padding keeps each row's event count equal to its own horizon's.
    n_events_all = np.count_nonzero(events2, axis=1)
    for j, i in enumerate(eligible):
        horizon = specs[i].horizon
        activations, captures, blocked, neg, shave = scanned[j]
        results[i] = kernel._result(
            activations,
            captures,
            blocked,
            int(n_events_all[j]),
            neg,
            shave,
            float(cs2[j, horizon - 1]),
            float(specs[i].delta1),
            float(specs[i].delta2),
            horizon,
            aoi=aois[j] if specs[i].collect_aoi else None,
        )


def _numpy_batch_scan(
    fasts: Sequence[kernel.PolicyFastPaths],
    events2: np.ndarray,
    cs2: np.ndarray,
    coins2: np.ndarray,
    lengths: Sequence[int],
    fparams: np.ndarray,
) -> Tuple[
    List[Tuple[int, int, int, float, float]],
    List[Optional[AoIStats]],
]:
    """Batched phase-A speculation; peel failures to the per-run scans.

    Row ``j`` of the packed arrays is a run with fast paths
    ``fasts[j]``, horizon ``lengths[j]`` and ``fparams[j] = (tail,
    capacity, delta1, delta2, initial)``.  Returns per run
    ``(activations, captures, blocked, neg, shave)`` exactly as
    :func:`repro.sim.kernel._scan_upfront` / ``_scan_partial`` would
    per run, plus the matching :class:`AoIStats` list (closed forms
    over each run's capture slots).
    """
    n_runs, stride = events2.shape
    scanned: List[Optional[Tuple[int, int, int, float, float]]] = (
        [None] * n_runs
    )
    aois: List[Optional[AoIStats]] = [None] * n_runs
    capacities, delta1s, delta2s, initials = fparams[:, 1:].T

    # Desire is precomputable per slot except for non-constant
    # partial-information recency tables — decided from the same gate
    # outputs as the native path.
    desire2 = np.zeros((n_runs, stride), dtype=bool)
    upfront: List[int] = []
    for j, fast in enumerate(fasts):
        horizon = lengths[j]
        if fast.slot_probs is not None:
            probs: Optional[np.ndarray] = np.asarray(
                fast.slot_probs, dtype=np.float64
            )
        elif fast.full_info:
            probs = kernel._full_info_probs(
                events2[j, :horizon], fast.table, fast.tail, horizon
            )
        elif (
            network_kernel._constant_table_prob(fast.table, fast.tail)
            is not None
        ):
            probs = np.full(horizon, fast.tail)
        else:
            probs = None
        if probs is None:
            telemetry.count("batch.scan.numpy_partial")
            a, c, b, neg, shave, slots = kernel._scan_partial(
                events2[j, :horizon],
                cs2[j, :horizon],
                coins2[j, :horizon],
                fast.table,
                fast.tail,
                float(capacities[j]),
                float(delta1s[j]),
                float(delta2s[j]),
                float(initials[j]),
            )
            scanned[j] = (a, c, b, neg, shave)
            aois[j] = aoi_from_capture_slots(slots, horizon)
        else:
            desire2[j, :horizon] = coins2[j, :horizon] < probs
            upfront.append(j)

    if not upfront:
        return scanned, aois  # type: ignore[return-value]
    telemetry.count("batch.scan.numpy_upfront", len(upfront))

    rows = np.asarray(upfront, dtype=np.intp)
    desire_up = desire2[rows]
    events_up = events2[rows]
    cost_col = (delta1s[rows] + delta2s[rows])[:, None]
    delta1_col = delta1s[rows][:, None]
    init_col = initials[rows][:, None]
    cap_col = capacities[rows][:, None]

    # Batched phase A (speculation): assume no desired slot is
    # battery-blocked.  Zero costs at undesired/padded slots keep every
    # per-run partial sum bitwise equal to the gathered
    # subtract.accumulate of the per-run scan (x + (-0.0) == x, and
    # x - y == x + (-y)).
    costs = np.where(
        desire_up, np.where(events_up, cost_col, delta1_col), 0.0
    )
    neg_full = np.cumsum(np.concatenate([init_col, -costs], axis=1), axis=1)
    pre = neg_full[:, :-1] + cs2[rows]
    shave_run = np.maximum(np.maximum.accumulate(pre - cap_col, axis=1), 0.0)
    failed = np.any(desire_up & (pre - shave_run < cost_col), axis=1)

    activations = np.count_nonzero(desire_up, axis=1)
    captures = np.count_nonzero(desire_up & events_up, axis=1)
    for k, j in enumerate(upfront):
        horizon = lengths[j]
        if failed[k]:
            # Speculation failed for this run: its blocked slots need
            # the per-run sparse scan (phase B), unchanged.
            telemetry.count("batch.scan.numpy_sparse")
            a, c, b, neg, shave, slots = kernel._scan_upfront(
                desire2[j, :horizon],
                events2[j, :horizon],
                cs2[j, :horizon],
                float(capacities[j]),
                float(delta1s[j]),
                float(delta2s[j]),
                float(initials[j]),
            )
            scanned[j] = (a, c, b, neg, shave)
            aois[j] = aoi_from_capture_slots(slots, horizon)
        else:
            scanned[j] = (
                int(activations[k]),
                int(captures[k]),
                0,
                float(neg_full[k, -1]),
                float(shave_run[k, -1]),
            )
            # Speculation held, so every desired event slot captured.
            cap_idx = np.nonzero(desire_up[k] & events_up[k])[0]
            aois[j] = aoi_from_capture_slots(
                (cap_idx + 1).astype(np.int64), horizon
            )
    return scanned, aois  # type: ignore[return-value]


def simulate_network_runs(
    specs: Iterable[NetworkRunSpec],
    backend: str = "auto",
) -> List[SimulationResult]:
    """Run every network spec and return results in input order.

    The batched counterpart of per-seed :func:`repro.sim.simulate_network`
    calls, bit-identical to them; with the native scan available, all
    eligible runs execute in one ``repro_network_batch_scan`` call.
    Runs may use different coordinators and sensor counts.
    """
    specs = list(specs)
    _check_backend(backend)
    n_specs = len(specs)
    if n_specs == 0:
        return []
    telemetry.count("network_batch.runs", n_specs)

    initials = _validated_initials(specs)
    # Sub-stream counts vary with the fleet size; derive per count.
    counts = [2 + s.coordinator.n_sensors for s in specs]
    streams: List[List[np.random.Generator]] = [[]] * n_specs
    for want in sorted(set(counts)):
        idxs = [i for i, k in enumerate(counts) if k == want]
        got = _substreams([specs[i].seed for i in idxs], want)
        for i, run_streams in zip(idxs, got):
            streams[i] = run_streams
    event_rows = _bulk_event_rows(specs, [st[0] for st in streams])
    recharge_blocks = _bulk_recharge_rows(specs, [st[2:] for st in streams])
    coins = [streams[i][1].random(s.horizon) for i, s in enumerate(specs)]
    plans: List[Optional[network_kernel.NetworkPlan]] = []
    reasons: List[Optional[str]] = []
    for i, spec in enumerate(specs):
        plan: Optional[network_kernel.NetworkPlan] = None
        reason: Optional[str] = None
        if backend != "reference":
            plan, reason = network_kernel.plan_or_reason(
                spec.coordinator, event_rows[i], recharge_blocks[i],
                spec.horizon,
            )
        plans.append(plan)
        reasons.append(reason)

    results: List[Optional[SimulationResult]] = [None] * n_specs
    # Eligible runs with their plans; horizon-0 runs finish in the
    # numpy kernel's early return.
    planned: List[Tuple[int, network_kernel.NetworkPlan]] = []
    fallback_reasons: List[str] = []
    for i, spec in enumerate(specs):
        plan = plans[i]
        if plan is not None:
            planned.append((i, plan))
            continue
        if backend == "vectorized":
            where = f" for spec {i}" if n_specs > 1 else ""
            raise SimulationError(
                f"vectorized backend unavailable{where}: {reasons[i]}"
            )
        if backend != "reference":
            fallback_reasons.append(reasons[i] or "")
        # Runtime import: repro.sim.network imports this module for its
        # vectorized backend, so a module-top import would be circular.
        from repro.sim.network import _simulate_network_reference

        # Reset right before the loop, so runs sharing a stateful
        # coordinator each start from its initial state.
        spec.coordinator.reset()
        results[i] = _simulate_network_reference(
            coordinator=spec.coordinator,
            events=event_rows[i],
            recharge_rows=recharge_blocks[i],
            coins=coins[i],
            capacity=float(spec.capacity),
            delta1=float(spec.delta1),
            delta2=float(spec.delta2),
            horizon=spec.horizon,
            initial=initials[i],
        )
    telemetry.count(
        "network_batch.dispatch.reference", n_specs - len(planned)
    )
    _record_runs(
        "simulate_network_runs",
        specs,
        [
            {
                "coordinator": type(s.coordinator).__name__,
                "n_sensors": int(s.coordinator.n_sensors),
            }
            for s in specs
        ],
        [plan is not None for plan in plans],
        fallback_reasons,
    )

    native = get_native_scan()
    scanned = [
        (i, plan) for i, plan in planned
        if native is not None and specs[i].horizon > 0
    ]
    telemetry.count("network_batch.dispatch.native", len(scanned))
    telemetry.count(
        "network_batch.dispatch.numpy", len(planned) - len(scanned)
    )
    for i, plan in planned:
        if native is None or specs[i].horizon == 0:
            spec = specs[i]
            results[i] = network_kernel.simulate_network_kernel(
                events=event_rows[i],
                recharge_rows=recharge_blocks[i],
                coins=coins[i],
                plan=plan,
                capacity=float(spec.capacity),
                delta1=float(spec.delta1),
                delta2=float(spec.delta2),
                horizon=spec.horizon,
                initial=initials[i],
            )
    if scanned:
        _scan_network_packed(
            native, specs, scanned, event_rows, recharge_blocks, coins,
            initials, results,
        )
    return results  # type: ignore[return-value]


def _scan_network_packed(
    native: Any,
    specs: Sequence[NetworkRunSpec],
    scanned: Sequence[Tuple[int, network_kernel.NetworkPlan]],
    event_rows: Sequence[np.ndarray],
    recharge_blocks: Sequence[np.ndarray],
    coins: Sequence[np.ndarray],
    initials: Sequence[float],
    results: List[Optional[SimulationResult]],
) -> None:
    """Pack the planned runs, scan them in one native call, split results."""
    lengths = [specs[i].horizon for i, _ in scanned]
    n_sensors = [plan.n_sensors for _, plan in scanned]
    stride = max(lengths)
    offsets = np.cumsum([0] + n_sensors).tolist()
    telemetry.count(
        "network_batch.padding_waste_slots",
        offsets[-1] * stride - sum(n * h for n, h in zip(n_sensors, lengths)),
    )

    events2 = _packed([event_rows[i] for i, _ in scanned], stride, np.bool_)
    coins2 = _packed([coins[i] for i, _ in scanned], stride, np.float64)
    resp2 = _packed([plan.resp for _, plan in scanned], stride, np.int64)
    cs_all = np.cumsum(
        _packed([recharge_blocks[i] for i, _ in scanned], stride, np.float64),
        axis=1,
    )
    run_probs = [_run_probs(plan.table, plan.slot_probs) for _, plan in scanned]
    tables, table_offsets = _pack_tables([p for p, _ in run_probs])
    iparams = np.array(
        [
            (lengths[j], n_sensors[j], offsets[j], table_offsets[j],
             probs.size, mode, plan.full_info)
            for j, ((_, plan), (probs, mode)) in enumerate(
                zip(scanned, run_probs)
            )
        ],
        dtype=np.int64,
    )
    fparams = np.array(
        [
            (plan.tail, specs[i].capacity, specs[i].delta1, specs[i].delta2,
             initials[i])
            for i, plan in scanned
        ],
        dtype=np.float64,
    )
    counts, state, aoi_rows = native.scan_network_batch(
        cs_all, events2.view(np.uint8), coins2, resp2, tables, iparams,
        fparams,
    )

    n_events_all = np.count_nonzero(events2, axis=1)
    counts_l = counts.tolist()
    state_l = state.tolist()
    for j, (i, _) in enumerate(scanned):
        horizon = lengths[j]
        rows = range(offsets[j], offsets[j + 1])
        captures_by = [counts_l[r][1] for r in rows]
        area, area_sq, max_age, last_capture = aoi_rows[j].tolist()
        results[i] = network_kernel._network_result(
            [counts_l[r][0] for r in rows],
            captures_by,
            [counts_l[r][2] for r in rows],
            [state_l[r][0] for r in rows],
            [state_l[r][1] for r in rows],
            [float(cs_all[r, horizon - 1]) for r in rows],
            int(n_events_all[j]),
            float(specs[i].delta1),
            float(specs[i].delta2),
            horizon,
            [counts_l[r][3] for r in rows],
            AoIStats(
                area=area,
                area_sq=area_sq,
                max_age=max_age,
                last_capture_slot=last_capture,
                n_resets=sum(captures_by),
                horizon=horizon,
            ),
        )
