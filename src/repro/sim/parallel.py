"""Process-parallel fan-out for replications and figure sweeps.

One simulation point is CPU-bound Python/numpy, so threads do not help;
:func:`parallel_map` fans work items out to a ``ProcessPoolExecutor``
instead.  Workers are forked, and the callable travels to them through a
module-level slot set in the parent *before* the pool starts — forked
children inherit it, so closures and locally-constructed policies work
without being picklable.  Only the work items and results cross the
process boundary (both are plain simulation inputs/outputs).

Determinism: items are dispatched in order and results are returned in
the same order, so ``parallel_map(fn, items, n_jobs=k)`` returns exactly
``[fn(x) for x in items]`` for every ``k`` — parallelism never changes
results, only wall time.  On platforms without the ``fork`` start method
the map silently degrades to serial execution.

Auto-serial dispatch
--------------------
Forking a pool costs tens of milliseconds (process spawn, numpy state
copy, IPC setup) *per call* — a fresh pool cannot be reused across calls
because the worker callable is inherited at fork time.  For small
workloads that fixed cost dominates and "parallelism" is a slowdown
(the 0.48x replicate regression in ``BENCH_simulator.json``).
``parallel_map`` therefore times the first item serially and only forks
when the *remaining* serial work (``first_seconds * (len(items) - 1)``)
exceeds :data:`PARALLEL_MIN_FORK_SECONDS`; below the threshold it
finishes serially.

Dispatch telemetry
------------------
Every call reports how it executed through
:func:`repro.devtools.telemetry.record_dispatch` — written when the
call *completes* (success or failure), so nested or back-to-back calls
each report their own execution and an exception can never leave a
stale record from the previous run behind.  Read the calling context's
most recent record with
:func:`repro.devtools.telemetry.last_dispatch_record`.  When a telemetry
collector is active, forked workers additionally capture per-item
counters/timers/events in isolated frames and ship the snapshots back
with the results, so serial and parallel runs of the same workload
report identical telemetry totals.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.devtools import telemetry
from repro.exceptions import SimulationError

T = TypeVar("T")
R = TypeVar("R")

#: Minimum estimated *remaining* serial seconds that justify forking a
#: pool.  Chosen ~10x the measured per-call pool spin-up (~20-40 ms on
#: the benchmark container) so the fork overhead stays a small fraction
#: of any workload that does get parallelised.
PARALLEL_MIN_FORK_SECONDS = 0.25

#: The callable being mapped; inherited by forked workers.
_WORKER_FN: Optional[Callable[[Any], Any]] = None

#: Whether forked workers should capture per-item telemetry snapshots;
#: inherited at fork time, mirrors telemetry.enabled() in the parent.
_WORKER_COLLECT: bool = False


def _call_worker(item: Any) -> Any:
    fn = _WORKER_FN
    if fn is None:  # pragma: no cover - defensive; set before forking
        raise SimulationError("parallel worker started without a callable")
    if not _WORKER_COLLECT:
        return fn(item)
    with telemetry.isolated_collect() as frame:
        result = fn(item)
    return result, frame.snapshot()


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` argument: None -> 1, -1 -> all cores."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise SimulationError(
            f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}"
        )
    return int(n_jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    min_fork_seconds: Optional[float] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, optionally across worker processes.

    ``n_jobs=None`` (or 1) runs serially in-process; ``-1`` uses every
    core.  With ``n_jobs > 1`` the first item is timed serially and the
    pool is only forked when the remaining serial work would exceed
    ``min_fork_seconds`` (default :data:`PARALLEL_MIN_FORK_SECONDS`;
    pass ``0.0`` to always fork) — results are identical either way.
    Items are chunked to amortise IPC; ``chunksize`` defaults to roughly
    four chunks per worker.
    """
    work: Sequence[T] = list(items)
    jobs = min(resolve_n_jobs(n_jobs), len(work))
    threshold = (
        PARALLEL_MIN_FORK_SECONDS
        if min_fork_seconds is None
        else float(min_fork_seconds)
    )
    record: Dict[str, Any] = {
        "mode": "none",
        "n_jobs": jobs,
        "threshold_seconds": threshold,
        "first_item_seconds": None,
        "items": len(work),
        "error": True,
    }
    try:
        result = _execute(fn, work, jobs, threshold, chunksize, record)
        record["error"] = False
        return result
    finally:
        telemetry.record_dispatch(record)


def _execute(
    fn: Callable[[T], R],
    work: Sequence[T],
    jobs: int,
    threshold: float,
    chunksize: Optional[int],
    record: Dict[str, Any],
) -> List[R]:
    """Run the map, updating ``record`` as dispatch decisions are made."""
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        record["mode"] = "serial"
        return [fn(x) for x in work]

    start = time.perf_counter()
    first = fn(work[0])
    record["first_item_seconds"] = time.perf_counter() - start
    rest = work[1:]
    if record["first_item_seconds"] * len(rest) < threshold:
        record["mode"] = "serial-auto"
        return [first] + [fn(x) for x in rest]

    record["mode"] = "parallel"
    jobs = min(jobs, len(rest))
    if chunksize is None:
        chunksize = max(1, len(rest) // (jobs * 4))
    global _WORKER_FN, _WORKER_COLLECT
    previous = _WORKER_FN
    previous_collect = _WORKER_COLLECT
    collecting = telemetry.enabled()
    _WORKER_FN = fn
    _WORKER_COLLECT = collecting
    try:
        context = multiprocessing.get_context("fork")
        pool_start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            shipped = list(pool.map(_call_worker, rest, chunksize=chunksize))
        record["pool_seconds"] = time.perf_counter() - pool_start
    finally:
        _WORKER_FN = previous
        _WORKER_COLLECT = previous_collect
    if not collecting:
        return [first] + shipped
    results: List[R] = [first]
    for result, snapshot in shipped:
        telemetry.absorb(snapshot)
        results.append(result)
    return results
