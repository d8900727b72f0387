"""One benchmark process: set a workload up, measure it, print JSON.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` with
``PYTHONPATH=src``, so interpreter start and program imports fall inside
``setup_s``.  With ``--setup-only`` it stops after set-up; the parent
runs several of those to take a median set-up time.  Otherwise it runs
the workload's fixed input once untraced (the end-to-end numbers) and,
with ``--trace 1``, once more with the layer wrappers installed and
telemetry collecting (the per-layer numbers).  The last stdout line is
one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import tracing


@dataclass
class Pass:
    """What one run of a workload's fixed input produced."""

    wall_s: float
    attempted: int = 0
    #: Op index -> what was wrong with its output; one entry per op.
    failures: Dict[int, List[str]] = field(default_factory=dict)
    #: Simulated sensor-slots (one sensor for one slot counts 1).
    slots: int = 0
    #: Workload-specific values reported beside the layer metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: :func:`summarize` output of a traced pass.
    trace: Optional[Dict[str, Any]] = None

    def fail(self, op: int, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


@dataclass
class Context:
    """Per-run settings and the op runner shared by every workload."""

    workdir: pathlib.Path
    #: CPUs the run may use, as allowed before the worker pinned itself.
    cpus: List[int] = field(default_factory=list)
    tracer: Optional[tracing.Tracer] = None
    counters: Dict[str, int] = field(default_factory=dict)
    _next_op: int = 0

    def op(self, fn: Callable[..., Any], *args: Any, **kwargs: Any
           ) -> Tuple[Any, float]:
        """Run one op and return ``(result, seconds)``.

        Only the call itself is timed; output checks run outside.  In a
        traced pass the op's spans carry its id and the program's
        telemetry counters are collected around the call alone, so the
        benchmark's own reference runs never reach them.
        """
        self._next_op += 1
        token = tracing.OP_ID.set(self._next_op)
        try:
            if self.tracer is None:
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                return out, time.perf_counter() - start
            from repro.devtools import telemetry

            with telemetry.collect() as col:
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
            for name, value in col.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            return out, elapsed
        finally:
            tracing.OP_ID.reset(token)


def summarize(spans: List[tracing.Span], counters: Dict[str, int]
              ) -> Dict[str, Any]:
    """Plain-data summary of a traced pass (also written by the traced
    server, so both sides feed :func:`layer_metrics` the same shape)."""
    return {
        "self_s": tracing.self_time(spans),
        "counts": tracing.counts(spans),
        "analyses": tracing.outermost(spans, "analysis.dp"),
        "analyses_in_search": tracing.outermost(
            spans, "analysis.dp", within="core.search"
        ),
        "searches": tracing.outermost(spans, "core.search"),
        "counters": dict(counters),
    }


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


#: Per-layer metric name -> span name whose self time it reports.
SELF_TIME_METRICS = {
    "events.draw_s": "events.draw",
    "energy.recharge_s": "energy.recharge",
    "sim.batch_s": "sim.batch",
    "sim.network_s": "sim.network",
    "sim.single_s": "sim.single",
    "sim.chunk_s": "sim.chunk",
    "sim.aoi_s": "sim.aoi",
    "analysis.dp_s": "analysis.dp",
    "core.search_s": "core.search",
    "core.baselines_s": "core.baselines",
    "store.lookup_s": "store.lookup",
    "store.put_s": "store.put",
    "serve.validate_s": "serve.validate",
    "adaptive.step_s": "adaptive.step",
    "adaptive.estimate_s": "adaptive.estimate",
}

#: Workload-specific values a workload may put in ``Pass.extra``; the
#: others report 0 for them.
EXTRA_METRICS = (
    "solve_p50_ms", "simulate_p50_ms", "p99_ms",
    "store.memory_hit_ratio", "serve.handler_ms.solve",
    "serve.handler_ms.simulate", "serve.handler_ms.sweep",
    "serve.queue_ms", "serve.transport_ms", "serve.batch_size",
    "serve.late_ms",
)


def layer_metrics(untraced: Pass, traced: Pass) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one trace run."""
    summary = traced.trace or {}
    self_s = summary.get("self_s", {})
    c = summary.get("counters", {})
    out: Dict[str, float] = {
        name: float(self_s.get(span, 0.0))
        for name, span in SELF_TIME_METRICS.items()
    }
    out["sim.fallback_runs"] = float(
        c.get("batch.dispatch.reference", 0)
        + c.get("sim.fallback.reference", 0)
        + c.get("network.fallback.reference", 0)
    )
    out["sim.native_share"] = _ratio(
        c.get("batch.dispatch.native", 0), c.get("batch.runs", 0)
    )
    out["analysis.analyses"] = float(summary.get("analyses", 0))
    hits = c.get("analysis.memo.hit", 0)
    out["analysis.memo_hit_ratio"] = _ratio(
        hits, hits + c.get("analysis.memo.miss", 0)
    )
    out["analysis.prefix_slots_reused"] = float(
        c.get("analysis.prefix.slots_reused", 0)
    )
    out["core.analyses_per_solve"] = _ratio(
        summary.get("analyses_in_search", 0), summary.get("searches", 0)
    )
    out["adaptive.resolves"] = float(c.get("adaptive.resolve", 0))
    out["trace.unattributed_s"] = traced.wall_s - sum(self_s.values())
    out["trace.overhead_ratio"] = _ratio(traced.wall_s, untraced.wall_s)
    out["telemetry.dropped"] = float(c.get("telemetry.dropped", 0))
    for name in EXTRA_METRICS:
        out[name] = float(untraced.extra.get(name, 0.0))
    out["slots_per_s"] = _ratio(untraced.slots, untraced.wall_s)
    out["fail_rate"] = _ratio(len(untraced.failures), untraced.attempted)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def allowed_cpus() -> List[int]:
    """CPUs this process may run on, lowest first ([] if unknown)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin_to(cpu: int) -> None:
    """Run this process (and threads it starts later) on ``cpu`` only."""
    os.sched_setaffinity(0, {cpu})


def native_status() -> Dict[str, Any]:
    from repro.sim._native import get_native_scan

    scan = get_native_scan()
    return {
        "native_scan": scan is not None,
        "openmp": bool(getattr(scan, "openmp", False)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    cpus = allowed_cpus()
    if len(cpus) >= 2:
        # One core for the work: same-seed runs of ``simulate`` spread
        # 2.7 % unpinned and 0.5 % pinned on a 2-core host.  ``serve``
        # puts its client here and its server on the other core.
        pin_to(cpus[-1] if workload.IN_PROCESS else cpus[0])
    inputs = workload.make_inputs(args.seed, args.seconds)
    ctx = Context(workdir=pathlib.Path(args.workdir), cpus=cpus)
    state = workload.setup(inputs, ctx)
    out: Dict[str, Any] = {"setup_end": time.monotonic()}
    try:
        if not args.setup_only:
            import numpy

            out.update(native_status())
            out["numpy"] = numpy.__version__
            out["pinning"] = workload.PINNING
            untraced = workload.measure(state, inputs, ctx)
            # A workload that serves from another process reports that
            # process's peak; read ours before a traced pass can grow it.
            out["peak_rss_mb"] = untraced.extra.pop(
                "server_peak_rss_mb", None
            ) or peak_rss_mb()
            out["untraced"] = _pass_dict(untraced)
            if args.trace:
                ctx.tracer = tracing.Tracer()
                if workload.IN_PROCESS:
                    tracing.install(ctx.tracer)
                traced = workload.measure(state, inputs, ctx)
                if traced.trace is None:
                    # Spans outside ops come from the output checks.
                    traced.trace = summarize(
                        [s for s in ctx.tracer.spans if s.op is not None],
                        ctx.counters,
                    )
                out["traced"] = _pass_dict(traced)
                out["layers"] = layer_metrics(untraced, traced)
    finally:
        workload.teardown(state)
    print(json.dumps(out), flush=True)
    return 0


def _pass_dict(p: Pass) -> Dict[str, Any]:
    return {
        "wall_s": p.wall_s,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "failures": [
            f"op {op}: " + "; ".join(msgs)
            for op, msgs in sorted(p.failures.items())
        ][:20],
        "slots": p.slots,
        "extra": p.extra,
    }


if __name__ == "__main__":
    # Run the imported module's main so the workloads, which import
    # perfbench.worker, share its classes with this process.
    from perfbench import worker

    raise SystemExit(worker.main())
