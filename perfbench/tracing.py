"""Layer spans recorded from outside the program.

The traced run wraps the public functions that bound each layer (the
table in ``perfbench/README.md``) and records one :class:`Span` per
call: name, start, end, the span that caused it, the op it belongs to
and the thread it ran on.  Stacks are kept per thread, so the server's
worker threads nest their own spans.  A span's *self time* is its
duration minus the durations of its direct children; self times of one
thread's spans therefore partition the time covered by its outermost
spans, which is what makes ``trace.unattributed_s`` meaningful.

Spans are kept in memory and summarised when the traced pass ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Id of the op the current code runs for; spans copy it when they open.
OP_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: (module, attribute or ``Class.method``, span name) for every layer
#: boundary the traced run wraps.  Class methods are wrapped on the class
#: and on every subclass that overrides them.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.events.renewal", "generate_event_flags", "events.draw"),
    ("repro.events.renewal", "generate_event_flags_bulk", "events.draw"),
    ("repro.energy.recharge", "RechargeProcess.sequence", "energy.recharge"),
    ("repro.energy.recharge", "RechargeProcess.sequence_bulk",
     "energy.recharge"),
    ("repro.sim.batch_kernel", "simulate_batch", "sim.batch"),
    ("repro.sim.batch_kernel", "simulate_network_runs", "sim.network"),
    ("repro.sim.engine", "simulate_single", "sim.single"),
    ("repro.sim.chunked", "ChunkedSimulator.run_chunk", "sim.chunk"),
    ("repro.sim.metrics", "aoi_from_capture_slots", "sim.aoi"),
    ("repro.analysis.partial_info", "PartialInfoSolver.analyse",
     "analysis.dp"),
    ("repro.analysis.partial_info", "analyse_partial_info_policy",
     "analysis.dp"),
    ("repro.core.clustering", "optimize_clustering", "core.search"),
    ("repro.core.baselines", "solve_ebcw", "core.baselines"),
    ("repro.core.baselines", "solve_age_threshold", "core.baselines"),
    ("repro.core.baselines", "energy_balanced_period", "core.baselines"),
    ("repro.core.greedy", "solve_greedy", "core.baselines"),
    ("repro.store.tiered", "TieredStore.lookup", "store.lookup"),
    ("repro.store.tiered", "TieredStore.put", "store.put"),
    ("repro.serve.schema", "validate", "serve.validate"),
    ("repro.adaptive.controller", "AdaptiveController.step",
     "adaptive.step"),
    ("repro.adaptive.observer", "estimate_true_pmf", "adaptive.estimate"),
    ("repro.adaptive.observer", "deconvolve_captured_gaps",
     "adaptive.estimate"),
)


class Span:
    """One finished (or open) call of a wrapped layer function."""

    __slots__ = ("name", "op", "thread", "parent", "start", "end", "child_s")

    def __init__(
        self, name: str, op: Optional[int], thread: int,
        parent: Optional["Span"],
    ) -> None:
        self.name = name
        self.op = op
        self.thread = thread
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self.spans: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as a span named ``name``."""
        stack = self._stack()
        span = Span(
            name, OP_ID.get(), threading.get_ident(),
            stack[-1] if stack else None,
        )
        stack.append(span)
        span.start = self._clock()
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced


def self_time(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.self_s
    return out


def counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per span name."""
    out: Dict[str, int] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0) + 1
    return out


def outermost(spans: Sequence[Span], name: str, within: Optional[str] = None
              ) -> int:
    """Spans named ``name`` not nested in another of that name, counting
    only those opened inside a ``within`` span when it is given."""
    return sum(
        1 for s in spans
        if s.name == name and not s.has_ancestor(name)
        and (within is None or s.has_ancestor(within))
    )


Restore = List[Tuple[Any, str, Any]]


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass, each once."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def install(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, str]] = LAYER_TARGETS,
    package: str = "repro",
) -> Restore:
    """Wrap every target; returns what :func:`uninstall` puts back.

    A module-level function is replaced in every loaded module of
    ``package`` that binds it by name, so callers that did
    ``from x import f`` see the wrapper too.  Import every module whose
    callers matter before calling this.
    """
    restore: Restore = []
    for module_name, attr, span_name in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            for cls in _subclasses(getattr(module, cls_name)):
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, tracer.wrap(original, span_name))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, span_name)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == package or name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return restore


def uninstall(restore: Restore) -> None:
    """Undo :func:`install`."""
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)
