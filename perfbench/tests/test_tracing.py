"""Self time of nested and threaded spans, and the install/uninstall
round trip."""

import sys
import threading
import types

from perfbench import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_nested_self_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(2.0)
            with tracer.span("leaf"):
                clock.advance(0.5)
        clock.advance(0.25)
        with tracer.span("inner"):
            clock.advance(1.0)
    self_s = tracing.self_time(tracer.spans)
    assert self_s == {"outer": 1.25, "inner": 3.0, "leaf": 0.5}
    assert sum(self_s.values()) == 4.75  # == the outer span's duration
    assert tracing.counts(tracer.spans) == {"outer": 1, "inner": 2, "leaf": 1}


def test_recursive_span_counts_once_as_outermost():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("search"):
        with tracer.span("dp"):
            with tracer.span("dp"):
                clock.advance(1.0)
        with tracer.span("dp"):
            clock.advance(1.0)
    with tracer.span("dp"):
        clock.advance(1.0)
    assert tracing.outermost(tracer.spans, "dp") == 3
    assert tracing.outermost(tracer.spans, "dp", within="search") == 2
    assert tracing.self_time(tracer.spans)["dp"] == 3.0


def test_threads_keep_their_own_stacks():
    """A span opened on another thread while the main thread's span is
    open is not its child, and both self times are whole."""
    tracer = tracing.Tracer()
    started = threading.Event()
    release = threading.Event()

    def worker():
        with tracer.span("worker"):
            started.set()
            release.wait(5)

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        assert started.wait(5)
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["worker"].parent is None
    assert by_name["main"].child_s == 0.0
    assert by_name["worker"].thread != by_name["main"].thread


def test_op_id_is_copied_into_spans():
    tracer = tracing.Tracer()
    token = tracing.OP_ID.set(7)
    try:
        with tracer.span("a"):
            pass
    finally:
        tracing.OP_ID.reset(token)
    with tracer.span("b"):
        pass
    assert [s.op for s in tracer.spans] == [7, None]


def test_install_wraps_every_binding_and_subclass():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def solve(x):
        return x + 1

    class Base:
        def draw(self):
            return "base"

    class Child(Base):
        def draw(self):
            return "child:" + super().draw()

    core.solve, core.Base = solve, Base
    user.solve = solve  # as after "from fakepkg.core import solve"
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    tracer = tracing.Tracer()
    try:
        restore = tracing.install(
            tracer,
            [("fakepkg.core", "solve", "core.solve"),
             ("fakepkg.core", "Base.draw", "draw")],
            package="fakepkg",
        )
        assert user.solve(1) == 2 and core.solve(2) == 3
        assert Child().draw() == "child:base"
        assert tracing.counts(tracer.spans) == {"core.solve": 2, "draw": 2}
        tracing.uninstall(restore)
        assert user.solve is solve and Base.__dict__["draw"] is not None
        before = len(tracer.spans)
        Child().draw()
        assert len(tracer.spans) == before
    finally:
        for name in modules:
            sys.modules.pop(name, None)
