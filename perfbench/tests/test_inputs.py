"""The seed fixes every workload's schedule and inputs."""

import os

import pytest

from perfbench.workloads import WORKLOADS, adaptive, serve, simulate, solve

MODULES = {"solve": solve, "simulate": simulate, "serve": serve,
           "adaptive": adaptive}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    module = MODULES[name]
    assert module.make_inputs(5, 20) == module.make_inputs(5, 20)


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_other_inputs(name):
    module = MODULES[name]
    assert module.make_inputs(5, 20) != module.make_inputs(6, 20)


def test_serve_schedule_is_open_loop_and_sized():
    inputs = serve.make_inputs(3, 20)
    times = [r["t"] for r in inputs["schedule"]]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 20.0
    assert len(times) == round(serve.RATE_RPS * 20)
    kinds = {}
    for r in inputs["schedule"]:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    # Class counts are fixed by the mix, not drawn per seed.
    assert kinds == {
        k: round(share * len(times)) for k, share in serve.MIX
    }


def test_batch_workloads_fix_their_composition():
    """Seeds change parameters and order, never the amount of work."""
    a, b = solve.make_inputs(1, 20), solve.make_inputs(2, 20)
    assert sorted(op["family"] for op in a) == sorted(op["family"] for op in b)
    sa, sb = simulate.make_inputs(1, 20), simulate.make_inputs(2, 20)
    assert len(sa["rounds"]) == len(sb["rounds"])
    for ra, rb in zip(sa["rounds"], sb["rounds"]):
        assert len(ra["singles"]["horizons"]) == len(rb["singles"]["horizons"])
    aa, ab = adaptive.make_inputs(1, 20), adaptive.make_inputs(2, 20)
    assert sorted((o["scenario"], o["info"], o["horizon"]) for o in aa) == \
        sorted((o["scenario"], o["info"], o["horizon"]) for o in ab)


def test_serve_busy_time_reads_proc_cpu_seconds():
    busy = os.times()
    deadline = busy.user + busy.system + 0.2
    while sum(os.times()[:2]) < deadline:
        pass
    own = os.times()
    assert serve.cpu_seconds(os.getpid()) == pytest.approx(
        own.user + own.system, abs=0.05)
