"""Literal results of the single-run entry points, pinned across refactors.

The bit-identity suites compare two implementations with each other; a
change that moves both (a different sub-stream derivation, a reordered
draw) passes them silently.  These values were recorded from
``simulate_single`` and ``simulate_network`` and must never drift: a
seed names one trajectory for good.  Every seed kind is covered — an
``int``, a ``SeedSequence``, a spawned child, and a ``Generator``, whose
own stream must also be left where the original protocol leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AggressivePolicy, make_mpi, solve_greedy
from repro.core.clustering import optimize_clustering
from repro.core.multi import MultiAggressiveCoordinator
from repro.energy import BernoulliRecharge
from repro.events import WeibullInterArrival
from repro.sim import simulate_network, simulate_single, spawn_seeds

DELTA1, DELTA2 = 1.0, 6.0
HORIZON = 3000

#: (entry, policy or fleet, seed kind) -> (n_events, n_captures,
#: float.hex of the last sensor's final battery, (AoI area, area_sq,
#: max_age, last_capture_slot)).
PINS = {
    ("single", "greedy", "int"): (
        87, 51, "0x1.8000000003e00p+3", (120228, 9347174, 232, 2951)),
    ("single", "greedy", "seed_sequence"): (
        81, 42, "0x1.a000000008100p+2", (174208, 21915932, 323, 2945)),
    ("single", "greedy", "spawned"): (
        83, 38, "0x1.8cccccccd3e00p+2", (174238, 18038580, 245, 2958)),
    ("single", "greedy", "generator"): (
        83, 46, "0x1.5333333334500p+3", (123481, 8656899, 175, 2825)),
    ("single", "clustering", "int"): (
        87, 33, "0x1.8000000007c00p+2", (225698, 32401406, 327, 2951)),
    ("single", "clustering", "seed_sequence"): (
        81, 31, "0x1.a000000008100p+2", (213951, 26422659, 277, 2800)),
    ("single", "clustering", "spawned"): (
        83, 37, "0x1.8cccccccd3e00p+2", (166785, 15993841, 225, 2958)),
    ("single", "clustering", "generator"): (
        83, 37, "0x1.b33333333bc00p+2", (170352, 17259830, 226, 2784)),
    ("single", "aggressive", "int"): (
        87, 34, "0x1.8000000007c00p+2", (211837, 27907881, 299, 2951)),
    ("single", "aggressive", "seed_sequence"): (
        81, 30, "0x1.a000000008100p+2", (210091, 25216727, 277, 2824)),
    ("single", "aggressive", "spawned"): (
        83, 27, "0x1.8cccccccd3e00p+2", (244337, 34706053, 341, 2958)),
    ("single", "aggressive", "generator"): (
        83, 28, "0x1.b33333333bc00p+2", (213482, 25263002, 252, 2784)),
    ("network", "mpi", "int"): (
        87, 36, "0x1.7e66666666660p+5", (124187, 7046971, 113, 2981)),
    ("network", "mpi", "seed_sequence"): (
        81, 32, "0x1.a666666666880p+2", (143641, 10136435, 200, 2800)),
    ("network", "mpi", "spawned"): (
        83, 34, "0x1.ee666666666c0p+4", (130381, 7764747, 119, 2958)),
    ("network", "mpi", "generator"): (
        83, 34, "0x1.0000000000700p+1", (130141, 7732245, 120, 2946)),
    ("network", "aggressive", "int"): (
        87, 13, "0x1.9333333333800p+2", (508519, 156379209, 651, 2349)),
    ("network", "aggressive", "seed_sequence"): (
        81, 17, "0x1.a000000000400p+2", (421542, 105945004, 574, 2800)),
    ("network", "aggressive", "spawned"): (
        83, 17, "0x1.9999999999b80p+2", (441109, 127011333, 637, 2929)),
    ("network", "aggressive", "generator"): (
        83, 16, "0x1.8ccccccccd1a0p+2", (384233, 82452515, 438, 2873)),
}

#: ``float.hex`` of a ``default_rng(99)`` seed's next ``random()`` after
#: one call: spawning sub-streams must not advance its bit stream.
GENERATOR_NEXT_DRAW = "0x1.031673dbea95cp-1"

SEED_KINDS = ("int", "seed_sequence", "spawned", "generator")


def _seed(kind: str):
    return {
        "int": lambda: 2024,
        "seed_sequence": lambda: np.random.SeedSequence(77),
        "spawned": lambda: spawn_seeds(5, 3)[2],
        "generator": lambda: np.random.default_rng(99),
    }[kind]()


@pytest.fixture(params=["native", "numpy"])
def kernel_impl(request, monkeypatch):
    monkeypatch.setenv(
        "REPRO_NATIVE_SCAN", "1" if request.param == "native" else "0"
    )
    return request.param


@pytest.fixture(scope="module")
def policies():
    d = WeibullInterArrival(40, 3)
    return {
        "greedy": solve_greedy(d, 0.5, DELTA1, DELTA2).as_policy(),
        "clustering": optimize_clustering(d, 0.5, DELTA1, DELTA2).policy,
        "aggressive": AggressivePolicy(),
    }


def _fleet(name: str):
    if name == "mpi":
        return make_mpi(WeibullInterArrival(40, 3), 0.1, 3, DELTA1, DELTA2)[0]
    return MultiAggressiveCoordinator(2)


def _check(key, result, seed) -> None:
    aoi = result.aoi
    got = (
        result.n_events,
        result.n_captures,
        result.sensors[-1].final_battery.hex(),
        (aoi.area, aoi.area_sq, aoi.max_age, aoi.last_capture_slot),
    )
    assert got == PINS[key]
    if isinstance(seed, np.random.Generator):
        assert float(seed.random()).hex() == GENERATOR_NEXT_DRAW


@pytest.mark.parametrize("backend", ["auto", "reference"])
@pytest.mark.parametrize("kind", SEED_KINDS)
@pytest.mark.parametrize("policy", ["greedy", "clustering", "aggressive"])
def test_simulate_single_pinned(policies, kernel_impl, backend, kind, policy):
    seed = _seed(kind)
    result = simulate_single(
        WeibullInterArrival(40, 3), policies[policy],
        BernoulliRecharge(0.5, 0.7), capacity=40.0, delta1=DELTA1,
        delta2=DELTA2, horizon=HORIZON, seed=seed, backend=backend,
    )
    _check(("single", policy, kind), result, seed)


@pytest.mark.parametrize("backend", ["auto", "reference"])
@pytest.mark.parametrize("kind", SEED_KINDS)
@pytest.mark.parametrize("fleet", ["mpi", "aggressive"])
def test_simulate_network_pinned(kernel_impl, backend, kind, fleet):
    seed = _seed(kind)
    result = simulate_network(
        WeibullInterArrival(40, 3), _fleet(fleet),
        BernoulliRecharge(0.1, 0.9), capacity=50.0, delta1=DELTA1,
        delta2=DELTA2, horizon=HORIZON, seed=seed, backend=backend,
    )
    _check(("network", fleet, kind), result, seed)
