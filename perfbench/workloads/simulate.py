"""``simulate``: Monte Carlo at the paper's horizon on pre-solved policies.

Set-up solves every policy once for a seed-drawn Weibull model near
W(40, 3): greedy FI, clustering PI, aggressive, energy-balanced
periodic and age threshold for one sensor, and the M-FI / M-PI /
periodic / aggressive coordinators for a fleet of ``N = 5``.  It also
loads the native scan and runs one warm-up batch, because the first big
batch in a process is about 1.7x slower than later ones.

Each round of the measured input is four public calls:

* ``simulate_batch`` over 8 runs of 1e6 slots, Bernoulli recharge;
* ``simulate_batch`` over 8 runs of 1e6 slots, constant recharge;
* ``simulate_network_runs`` over the four fleets, 1e6 slots each;
* 192 ``simulate_single`` calls (the ``repro simulate`` path) at four
  horizon strata from 512 to 2.6e5 slots, where per-call overhead
  rather than the scan decides the cost.

The solver does no work here; event and recharge draws, packing, the
scan and the AoI statistics do all of it.  The seed draws the model,
the rates (±5 % around the Fig. 4 / Fig. 6 points), every run seed and
the policy of each run; horizons and op counts are fixed so every seed
simulates the same number of slots.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from perfbench.worker import Context, Pass

#: The program runs in the worker process (traced there, pinned there).
IN_PROCESS = True
PINNING = "worker on the last allowed CPU (when 2 or more are allowed)"

DELTA1, DELTA2 = 1.0, 6.0
CAPACITY = 1000.0
HORIZON = 1_000_000
BATCH_RUNS = 8
FLEET = 5
SINGLE_STRATA = (512, 4096, 32768, 262144)
SINGLES_PER_STRATUM = 48
SINGLE_POLICIES = ("greedy", "clustering", "aggressive", "periodic", "age")
FLEET_POLICIES = ("mfi", "mpi", "periodic", "aggressive")
#: Horizon of the short copies re-run against ``backend="reference"``.
CHECK_HORIZON = 3000

ROUND_NOMINAL_S = 0.6


def n_rounds(seconds: int) -> int:
    return max(1, round(seconds / ROUND_NOMINAL_S))


def make_inputs(seed: int, seconds: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 2])

    def j(x: float, rel: float = 0.05) -> float:
        return round(x * rng.uniform(1 - rel, 1 + rel), 6)

    def seeds(n: int) -> List[int]:
        return [int(s) for s in rng.integers(0, 2**31, size=n)]

    def policies(n: int) -> List[str]:
        return [SINGLE_POLICIES[int(i)] for i in rng.integers(0, 5, size=n)]

    model = {"events": f"weibull:{j(40.0):.4f},{j(3.0):.4f}",
             "q": 0.5, "c": j(1.0), "fleet_q": 0.1, "fleet_c": j(1.0)}
    rounds = []
    for _ in range(n_rounds(seconds)):
        horizons = [
            int(h * rng.uniform(0.9, 1.1))
            for h in SINGLE_STRATA for _ in range(SINGLES_PER_STRATUM)
        ]
        rounds.append({
            "bernoulli": {"policies": policies(BATCH_RUNS),
                          "seeds": seeds(BATCH_RUNS)},
            "constant": {"policies": policies(BATCH_RUNS),
                         "seeds": seeds(BATCH_RUNS)},
            "network": {"seeds": seeds(len(FLEET_POLICIES))},
            "singles": {"policies": policies(len(horizons)),
                        "seeds": seeds(len(horizons)),
                        "horizons": [int(h) for h in rng.permutation(horizons)]},
        })
    return {"model": model, "rounds": rounds,
            "warmup": {"policies": policies(BATCH_RUNS),
                       "seeds": seeds(BATCH_RUNS)}}


def setup(inputs: Dict[str, Any], ctx: Context) -> Dict[str, Any]:
    from repro import core
    from repro.energy import BernoulliRecharge, ConstantRecharge
    from repro.events.spec import parse_distribution
    from repro.sim import simulate_batch
    from repro.sim._native import get_native_scan

    get_native_scan()
    m = inputs["model"]
    d = parse_distribution(m["events"])
    e = m["q"] * m["c"]
    e_fleet = m["fleet_q"] * m["fleet_c"]
    state = {
        "distribution": d,
        "bernoulli": BernoulliRecharge(q=m["q"], c=m["c"]),
        "constant": ConstantRecharge(e),
        "fleet_recharge": BernoulliRecharge(q=m["fleet_q"], c=m["fleet_c"]),
        "policies": {
            "greedy": core.solve_greedy(d, e, DELTA1, DELTA2).as_policy(),
            "clustering": core.optimize_clustering(
                d, e, DELTA1, DELTA2).policy,
            "aggressive": core.AggressivePolicy(),
            "periodic": core.energy_balanced_period(d, e, DELTA1, DELTA2),
            "age": core.solve_age_threshold(d, e, DELTA1, DELTA2).policy,
        },
        "fleets": {
            "mfi": core.make_mfi(d, e_fleet, FLEET, DELTA1, DELTA2)[0],
            "mpi": core.make_mpi(d, e_fleet, FLEET, DELTA1, DELTA2)[0],
            "periodic": core.make_multi_periodic(
                d, e_fleet, FLEET, DELTA1, DELTA2),
            "aggressive": core.MultiAggressiveCoordinator(FLEET),
        },
    }
    simulate_batch(_batch_specs(state, "bernoulli", inputs["warmup"]))
    return state


def _batch_specs(state: Dict[str, Any], recharge: str,
                 group: Dict[str, Any], horizon: int = HORIZON) -> List[Any]:
    from repro.sim import RunSpec

    return [
        RunSpec(
            distribution=state["distribution"],
            policy=state["policies"][name], recharge=state[recharge],
            capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
            horizon=horizon, seed=seed,
        )
        for name, seed in zip(group["policies"], group["seeds"])
    ]


def _fleet_specs(state: Dict[str, Any], group: Dict[str, Any],
                 horizon: int = HORIZON) -> List[Any]:
    from repro.sim import NetworkRunSpec

    return [
        NetworkRunSpec(
            distribution=state["distribution"],
            coordinator=state["fleets"][name],
            recharge=state["fleet_recharge"], capacity=CAPACITY,
            delta1=DELTA1, delta2=DELTA2, horizon=horizon, seed=seed,
        )
        for name, seed in zip(FLEET_POLICIES, group["seeds"])
    ]


def _single_kwargs(state: Dict[str, Any], name: str, seed: int,
                   horizon: int) -> Dict[str, Any]:
    return dict(
        distribution=state["distribution"], policy=state["policies"][name],
        recharge=state["bernoulli"], capacity=CAPACITY, delta1=DELTA1,
        delta2=DELTA2, horizon=horizon, seed=seed,
    )


def _check_counts(result: Pass, index: int, runs: List[Any]) -> None:
    for r in runs:
        if r.n_captures > r.n_events:
            result.fail(index, f"{r.n_captures} captures > {r.n_events} events")
        if not 0.0 <= r.qom <= 1.0:
            result.fail(index, f"QoM {r.qom} outside [0, 1]")


def measure(state: Dict[str, Any], inputs: Dict[str, Any],
            ctx: Context) -> Pass:
    from repro import sim

    result = Pass(wall_s=0.0)
    index = 0

    def op(label: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        nonlocal index
        index += 1
        result.attempted += 1
        try:
            out, elapsed = ctx.op(fn, *args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op
            result.fail(index, f"{label}: {exc!r}")
            return None
        result.wall_s += elapsed
        return out

    for rnd in inputs["rounds"]:
        for recharge in ("bernoulli", "constant"):
            group = rnd[recharge]
            runs = op(recharge, lambda g=group, r=recharge: sim.simulate_batch(
                _batch_specs(state, r, g)))
            if runs is not None:
                result.slots += HORIZON * len(runs)
                _check_counts(result, index, runs)
                short = _batch_specs(state, recharge, group, CHECK_HORIZON)[:1]
                if sim.simulate_batch(short) != sim.simulate_batch(
                        short, backend="reference"):
                    result.fail(index, "batch run differs from reference")
        fleets = op("network", lambda g=rnd["network"]: sim.simulate_network_runs(
            _fleet_specs(state, g)))
        if fleets is not None:
            result.slots += HORIZON * FLEET * len(fleets)
            _check_counts(result, index, fleets)
            short = _fleet_specs(state, rnd["network"], CHECK_HORIZON)[:2]
            if sim.simulate_network_runs(short) != sim.simulate_network_runs(
                    short, backend="reference"):
                result.fail(index, "network run differs from reference")
        singles = rnd["singles"]
        for k, (name, seed, horizon) in enumerate(zip(
                singles["policies"], singles["seeds"], singles["horizons"])):
            kwargs = _single_kwargs(state, name, seed, horizon)
            run = op("single", sim.simulate_single, **kwargs)
            if run is None:
                continue
            result.slots += horizon
            _check_counts(result, index, [run])
            if k == 0:
                kwargs["horizon"] = CHECK_HORIZON
                if sim.simulate_single(**kwargs) != sim.simulate_single(
                        **kwargs, backend="reference"):
                    result.fail(index, "single run differs from reference")
    return result


def teardown(state: Dict[str, Any]) -> None:
    return None
