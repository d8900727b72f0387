"""Repeat the benchmark over seeds and judge each metric's spread.

    python3 perfbench/steadiness.py --workloads solve simulate \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --output steady.json

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), then for
every end-to-end metric prints the median and the interquartile
distance as a share of the median (``statistics.quantiles(n=4)``) next
to the metric's bound from ``BENCHMARK.json``.  A spread below a third
of the bound is the target; ``setup_s`` is judged only on its median.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: List[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--output")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "correct": out["correct"],
                         "failed": out["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in out["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            spread = stats.quartile_spread(values)
            summary[m["name"]] = {
                "median": statistics.median(values), "spread": spread,
                "bound": m["bound"],
                "within_third": spread < m["bound"] / 3,
            }
            print(f"  {m['name']:12s} median {summary[m['name']]['median']:.4g}"
                  f"  spread {spread:.4f}  bound {m['bound']}"
                  f"  {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    print("\n| workload | metric | median | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|")
    for workload, body in report["workloads"].items():
        for name, row in body["summary"].items():
            print(f"| {workload} | {name} | {row['median']:.4g} | "
                  f"{row['spread']:.4f} | {row['bound']} | "
                  f"{row['spread'] / row['bound']:.2f} |")
    if args.output:
        pathlib.Path(args.output).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
