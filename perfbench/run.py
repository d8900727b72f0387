"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` there, and all working state (the native-scan build cache, the
server's cache directories) lives under ``.perfbench_work/`` there.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
lines before it are the run record (host, versions, settings, failures).

The work runs in child processes (``perfbench/worker.py``) so that
``setup_s`` includes interpreter start and imports.  Set-up is done
:data:`SETUP_REPEATS` times and ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Settings that change what the program computes or caches; a run with
#: any of them set would not measure the stated starting condition.
HYGIENE_VARS = (
    "REPRO_NATIVE_SCAN", "REPRO_ANALYSIS_MEMO", "REPRO_ANALYSIS_CACHE",
    "REPRO_BENCH_SLOTS",
)

#: Set-ups per run (the last one is the measuring process's own).
SETUP_REPEATS = 3

#: OpenMP threads for the native batch scan; 1 and 2 measured the same
#: on a 2-core host, and 1 leaves the second core to the serve client.
OMP_THREADS = "1"

#: Whole-run budget; the run is abandoned (non-zero exit) past it.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env(tmp: pathlib.Path) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env.update({
        "PYTHONPATH": os.pathsep.join(paths),
        "TMPDIR": str(tmp),  # the native scan is compiled under TMPDIR
        "OMP_NUM_THREADS": OMP_THREADS,
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
    })
    return env


def _spawn(argv: List[str], env: Dict[str, str], deadline: float
           ) -> Tuple[Dict[str, Any], float]:
    """Run one worker; returns its JSON line and its spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *argv],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # one group: a timeout also stops servers
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("run exceeded its time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), spawned


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metric_table(kind: str) -> List[Dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def run(args: argparse.Namespace) -> Dict[str, Any]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            "no program source at src/repro: run from a repository checkout"
        )
    set_vars = [v for v in HYGIENE_VARS if v in os.environ]
    if set_vars:
        raise BenchError(
            f"refusing to run with {', '.join(set_vars)} set: these change "
            "what the program computes or caches"
        )
    work = ROOT / ".perfbench_work"
    tmp = work / "tmp"
    run_dir = work / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = _child_env(tmp)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    setups: List[float] = []
    try:
        for i in range(SETUP_REPEATS - 1):
            out, spawned = _spawn(
                [*common, "--setup-only", "--workdir", str(run_dir / f"s{i}")],
                env, deadline,
            )
            setups.append(out["setup_end"] - spawned)
        out, spawned = _spawn(
            [*common, "--trace", str(args.trace),
             "--workdir", str(run_dir / "main")],
            env, deadline,
        )
        setups.append(out["setup_end"] - spawned)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not out.get("native_scan"):
        raise BenchError("native scan unavailable: the run would measure "
                         "the numpy fallback, not the shipped path")
    out["setup_s"] = statistics.median(setups)
    out["setup_runs_s"] = setups
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        out = run(args)
        table = _metric_table("per_layer" if args.trace else "end_to_end")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = out["untraced"]
    passes = [untraced] + ([out["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = out["layers"]
    else:
        values = {
            "setup_s": out["setup_s"],
            "wall_s": untraced["wall_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
    metrics = {}
    for m in table:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {m['name']} missing", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_digest": _src_digest(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": out.get("numpy"), "native_scan": out["native_scan"],
        "openmp": out["openmp"], "omp_num_threads": OMP_THREADS,
        "pinning": out.get("pinning"),
        "setup_runs_s": out["setup_runs_s"],
        "wall_s": untraced["wall_s"], "slots": untraced["slots"],
        "extra": untraced["extra"],
        "fail_rate": failed / attempted if attempted else 0.0,
        "failures": [f for p in passes for f in p["failures"]],
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
