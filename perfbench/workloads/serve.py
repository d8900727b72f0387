"""``serve``: open-loop traffic against a real ``repro serve`` process.

Set-up starts ``python -m repro serve --port 0 --cache-dir <fresh dir>``
pinned to the last allowed CPU (the client runs on the first), waits until
``/healthz`` answers and solves the warm key set through ``/solve``.
The measured phase sends a seeded open-loop schedule: ``RATE_RPS``
requests per second for ``--seconds`` seconds, arrival times uniform
order statistics (a Poisson process conditioned on its count), with at
most ``CONCURRENCY`` connections in flight.  Latency is timed from each
request's due time, so a stall also delays the requests queued behind
it.  ``wall_s`` is the server's busy time over the schedule: its user +
system CPU seconds, all threads, read from ``/proc`` before the first
request and after the last response.  The time to the last response
would only measure the fixed schedule.  The mix has fixed counts per
class.  The shares are an assumption, not measured traffic (see
:data:`MIX`):

* warm ``/solve`` hits on the warm keys, Zipf popularity;
* cold ``/solve`` misses: cheap families with fresh rates, which drive
  store ``put`` and disk writes beside the reads;
* ``/simulate`` on warm keys, micro-batched by the server;
* a small share of ``/sweep`` on warm keys.

Clustering and EBCW solves stay out: ``solve`` owns them, and one cold
Pareto EBCW solve (3 s) would stall the loop.  The traced pass repeats
the schedule against a second server started through
``perfbench/serve_launcher.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import stats
from perfbench.worker import Context, Pass, pin_to

#: The program runs in a server process; the worker is only the client.
IN_PROCESS = False

#: Sized for the percentile rule, not taken from traffic: 20 s give 1600
#: requests (16 beyond the p99), at about 20 % of the server's core.
RATE_RPS = 80.0
CONCURRENCY = 2
#: Eight keys per cheap family keep set-up near one second.
WARM_KEYS = 24
CHEAP_FAMILIES = ("greedy", "periodic", "aggressive")
#: Assumed shares; no recorded ``repro serve`` traffic exists to fit.
#: Warm hits are the majority, as a cache-first server expects.  Cold
#: misses put ``put`` and disk writes in every run.  ``/simulate`` is
#: large enough for micro-batches to form.  ``/sweep`` is the small
#: share, still 80 requests, enough for its median.  The Zipf exponent
#: only makes popularity skewed; it is not fitted either.
MIX = (("warm_solve", 0.55), ("cold_solve", 0.15), ("simulate", 0.25),
       ("sweep", 0.05))
ZIPF_EXPONENT = 1.1
DELTA1, DELTA2 = 1.0, 6.0
CAPACITY = 200.0
SIM_HORIZON = 20_000
SWEEP_RUNS = 8
BOOT_TIMEOUT_S = 60.0

PINNING = ("client on the first allowed CPU, server on the last "
           "(when 2 or more are allowed)")


def _events(rng: np.random.Generator) -> str:
    if rng.random() < 0.5:
        return (f"weibull:{40 * rng.uniform(0.9, 1.1):.4f},"
                f"{3 * rng.uniform(0.9, 1.1):.4f}")
    return (f"gamma:{4 * rng.uniform(0.9, 1.1):.4f},"
            f"{9 * rng.uniform(0.9, 1.1):.4f}")


def _key(rng: np.random.Generator, family: str) -> Dict[str, Any]:
    return {"events": _events(rng), "family": family,
            "rate": round(0.5 * rng.uniform(0.6, 1.6), 6),
            "delta1": DELTA1, "delta2": DELTA2}


def make_inputs(seed: int, seconds: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 3])
    warm = [_key(rng, CHEAP_FAMILIES[i % 3]) for i in range(WARM_KEYS)]
    zipf = 1.0 / np.arange(1, WARM_KEYS + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()
    n = int(round(RATE_RPS * seconds))
    kinds = [k for k, share in MIX for _ in range(int(round(share * n)))]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    due = np.sort(rng.uniform(0.0, float(seconds), size=len(kinds)))
    schedule = []
    for t, kind in zip(due.tolist(), kinds):
        if kind == "cold_solve":
            path = "/solve"
            body = _key(rng, CHEAP_FAMILIES[int(rng.integers(0, 3))])
        else:
            body = dict(warm[int(rng.choice(WARM_KEYS, p=zipf))])
            path = "/solve"
            if kind in ("simulate", "sweep"):
                path = "/" + kind
                rate = body["rate"]
                body["capacity"] = CAPACITY
                body["horizon"] = SIM_HORIZON
                body["recharge"] = (
                    {"kind": "bernoulli", "q": 0.5, "c": 2 * rate}
                    if rng.random() < 0.5
                    else {"kind": "constant", "rate": rate}
                )
                seed_field = "seed" if kind == "simulate" else "base_seed"
                body[seed_field] = int(rng.integers(0, 2**31))
                if kind == "sweep":
                    body["n_runs"] = SWEEP_RUNS
        schedule.append({"t": t, "kind": kind, "path": path, "body": body})
    return {"warm": warm, "schedule": schedule}


# -- HTTP client --------------------------------------------------------
async def _http(port: int, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, Any]]:
    payload = b"" if body is None else json.dumps(body).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            .encode() + payload
        )
        await writer.drain()
        raw = await reader.read()  # the server closes after one response
    finally:
        writer.close()
    head, _, text = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(text)


def _get(port: int, path: str) -> Tuple[int, Dict[str, Any]]:
    return asyncio.run(_http(port, "GET", path))


# -- server lifecycle ---------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds process ``pid`` has used, all its
    threads included (ended ones too), from ``/proc/<pid>/stat``."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()  # fields[0] is field 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One server process; stopped with SIGINT, as Ctrl-C stops it."""

    def __init__(self, argv: List[str], cpus: List[int]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, text=True,
            # The client already holds cpus[0]; the server gets the last.
            preexec_fn=(lambda: pin_to(cpus[-1])) if len(cpus) >= 2 else None,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()  # first line names the port
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.port = int(match.group(1))
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not answer /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        text = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", text)
        return int(kib.group(1)) / 1024.0 if kib else 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _warm(server: Server, warm: List[Dict[str, Any]]) -> None:
    async def solve_all() -> None:
        for body in warm:
            status, reply = await _http(server.port, "POST", "/solve", body)
            if status != 200:
                raise RuntimeError(f"warm solve failed: {reply}")

    asyncio.run(solve_all())


def _start(ctx: Context, warm: List[Dict[str, Any]], traced: bool,
           name: str) -> Tuple[Server, pathlib.Path]:
    cache = ctx.workdir / f"{name}-cache"
    summary = ctx.workdir / f"{name}-summary.json"
    argv = (
        ["-m", "perfbench.serve_launcher", "--cache-dir", str(cache),
         "--summary", str(summary)]
        if traced
        else ["-m", "repro", "serve", "--port", "0", "--cache-dir", str(cache)]
    )
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    server = Server(argv, ctx.cpus)
    try:
        _warm(server, warm)
    except Exception:
        server.stop()
        raise
    return server, summary


def _mark_schedule_start(server: Server, summary: pathlib.Path) -> None:
    """Make the traced server count spans and counters from now on.

    The launcher answers SIGUSR1 by snapshotting what boot and the warm
    key set recorded and touching ``<summary>.start``.  Python runs the
    handler on the server's main thread, which a request wakes.
    """
    marker = summary.with_name(summary.name + ".start")
    server.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while not marker.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("traced server did not mark the start")
        _get(server.port, "/healthz")
        time.sleep(0.01)


def setup(inputs: Dict[str, Any], ctx: Context) -> Dict[str, Any]:
    from repro.serve import schema  # noqa: F401  (the client's checks)

    server, _ = _start(ctx, inputs["warm"], traced=False, name="untraced")
    return {"server": server}


# -- the open loop ------------------------------------------------------
async def _open_loop(port: int, schedule: List[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONCURRENCY)
    start = loop.time() + 0.1

    async def one(req: Dict[str, Any]) -> Dict[str, Any]:
        due = start + req["t"]
        await asyncio.sleep(max(0.0, due - loop.time()))
        late = loop.time() - due
        async with slots:
            acquired = loop.time()
            try:
                status, reply = await _http(port, "POST", req["path"],
                                            req["body"])
            except (OSError, ValueError, IndexError) as exc:
                status, reply = 0, {"error": repr(exc)}
            done = loop.time()
        return {"late": late, "queue": acquired - due, "latency": done - due,
                "status": status, "reply": reply}

    return list(await asyncio.gather(*(one(r) for r in schedule)))


def _stat_delta(before: Dict[str, Any], after: Dict[str, Any], name: str
                ) -> float:
    return float(after["stats"].get(name, 0)) - float(
        before["stats"].get(name, 0))


def measure(state: Dict[str, Any], inputs: Dict[str, Any],
            ctx: Context) -> Pass:
    from repro.serve import schema

    traced = ctx.tracer is not None
    if traced:
        server, summary = _start(ctx, inputs["warm"], traced=True,
                                 name="traced")
    else:
        server, summary = state["server"], None
    try:
        if summary is not None:
            _mark_schedule_start(server, summary)
        before = _get(server.port, "/healthz")[1]
        cpu_before = cpu_seconds(server.proc.pid)
        results = asyncio.run(
            _open_loop(server.port, inputs["schedule"]))
        cpu_after = cpu_seconds(server.proc.pid)
        after = _get(server.port, "/healthz")[1]
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()

    # At a fixed offered rate the schedule, not the server, sets the time
    # to the last response; the server's busy time is what it controls.
    result = Pass(wall_s=cpu_after - cpu_before)
    response_schema = {
        "/solve": schema.SOLVE_RESPONSE_SCHEMA,
        "/simulate": schema.SIMULATE_RESPONSE_SCHEMA,
        "/sweep": schema.SWEEP_RESPONSE_SCHEMA,
    }
    ms: Dict[str, List[float]] = {"/solve": [], "/simulate": [], "/sweep": []}
    handler: Dict[str, List[float]] = {k: [] for k in ms}
    transport: List[float] = []
    for index, (req, res) in enumerate(zip(inputs["schedule"], results)):
        result.attempted += 1
        path, reply = req["path"], res["reply"]
        if res["status"] != 200:
            result.fail(index, f"{path}: HTTP {res['status']} {reply}")
            continue
        try:
            schema.validate(reply, response_schema[path], path)
        except Exception as exc:  # any validation error fails the op
            result.fail(index, f"{path}: invalid response: {exc}")
            continue
        hit = reply["cache"]["hit"]
        if (req["kind"] == "cold_solve") == hit:
            result.fail(index, f"{req['kind']}: cache {reply['cache']}")
        latency_ms = res["latency"] * 1000.0
        ms[path].append(latency_ms)
        handler[path].append(reply["elapsed_ms"])
        if path == "/solve":
            transport.append(
                latency_ms - res["queue"] * 1000.0 - reply["elapsed_ms"])
        if path == "/simulate":
            result.slots += req["body"]["horizon"]
        elif path == "/sweep":
            result.slots += req["body"]["horizon"] * req["body"]["n_runs"]

    all_ms = [r["latency"] * 1000.0 for r in results]
    lookups = sum(
        _stat_delta(before, after, f"store.{tier}.hit")
        for tier in ("memory", "disk", "shared")
    ) + _stat_delta(before, after, "store.miss")
    result.extra.update({
        "solve_p50_ms": stats.percentile(ms["/solve"], 50),
        "simulate_p50_ms": stats.percentile(ms["/simulate"], 50),
        "p99_ms": stats.percentile(all_ms, 99),
        "store.memory_hit_ratio": (
            _stat_delta(before, after, "store.memory.hit") / lookups
            if lookups else 0.0),
        "serve.handler_ms.solve": stats.percentile(handler["/solve"], 50),
        "serve.handler_ms.simulate": stats.percentile(
            handler["/simulate"], 50),
        "serve.handler_ms.sweep": stats.percentile(handler["/sweep"], 50),
        "serve.queue_ms": stats.percentile(
            [r["queue"] * 1000.0 for r in results], 99),
        "serve.transport_ms": stats.percentile(transport, 50),
        "serve.batch_size": (
            _stat_delta(before, after, "simulate.runs")
            / max(_stat_delta(before, after, "simulate.batches"), 1.0)),
        "serve.late_ms": stats.percentile(
            [r["late"] * 1000.0 for r in results], 99),
        "requests": float(len(results)),
        "server_peak_rss_mb": server_rss,
    })
    if summary is not None:
        result.trace = json.loads(summary.read_text())
    return result


def teardown(state: Dict[str, Any]) -> None:
    state["server"].stop()
