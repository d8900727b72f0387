"""Start ``repro serve`` with the layer wrappers installed.

    python3 -m perfbench.serve_launcher --cache-dir DIR --summary OUT.json

The traced ``serve`` pass runs this instead of ``python -m repro serve``:
it builds the same :class:`~repro.serve.PolicyService` the CLI builds
(same defaults, port 0), installs :mod:`perfbench.tracing` and collects
the program's telemetry counters.  Each connection gets its own op id.
SIGUSR1 marks the start of the measured schedule: spans and counters
recorded before it (boot, the warm key set) are left out, and
``<summary>.start`` is touched to confirm.  On SIGINT the server stops
and the span summary is written to ``--summary``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import signal
from typing import Any, Dict, List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.serve_launcher")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args(argv)

    from repro.devtools import telemetry
    from repro.serve import PolicyService, serve_forever
    from repro.serve import server

    from perfbench import tracing
    from perfbench.worker import summarize

    tracer = tracing.Tracer()
    tracing.install(tracer)
    handle = server._handle_connection
    ids = itertools.count(1)

    async def traced_connection(*conn: Any) -> None:
        tracing.OP_ID.set(next(ids))  # each connection runs in its own task
        await handle(*conn)

    server._handle_connection = traced_connection
    service = PolicyService(cache_dir=args.cache_dir)
    start: Dict[str, Any] = {"spans": 0, "counters": {}}
    with telemetry.collect() as collection:

        def mark_start(signum: int, frame: Any) -> None:
            start["spans"] = len(tracer.spans)
            start["counters"] = dict(collection.counters)
            pathlib.Path(args.summary + ".start").touch()

        signal.signal(signal.SIGUSR1, mark_start)
        serve_forever(service, port=0)
    counters = {
        name: value - start["counters"].get(name, 0)
        for name, value in collection.counters.items()
    }
    pathlib.Path(args.summary).write_text(
        json.dumps(summarize(tracer.spans[start["spans"]:], counters))
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
