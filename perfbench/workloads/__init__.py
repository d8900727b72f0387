"""The benchmark's workloads: ``solve``, ``simulate``, ``serve``, ``adaptive``.

Each module exposes the same four functions:

* ``make_inputs(seed, seconds)`` builds the workload's whole input from
  the seed as plain data (spec strings, numbers, integer seeds) — no
  program import, so the self-tests can check that a seed fixes it;
* ``setup(inputs, ctx)`` does everything ``setup_s`` covers and returns
  the workload state;
* ``measure(state, inputs, ctx)`` runs the fixed input once and returns
  a :class:`perfbench.worker.Pass`;
* ``teardown(state)`` releases what ``setup`` started.
"""

WORKLOADS = ("solve", "simulate", "serve", "adaptive")
