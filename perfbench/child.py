"""One benchmark process: load a spec document, then run or replay it.

Usage: ``python3 child.py {setup|run|trace} SPEC.json OUT.json``

* ``setup`` imports ``repro`` and loads the spec, then stops;
* ``run`` times one untraced ``repro.run(spec)`` and records peak memory;
* ``trace`` replays the spec layer by layer (see :mod:`replay`).

Every mode writes ``loaded_at``, the ``time.monotonic()`` reading once the
spec is loaded, so the parent can time set-up from the moment it started
this process.  ``setup`` and ``run`` also write ``reference_s``, the times
of :func:`reference_seconds` right after set-up and, in ``run``, right after
the run; the parent rescales both times by them.  Outcomes are written as
``[sample_number, seed_set, influence]`` trials for the parent's
correctness check.
"""

import json
import sys
import time

#: Shape of the reference kernel's fixed work: an independent-cascade Monte
#: Carlo from ten seeds over a random graph of this many vertices and edges
#: with this edge probability, then this many interpreted dictionary updates.
REFERENCE_GRAPH = (5_000, 30_000, 0.16)
REFERENCE_LOOP = 150_000


def reference_seconds() -> float:
    """Wall time of a fixed kernel that shares no code with ``repro``.

    A shared host runs slower for seconds to minutes at a time.  Timed next
    to a run, in the same process, this kernel slows with it, so the parent
    can tell a slower host from a slower program.  Like the program, it
    mixes numpy array work with interpreted Python.
    """
    import numpy as np

    from checks import SpreadEvaluator

    n, m, p = REFERENCE_GRAPH
    rng = np.random.default_rng(0)
    evaluator = SpreadEvaluator(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                np.full(m, p))
    start = time.perf_counter()
    evaluator.spread(range(10))
    table: dict[int, int] = {}
    for i in range(REFERENCE_LOOP):
        table[i % 997] = table.get(i % 997, 0) + i
    return time.perf_counter() - start


def _trials(result):
    if result.kind == "maximize":
        return [[result.spec.estimator.num_samples, list(result.greedy.seed_set),
                 result.influence.value]]
    return [
        [theta, list(outcome.seed_set), outcome.influence]
        for theta, trial_set in sorted(result.sweep.trial_sets.items())
        for outcome in trial_set.outcomes
    ]


def main(mode: str, spec_path: str, out_path: str) -> None:
    import repro

    spec = repro.load_spec(spec_path)
    record = {"loaded_at": time.monotonic()}
    if mode in ("setup", "run"):
        record["reference_s"] = [reference_seconds()]
    if mode == "run":
        import resource

        start = time.perf_counter()
        result = repro.run(spec)
        record["run_s"] = time.perf_counter() - start
        record["reference_s"].append(reference_seconds())
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["peak_rss_mb"] = (own + workers) / 1024.0
        record["trials"] = _trials(result)
    elif mode == "trace":
        from replay import replay

        record.update(replay(spec))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main(*sys.argv[1:4])
