"""The chunked-dispatch engine tying seeding, chunking, and executors together.

:func:`run_tasks` is the one chunked map: every per-item workload hands it
a picklable module-level ``worker(payload, chunk)`` that runs once per
contiguous slice of the items and returns one result per chunk.

:func:`run_seeded_tasks` is the one place the two seeding contracts live.
Every plural sampler (cascades, snapshots, RR sets, Monte-Carlo spread)
hands it a *unit kernel* ``worker(payload, units)``, where ``units`` is a
list of ``(generator, n)`` pairs and the kernel draws ``n`` samples from
each generator in turn:

* with ``jobs=None`` and no executor (the legacy single-stream contract) the
  kernel runs once, in-process, on the single unit ``(rng, count)``;
* otherwise (the split-stream contract) unit ``i`` is
  ``(child_generator(root, i), min(lanes, count - i*lanes))``, and the unit
  indices are mapped through :func:`run_tasks`.

``lanes`` is the seeding unit: 1 for the scalar kernels, 64 for the
bit-parallel word (see :mod:`repro.diffusion.bitparallel`).  Because a unit's
stream depends only on ``(root, i)``, the split-stream outcome is
independent of ``jobs`` and of the chunk layout.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .._validation import require_positive_int
from ..diffusion.random_source import RandomSource
from .chunking import chunk_spans, default_num_chunks
from .executor import Executor, ParallelExecutor, SerialExecutor
from .seeding import child_generator, seed_key

#: Signature of a unit kernel: ``(payload, [(generator, n), ...])``.
SeededWorker = Callable[[Any, list[tuple[np.random.Generator, int]]], Any]


@contextlib.contextmanager
def executor_scope(
    jobs: int | None = None, executor: Executor | None = None
) -> Iterator[Executor]:
    """Yield an executor for ``jobs``/``executor``, owning it when created here.

    * an explicit ``executor`` is yielded as-is and left open (caller-owned);
    * ``jobs`` of ``None`` or ``1`` yields a :class:`SerialExecutor`;
    * ``jobs > 1`` yields a :class:`ParallelExecutor` that is closed when the
      scope exits, so no worker processes outlive the call.
    """
    if executor is not None:
        yield executor
        return
    if jobs is None or require_positive_int(jobs, "jobs") == 1:
        yield SerialExecutor()
        return
    pool = ParallelExecutor(jobs)
    try:
        yield pool
    finally:
        pool.close()


def _invoke_chunk(task: tuple) -> Any:
    """Run ``worker(payload, chunk)`` on one chunk task (module-level: pickles)."""
    worker, payload, chunk = task
    return worker(payload, chunk)


def _seeded_chunk(payload: tuple, unit_indices: Sequence[int]) -> Any:
    """Rebuild one chunk's split-stream units and run the unit kernel on them.

    Unit ``i`` draws ``min(lanes, count - i*lanes)`` samples from its child
    stream ``child_generator(key, i)``, so its draws depend only on
    ``(key, i)`` — never on the chunk it landed in.
    """
    worker, inner, key, lanes, count = payload
    units = [
        (child_generator(key, index), min(lanes, count - index * lanes))
        for index in unit_indices
    ]
    return worker(inner, units)


def _timed_invoke(task: tuple) -> tuple[Any, float]:
    """Apply ``fn`` to its task and measure the worker-side kernel seconds.

    Module-level so it pickles; the measured time excludes pickling and
    dispatch, which the parent accounts separately.  Returning the elapsed
    time alongside the result is the worker-side half of the deterministic
    metric merge: the parent sums the times in task order.
    """
    fn, inner = task
    start = time.perf_counter()  # repro-lint: allow[TME001] worker-side kernel timing feeds runtime.* metrics only, never results
    result = fn(inner)
    return result, time.perf_counter() - start  # repro-lint: allow[TME001] see above; parent merges in task order


def instrumented_map(
    executor: Executor,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    telemetry: Any = None,
    phase: str = "runtime",
) -> list[Any]:
    """An ordered ``executor.map`` that records where the wall-time goes.

    With no (or disabled) telemetry this is exactly ``executor.map(fn,
    tasks)`` — the byte-identical fast path.  With telemetry enabled, each
    chunk is wrapped in :func:`_timed_invoke` and the call records, under
    the environmental ``runtime.*``-style namespace ``{phase}.*``:

    * ``{phase}.chunks`` — number of chunk tasks dispatched;
    * ``{phase}.pickle_bytes`` — total serialized size of the (fn, task)
      pairs crossing the process boundary, measured inside the
      ``{phase}.serialize`` span (only when ``executor.jobs > 1``; the
      serial executor never pickles);
    * ``{phase}.dispatch`` span — the blocking map over the executor;
    * ``{phase}.kernel_seconds`` — worker-side per-chunk execution time,
      summed in chunk order inside the ``{phase}.merge`` span.

    Dispatch seconds minus kernel seconds is the scheduling + IPC overhead —
    the number that decides the ROADMAP's pickling-dominates hypothesis.
    """
    tasks = list(tasks)
    if telemetry is None or not telemetry.enabled:
        return executor.map(fn, tasks)
    telemetry.check_jobs(executor.jobs)
    telemetry.incr(f"{phase}.chunks", len(tasks))
    wrapped = [(fn, task) for task in tasks]
    if executor.jobs > 1:
        with telemetry.span(f"{phase}.serialize"):
            telemetry.incr(
                f"{phase}.pickle_bytes",
                sum(len(pickle.dumps(pair)) for pair in wrapped),
            )
    with telemetry.span(f"{phase}.dispatch"):
        timed = executor.map(_timed_invoke, wrapped)
    with telemetry.span(f"{phase}.merge"):
        results = []
        for result, seconds in timed:
            telemetry.incr(f"{phase}.kernel_seconds", seconds)
            results.append(result)
    return results


def run_seeded_tasks(
    worker: SeededWorker,
    count: int,
    rng: Any,
    *,
    lanes: int = 1,
    jobs: int | None = None,
    executor: Executor | None = None,
    payload: Any = None,
    num_chunks: int | None = None,
    telemetry: Any = None,
) -> list[Any]:
    """Draw ``count`` samples through the unit kernel ``worker``.

    Parameters
    ----------
    worker:
        A picklable module-level kernel ``worker(payload, units)`` drawing
        ``n`` samples from each ``(generator, n)`` unit, in order, and
        returning one chunk result.
    count:
        Total number of samples.
    rng:
        With ``jobs=None`` and no executor, the caller's stream (a
        ``RandomSource`` or numpy ``Generator``), consumed in place.
        Otherwise the split-stream root (int, ``SeedSequence``, or
        ``RandomSource``), normalised with
        :func:`repro.runtime.seeding.seed_key`.
    lanes:
        Samples per split-stream unit: 1 for scalar kernels, 64 for the
        bit-parallel word.  A word unit (``lanes > 1``) also records the
        deterministic ``bitparallel.words``/``bitparallel.lanes_used``
        counters here, before the serial/parallel split, and times an
        in-process run under a ``bitparallel.kernel`` span.
    jobs, executor:
        Worker-count shorthand or an explicit (caller-owned) executor;
        either one opts into the split-stream contract.
    payload:
        Picklable shared context (typically model and graph) handed to every
        chunk.
    num_chunks:
        Override the chunk count; results are identical for any value.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; on the split-stream
        path :func:`run_tasks` records the ``runtime.*`` dispatch metrics,
        with ``runtime.tasks`` counting units.

    Returns
    -------
    list
        Per-chunk results in chunk order (one result for a single-stream
        run).
    """
    units = -(-count // lanes)
    enabled = telemetry is not None and telemetry.enabled
    if enabled and lanes > 1:
        telemetry.incr("bitparallel.words", units)
        telemetry.incr("bitparallel.lanes_used", count)
    if jobs is None and executor is None:
        generator = rng.generator if isinstance(rng, RandomSource) else rng
        timer = (
            telemetry.span("bitparallel.kernel")
            if enabled and lanes > 1
            else contextlib.nullcontext()
        )
        with timer:
            return [worker(payload, [(generator, count)])]
    return run_tasks(
        _seeded_chunk,
        range(units),
        payload=(worker, payload, seed_key(rng), lanes, count),
        jobs=jobs,
        executor=executor,
        num_chunks=num_chunks,
        telemetry=telemetry,
    )


def run_tasks(
    worker: Callable[[Any, Sequence[Any]], Any],
    items: Sequence[Any],
    *,
    payload: Any = None,
    jobs: int | None = None,
    executor: Executor | None = None,
    num_chunks: int | None = None,
    telemetry: Any = None,
) -> list[Any]:
    """Map ``worker(payload, chunk)`` over contiguous chunks of ``items``.

    ``items`` is cut into ``num_chunks`` contiguous slices (default: one
    serial chunk, or :func:`~repro.runtime.chunking.default_num_chunks` on a
    pool) and the picklable ``worker`` runs once per slice, with ``payload``,
    through :func:`instrumented_map`; enabled ``telemetry`` also counts
    ``runtime.tasks = len(items)``.  Per-chunk results come back in chunk
    order, so a worker that is a pure function of ``(payload, item)`` gives
    the same flattened results for any ``jobs`` and chunk count.
    """
    if telemetry is not None and telemetry.enabled:
        telemetry.incr("runtime.tasks", len(items))  # repro-lint: allow[TEL001] logical task count; lives with the other runtime.* dispatch metrics (trace-format compat)
    with executor_scope(jobs, executor) as resolved:
        chunks = (
            default_num_chunks(len(items), resolved.jobs)
            if num_chunks is None
            else require_positive_int(num_chunks, "num_chunks")
        )
        spans = chunk_spans(len(items), chunks) if items else []
        tasks = [(worker, payload, items[start:stop]) for start, stop in spans]
        return instrumented_map(resolved, _invoke_chunk, tasks, telemetry=telemetry)
