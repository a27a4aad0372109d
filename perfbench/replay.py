"""Traced replay: a workload re-run layer by layer through public calls.

:func:`replay` repeats what ``repro.api.runner`` does for a maximize or
sweep spec -- the same calls, in the same order, with the same derived
seeds -- but times each call from here.  A :class:`~repro.obs.Telemetry`
is attached to the run context so the counters the program already emits
(RR-set sizes, pickled bytes, bit-parallel lanes, traversal costs) can be
read back.  Nothing in the program is changed to make this possible: the
estimator handed to ``greedy_maximize`` and the oracle handed to
``run_trials`` are wrapped in timing proxies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from repro.algorithms.framework import greedy_maximize
from repro.diffusion.models import resolve_model
from repro.estimation.oracle import RRPoolOracle
from repro.experiments.factories import estimator_factory
from repro.experiments.trials import check_model_consistency, run_trials
from repro.obs import Telemetry
from repro.runtime.engine import executor_scope
from repro.runtime.executor import ParallelExecutor

ROOT = "replay"


class Tracer:
    """In-memory span recorder: name, parent and duration of each span.

    Calls too frequent to record one by one (Estimate, oracle scoring) are
    accumulated into a single record carrying a call count instead.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._totals: dict[tuple[str, str | None], list[float]] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"name": name, "parent": parent, "count": 1,
                               "seconds": end - start})

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)`` and add its time to the aggregate span ``name``."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            total = self._totals.setdefault(
                (name, self._stack[-1] if self._stack else None), [0, 0.0]
            )
            total[0] += 1
            total[1] += time.perf_counter() - start

    def records(self) -> list[dict]:
        """Every span, the aggregated ones last."""
        return self.spans + [
            {"name": name, "parent": parent, "count": count, "seconds": seconds}
            for (name, parent), (count, seconds) in self._totals.items()
        ]

    def seconds(self, name: str) -> float:
        """Total seconds of every record called ``name``."""
        return sum(r["seconds"] for r in self.records() if r["name"] == name)

    def count(self, name: str) -> int:
        return sum(r["count"] for r in self.records() if r["name"] == name)


class TimedEstimator:
    """Estimator proxy timing ``build``/``estimate``/``update`` on a tracer."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def build(self, graph, rng):
        return self._tracer.timed("estimator.build", self._inner.build, graph, rng)

    def estimate(self, current_seeds, vertex):
        return self._tracer.timed("estimator.estimate", self._inner.estimate,
                                  current_seeds, vertex)

    def update(self, chosen_vertex):
        return self._tracer.timed("estimator.update", self._inner.update, chosen_vertex)


class TimedOracle:
    """Oracle proxy timing per-trial ``spread`` scoring on a tracer."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def spread(self, seed_set):
        return self._tracer.timed("oracle.score", self._inner.spread, seed_set)


def _resolve_instance(spec, context, tracer, tel):
    with tracer.span("graphs.resolve"):
        graph = spec.graph.resolve()
    with tracer.span("diffusion.validate"):
        diffusion = resolve_model(context.model)
        diffusion.validate(graph)
        tel.gauge("graph.vertices", graph.num_vertices)
        tel.gauge("graph.edges", graph.num_edges)
    return graph, diffusion


def _oracle(spec, graph, diffusion, context, tracer):
    with tracer.span("oracle.build"):
        return RRPoolOracle(
            graph,
            pool_size=spec.pool_size,
            seed=context.seed + 1,
            model=diffusion,
            jobs=context.jobs,
            executor=context.executor,
            context=context,
        )


def _replay_maximize(spec, context, tracer, tel):
    graph, diffusion = _resolve_instance(spec, context, tracer, tel)
    with tracer.span("estimator.factory"):
        estimator = estimator_factory(
            spec.estimator.approach,
            jobs=context.jobs,
            executor=context.executor,
            model=diffusion,
            batch_mode=spec.estimator.batch_mode or context.batch_mode,
        )(spec.estimator.num_samples)
    with tracer.span("greedy.maximize"):
        greedy = greedy_maximize(
            graph, spec.k, TimedEstimator(estimator, tracer), seed=context.seed,
            context=context,
        )
        tel.record_cost(greedy.cost)
    oracle = _oracle(spec, graph, diffusion, context, tracer)
    with tracer.span("oracle.score"):
        estimate = oracle.spread_with_confidence(greedy.seed_set)
    trials = [(spec.estimator.num_samples, list(greedy.seed_set), estimate.value)]
    return trials, estimator


def _replay_sweep(spec, context, tracer, tel):
    graph, diffusion = _resolve_instance(spec, context, tracer, tel)
    oracle = _oracle(spec, graph, diffusion, context, tracer)
    factory = estimator_factory(spec.approach, model=diffusion, batch_mode=context.batch_mode)
    grid = spec.grid()
    with tracer.span("trials.check"):
        check_model_consistency(graph, factory, grid[0], oracle, diffusion, "sweep")
        tel.incr("sweep.points", len(grid))
    timed_oracle = TimedOracle(oracle, tracer)
    trials = []
    if context.jobs is None and context.executor is None:
        scope = contextlib.nullcontext(None)
    else:
        scope = executor_scope(context.jobs, context.executor)
    with tracer.span("runtime.executor_scope"), scope as shared:
        for index, theta in enumerate(grid):
            with tracer.span(f"trials.point.{theta}"):
                trial_set = run_trials(
                    graph,
                    spec.k,
                    factory,
                    theta,
                    spec.num_trials,
                    oracle=timed_oracle,
                    experiment_seed=context.seed * 100_003 + index,
                    executor=shared,
                    telemetry=tel,
                )
            trials.extend(
                (theta, list(o.seed_set), o.influence) for o in trial_set.outcomes
            )
    return trials, None


def _pool_start_seconds(jobs: int) -> float:
    """Seconds to bring up a ``jobs``-worker pool and complete one round trip."""
    executor = ParallelExecutor(jobs)
    try:
        start = time.perf_counter()
        executor.map(abs, range(jobs))
        return time.perf_counter() - start
    finally:
        executor.close()


def _dispatch_seconds(tel: Telemetry) -> float:
    return sum(s for path, _, s in tel.span_table() if path[-1] == "runtime.dispatch")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def replay(spec) -> dict:
    """Replay ``spec`` under tracing; return its trials, metrics and spans."""
    tel = Telemetry()
    tracer = Tracer()
    context = dataclasses.replace(spec.context, telemetry=tel)
    with tracer.span(ROOT):
        tel.check_jobs(context.jobs)
        if spec.kind == "maximize":
            trials, estimator = _replay_maximize(spec, context, tracer, tel)
        elif spec.kind == "sweep":
            trials, estimator = _replay_sweep(spec, context, tracer, tel)
        else:
            raise ValueError(f"no replay for {spec.kind!r} specs")
    counters = tel.counters
    jobs = context.jobs or 1
    wall = tracer.seconds(ROOT)
    attributed = sum(r["seconds"] for r in tracer.records() if r["parent"] == ROOT)
    build_s = tracer.seconds("estimator.build")
    estimate_s = tracer.seconds("estimator.estimate")
    update_s = tracer.seconds("estimator.update")
    calls = tracer.count("estimator.estimate")
    oracle_build_s = tracer.seconds("oracle.build")
    words = counters.get("bitparallel.words", 0)
    kernel_s = float(counters.get("runtime.kernel_seconds", 0.0))
    metrics = {
        "graphs.resolve_s": tracer.seconds("graphs.resolve"),
        "oracle.build_s": oracle_build_s,
        "oracle.rr_vertices_per_s": _ratio(counters.get("oracle.rr_vertices", 0), oracle_build_s),
        "oracle.score_s": tracer.seconds("oracle.score"),
        "estimator.build_s": build_s,
        "estimator.estimate_s": estimate_s,
        "estimator.estimate_calls": calls,
        "estimator.estimate_us": _ratio(estimate_s * 1e6, calls),
        "estimator.update_s": update_s,
        "greedy.overhead_s": (
            tracer.seconds("greedy.maximize") - build_s - estimate_s - update_s
            if estimator is not None else 0.0
        ),
        "estimator.build_edges_per_s": (
            _ratio(estimator.build_cost.edges, build_s) if estimator is not None else 0.0
        ),
        "estimator.estimate_edges_per_s": (
            _ratio(estimator.estimate_cost.edges, estimate_s + update_s)
            if estimator is not None else 0.0
        ),
        "bitparallel.lane_fill": _ratio(counters.get("bitparallel.lanes_used", 0), 64 * words),
        "runtime.pickle_bytes": counters.get("runtime.pickle_bytes", 0),
        "runtime.chunks": counters.get("runtime.chunks", 0),
        "runtime.kernel_s": kernel_s,
        "runtime.parallel_efficiency": _ratio(kernel_s, jobs * _dispatch_seconds(tel)),
        "runtime.pool_start_s": _pool_start_seconds(jobs) if jobs > 1 else 0.0,
        "traversal.edges": counters.get("traversal.edges", 0),
        "traversal.vertices": counters.get("traversal.vertices", 0),
        "oracle.rr_vertices": counters.get("oracle.rr_vertices", 0),
        "trace.wall_s": wall,
        "trace.unattributed_share": _ratio(wall - attributed, wall),
    }
    points = {r["name"]: r["seconds"] for r in tracer.spans if r["name"].startswith("trials.point.")}
    for name, seconds in points.items():
        metrics["trials.point_s." + name.rsplit(".", 1)[1]] = seconds
    metrics["trials.per_trial_ms"] = _ratio(
        sum(points.values()) * 1e3, counters.get("trials.count", 0)
    )
    return {"trials": trials, "metrics": metrics, "spans": tracer.records()}
