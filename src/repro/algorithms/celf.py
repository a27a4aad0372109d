"""CELF lazy-greedy driver (Leskovec et al. 2007), Section 3.3.3.

CELF exploits submodularity: a candidate's marginal gain can only shrink as
the seed set grows, so a stale (previously computed) gain is a valid upper
bound.  The driver keeps candidates in a max-heap keyed by their most recent
gain and only re-evaluates the top entry; when the freshly evaluated top entry
remains on top, it is selected without touching the rest.

For Snapshot and RIS (submodular estimators) CELF provably returns the same
solution as the full greedy loop while issuing far fewer Estimate calls.  For
Oneshot the estimator is not submodular, so CELF is only a heuristic; the
driver refuses to run on non-submodular estimators unless ``force=True``,
mirroring the caveat in Section 3.3.1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .._validation import require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.random_source import RandomSource
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from .framework import GreedyResult, InfluenceEstimator


@dataclass(frozen=True)
class CELFStatistics:
    """Diagnostics of one CELF run."""

    estimate_calls: int
    full_greedy_calls: int

    @property
    def savings_ratio(self) -> float:
        """Fraction of Estimate calls avoided relative to full greedy."""
        if self.full_greedy_calls == 0:
            return 0.0
        return 1.0 - self.estimate_calls / self.full_greedy_calls


def celf_maximize(
    graph: InfluenceGraph,
    k: int,
    estimator: InfluenceEstimator,
    *,
    seed: int | RandomSource | None = None,
    force: bool = False,
    context: RunContext | None = None,
) -> tuple[GreedyResult, CELFStatistics]:
    """Lazy-greedy seed selection equivalent to :func:`greedy_maximize`.

    ``seed`` of ``None`` falls back to ``context.seed`` (historical default
    ``0``); an explicit ``seed`` always wins over the context.

    Returns the greedy result plus :class:`CELFStatistics` reporting how many
    Estimate calls were issued versus what the plain framework would need.

    Raises
    ------
    InvalidParameterError
        If the estimator is not submodular and ``force`` is ``False``.
    """
    require_positive_int(k, "k")
    if not estimator.is_submodular and not force:
        raise InvalidParameterError(
            f"{type(estimator).__name__} is not submodular; lazy evaluation is unsound "
            "(pass force=True to run it as a heuristic anyway)"
        )
    if k > graph.num_vertices:
        raise InvalidParameterError(
            f"k ({k}) exceeds the number of vertices ({graph.num_vertices})"
        )
    context = resolve_context(context)
    if seed is None:
        seed = context.seed
    from ..obs import as_telemetry

    tel = as_telemetry(context.telemetry)
    source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
    estimator_rng, shuffle_rng = source.spawn(2)
    with tel.span("celf.build"):
        estimator.build(graph, estimator_rng)

    # Tie-breaking parity with Algorithm 3.1: perturb heap ordering by a
    # random per-vertex priority so equal gains are popped in shuffled order.
    priority = shuffle_rng.permutation(graph.num_vertices)

    estimate_calls = 0
    chosen: list[int] = []
    estimates: list[float] = []

    with tel.span("celf.select"):
        # Heap entries: (-gain, staleness marker, -priority, vertex).
        # The priorities are distinct, so the pop order does not depend on
        # how the heap was built.
        with tel.span("greedy.estimate"):
            gains = estimator.estimate_many((), np.arange(graph.num_vertices)).tolist()
        estimate_calls += len(gains)
        heap: list[tuple[float, int, int, int]] = [
            (-gain, 0, -int(priority[vertex]), vertex) for vertex, gain in enumerate(gains)
        ]
        heapq.heapify(heap)

        for iteration in range(k):
            while True:
                neg_gain, last_updated, neg_priority, vertex = heapq.heappop(heap)
                if last_updated == iteration:
                    chosen.append(vertex)
                    estimates.append(-neg_gain)
                    estimator.update(vertex)
                    break
                fresh_gain = estimator.estimate(tuple(chosen), vertex)
                estimate_calls += 1
                heapq.heappush(heap, (-fresh_gain, iteration, neg_priority, vertex))
            if not heap and iteration + 1 < k:
                raise InvalidParameterError(
                    "candidate pool exhausted before selecting k seeds"
                )
    tel.incr("celf.estimate_calls", estimate_calls)

    result = GreedyResult(
        seeds=tuple(chosen),
        estimates=tuple(estimates),
        approach=f"{estimator.approach}+celf",
        num_samples=estimator.num_samples,
        cost=estimator.cost_report(),
        graph_name=graph.name,
    )
    stats = CELFStatistics(
        estimate_calls=estimate_calls,
        full_greedy_calls=int(np.sum(graph.num_vertices - np.arange(k))),
    )
    return result, stats
