"""The simple greedy framework of Algorithm 3.1 and the estimator protocol.

Every algorithm studied by the paper is an instance of the same greedy loop
that differs only in three procedures:

* ``Build(G, sample_number)`` — construct the influence estimator.
* ``Estimate(S, v)`` — estimate the marginal influence of ``v`` w.r.t. ``S``
  (or the influence of ``S + v``; the greedy choice is the same either way).
* ``Update(v)`` — incorporate the newly chosen seed into the estimator.

Greedy asks for every remaining candidate's Estimate at once through
:meth:`InfluenceEstimator.estimate_many`, so an estimator can score a whole
iteration in one batched pass.

:class:`InfluenceEstimator` is the abstract base class expressing that
protocol, and :func:`greedy_maximize` is the framework itself, including the
paper's tie-breaking rule: the vertex order is shuffled once up front and the
*last* vertex attaining the maximum estimate is selected, so ties are broken
uniformly at random rather than by vertex id.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .._validation import require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.costs import CostReport, SampleSize, TraversalCost
from ..diffusion.random_source import RandomSource
from ..exceptions import EstimatorStateError, InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph


class InfluenceEstimator(abc.ABC):
    """Abstract influence estimator plugged into the greedy framework.

    Concrete subclasses (Oneshot, Snapshot, RIS, and the heuristics) are
    parameterised by a single *sample number* and keep their own traversal
    cost and sample size accounting.  An estimator instance is reusable:
    :meth:`build` resets all internal state, so the same object can drive many
    independent greedy runs with different random sources.
    """

    #: Short approach name used in reports ("oneshot", "snapshot", "ris", ...).
    approach: str = "abstract"

    #: Whether the estimator's value oracle is monotone and submodular, so
    #: that lazy (CELF-style) evaluation is sound.
    is_submodular: bool = False

    def __init__(self, num_samples: int) -> None:
        self._num_samples = require_positive_int(num_samples, "num_samples")
        self._graph: InfluenceGraph | None = None
        self._estimate_cost = TraversalCost()
        self._build_cost = TraversalCost()
        self._sample_size = SampleSize()

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        """Construct the estimator for ``graph`` (resets all state)."""

    @abc.abstractmethod
    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        """Estimate the marginal influence of ``vertex`` given ``current_seeds``."""

    def estimate_many(self, current_seeds: tuple[int, ...], vertices) -> np.ndarray:
        """Estimate every vertex of ``vertices`` given ``current_seeds``.

        Returns a ``float64`` array aligned with ``vertices``.  The default is
        one :meth:`estimate` call per vertex, in order, so estimators that
        draw randomness per call (Oneshot) consume it exactly as before;
        estimators with a batched kernel override it with bit-identical
        values and cost totals.
        """
        return np.array(
            [self.estimate(current_seeds, int(vertex)) for vertex in vertices],
            dtype=np.float64,
        )

    @abc.abstractmethod
    def update(self, chosen_vertex: int) -> None:
        """Incorporate the newly selected seed ``chosen_vertex``."""

    # ------------------------------------------------------------------ #
    # shared bookkeeping
    # ------------------------------------------------------------------ #
    def _reset_accounting(self, graph: InfluenceGraph) -> None:
        """Reset graph binding and all cost counters (call from ``build``)."""
        self._graph = graph
        self._estimate_cost = TraversalCost()
        self._build_cost = TraversalCost()
        self._sample_size = SampleSize()

    @property
    def num_samples(self) -> int:
        """The approach-specific sample number (beta, tau, or theta)."""
        return self._num_samples

    @property
    def graph(self) -> InfluenceGraph:
        """The graph bound by the last :meth:`build` call."""
        if self._graph is None:
            raise EstimatorStateError("estimator has not been built yet")
        return self._graph

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self._graph is not None

    @property
    def estimate_cost(self) -> TraversalCost:
        """Traversal cost incurred by Estimate/Update graph traversals."""
        return self._estimate_cost

    @property
    def build_cost(self) -> TraversalCost:
        """Traversal cost incurred by graph traversals inside Build."""
        return self._build_cost

    @property
    def total_cost(self) -> TraversalCost:
        """Build plus Estimate/Update traversal cost."""
        return self._build_cost + self._estimate_cost

    @property
    def sample_size(self) -> SampleSize:
        """Vertices/edges stored in memory as samples."""
        return self._sample_size

    def cost_report(self) -> CostReport:
        """Immutable snapshot of total traversal cost and sample size."""
        return CostReport(self.total_cost.snapshot(), SampleSize(
            self._sample_size.vertices, self._sample_size.edges
        ))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_samples={self._num_samples})"


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of one greedy run (one trial of one algorithm)."""

    seeds: tuple[int, ...]
    estimates: tuple[float, ...]
    approach: str
    num_samples: int
    cost: CostReport
    graph_name: str

    @property
    def seed_set(self) -> tuple[int, ...]:
        """The selected seeds as a canonical sorted tuple (distribution key)."""
        return tuple(sorted(self.seeds))

    @property
    def k(self) -> int:
        """The seed-set size."""
        return len(self.seeds)

    def as_dict(self) -> dict[str, object]:
        """Flatten to a dictionary for logging and reports."""
        result: dict[str, object] = {
            "approach": self.approach,
            "num_samples": self.num_samples,
            "graph": self.graph_name,
            "k": self.k,
            "seeds": list(self.seeds),
            "estimates": list(self.estimates),
        }
        result.update(self.cost.as_dict())
        return result


def _argmax_last(values: np.ndarray) -> int:
    """Index of the last occurrence of the maximum value."""
    reversed_index = int(np.argmax(values[::-1]))
    return values.shape[0] - 1 - reversed_index


def greedy_maximize(
    graph: InfluenceGraph,
    k: int,
    estimator: InfluenceEstimator,
    *,
    seed: int | RandomSource | None = None,
    candidate_vertices: tuple[int, ...] | None = None,
    context: RunContext | None = None,
) -> GreedyResult:
    """Run Algorithm 3.1: greedy seed selection over an influence estimator.

    Parameters
    ----------
    graph:
        The influence graph.
    k:
        Seed-set size; must not exceed the number of candidate vertices.
    estimator:
        An :class:`InfluenceEstimator`; its ``build`` is called here, so a
        fresh random state is used for every invocation.
    seed:
        Integer seed or a :class:`RandomSource`.  Two independent child
        streams are derived: one for the estimator's randomness and one for
        the tie-breaking shuffle, matching the paper's protocol of seeding
        each run differently.  ``None`` (the default) falls back to
        ``context.seed``, or to the historical default ``0``.
    candidate_vertices:
        Optional restriction of the candidate pool (defaults to all vertices).
    context:
        Optional :class:`~repro.context.RunContext`; supplies the seed when
        ``seed`` is omitted.  An explicit ``seed`` always wins.

    Returns
    -------
    GreedyResult
        Chosen seeds in selection order plus estimator cost accounting.
    """
    require_positive_int(k, "k")
    context = resolve_context(context)
    if seed is None:
        seed = context.seed
    from ..obs import as_telemetry

    tel = as_telemetry(context.telemetry)
    source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
    estimator_rng, shuffle_rng = source.spawn(2)

    if candidate_vertices is None:
        candidates = np.arange(graph.num_vertices)
    else:
        candidates = np.array(sorted(set(int(v) for v in candidate_vertices)), dtype=np.int64)
        if candidates.size and (candidates.min() < 0 or candidates.max() >= graph.num_vertices):
            raise InvalidParameterError("candidate_vertices contains out-of-range vertex ids")
    if k > candidates.size:
        raise InvalidParameterError(
            f"k ({k}) exceeds the number of candidate vertices ({candidates.size})"
        )

    with tel.span("greedy.build"):
        estimator.build(graph, estimator_rng)
    # Random tie-breaking: shuffle once, then always take the *last* argmax in
    # the shuffled order (Algorithm 3.1, lines 2 and 5).
    order = candidates[shuffle_rng.permutation(candidates.size)]

    chosen: list[int] = []
    estimates: list[float] = []
    selected_mask = np.zeros(graph.num_vertices, dtype=bool)
    estimate_calls = 0
    with tel.span("greedy.select"):
        for _ in range(k):
            remaining = np.flatnonzero(~selected_mask[order])
            values = np.full(order.shape[0], -np.inf, dtype=np.float64)
            with tel.span("greedy.estimate"):
                values[remaining] = estimator.estimate_many(tuple(chosen), order[remaining])
            estimate_calls += int(remaining.shape[0])
            best_index = _argmax_last(values)
            best_vertex = int(order[best_index])
            chosen.append(best_vertex)
            estimates.append(float(values[best_index]))
            selected_mask[best_vertex] = True
            estimator.update(best_vertex)
    tel.incr("greedy.estimate_calls", estimate_calls)

    return GreedyResult(
        seeds=tuple(chosen),
        estimates=tuple(estimates),
        approach=estimator.approach,
        num_samples=estimator.num_samples,
        cost=estimator.cost_report(),
        graph_name=graph.name,
    )
