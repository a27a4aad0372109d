"""Snapshot estimator — Algorithm 3.3, with the graph-reduction Update.

Snapshot-type algorithms (NewGreedy, MixedGreedy, StaticGreedy, PMC, SKIM)
draw ``tau`` live-edge random graphs up front and share them across all
greedy iterations.  The estimate of ``Inf(S)`` is the average over snapshots
of the number of vertices reachable from ``S``.  Because the snapshots are
fixed, the estimator is monotone and submodular, which the paper identifies
as one reason Snapshot needs far fewer samples than Oneshot in practice.

Two Update strategies are provided:

``"naive"``
    Update re-runs reachability from the whole seed set ``S``; every Estimate
    of ``v`` is charged a reachability run from ``S + v``.  This matches
    Algorithm 3.3 verbatim and the traversal-cost accounting of Table 8.
``"reduce"``
    The graph-reduction technique of Section 3.4.3: after choosing seed
    ``v_l``, vertices already reachable from the chosen seeds are marked as
    removed in each snapshot, so later Estimate calls traverse the smaller
    residual graph.  Estimates are unchanged; traversal cost drops.

Estimate is batched: :meth:`SnapshotEstimator.estimate_many` sweeps each
stored snapshot once with :func:`~repro.diffusion.snapshots.candidate_reach`,
every candidate in its own bit lane, starting from the blocked set
``B_i = reach_i(S)`` that both strategies keep.  The marginal gain of ``v``
is the mean of ``|reach_i(v) \\ B_i|`` — the same integers the per-candidate
BFS produced — and naive mode adds ``|B_i|`` vertices and the live out-degrees
of ``B_i`` per candidate, so the Table 8 totals equal those of a BFS from
``S + v``.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_choice, require_vertex
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..diffusion.snapshots import (
    Snapshot,
    candidate_reach,
    reachability_scratch,
    reachable_count,
    reachable_mask,
    reachable_vertices,
)
from ..exceptions import EstimatorStateError, InvalidSeedSetError
from ..graphs.influence_graph import InfluenceGraph
from .framework import InfluenceEstimator

#: Valid Update strategies.
UPDATE_STRATEGIES: tuple[str, ...] = ("naive", "reduce")


class SnapshotEstimator(InfluenceEstimator):
    """Pre-sampled live-edge graph estimator (sample number ``tau``).

    Parameters
    ----------
    num_samples:
        ``tau``: the number of random graphs sampled in Build.
    update_strategy:
        ``"naive"`` (Algorithm 3.3) or ``"reduce"`` (Section 3.4.3).
    context:
        Optional :class:`~repro.context.RunContext`.  Snapshot reads three of
        its fields: ``model``, the diffusion model whose live-edge snapshots
        are sampled (``None`` for the paper's independent cascade; every
        model yields snapshots in the shared CSR representation, so the
        reachability estimates and both Update strategies are
        model-agnostic), and ``jobs``/``executor``, which parallelise Build
        under the runtime's split-stream contract (bit-identical for any
        worker count).  ``batch_mode`` is not read: the bit-parallel kernels
        produce no live-edge graphs, so snapshots are always sampled scalar.
    """

    approach = "snapshot"
    is_submodular = True

    def __init__(
        self,
        num_samples: int,
        *,
        update_strategy: str = "naive",
        context: RunContext | None = None,
    ) -> None:
        super().__init__(num_samples)
        self._update_strategy = require_choice(
            update_strategy, UPDATE_STRATEGIES, "update_strategy"
        )
        context = resolve_context(context)
        self._model = resolve_model(context.model)
        self._jobs = context.jobs
        self._executor = context.executor
        self._snapshots: list[Snapshot] = []
        self._current_seeds: tuple[int, ...] = ()
        # Per-snapshot blocked set B_i = reach_i(S) of the current seed set,
        # and (naive only) the per-candidate charge for re-walking it:
        # sum_i |B_i| vertices and sum_i of their live out-degrees in edges.
        self._blocked: list[np.ndarray] = []
        self._rewalk_charge = (0, 0)

    @property
    def update_strategy(self) -> str:
        """The configured Update strategy ("naive" or "reduce")."""
        return self._update_strategy

    @property
    def model(self) -> DiffusionModel:
        """The diffusion model whose snapshots this estimator samples."""
        return self._model

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """The sampled snapshots (read-only view)."""
        return tuple(self._snapshots)

    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        """Sample ``tau`` snapshots and reset per-run caches.

        Sampling streams the edge list (one coin flip per edge per snapshot)
        without traversing the graph, so it adds to sample size but not to
        traversal cost, matching the paper's accounting.
        """
        self._model.validate(graph)
        self._reset_accounting(graph)
        self._snapshots = self._model.sample_snapshots(
            graph,
            self.num_samples,
            rng,
            sample_size=self._sample_size,
            jobs=self._jobs,
            executor=self._executor,
        )
        self._current_seeds = ()
        self._rewalk_charge = (0, 0)
        self._blocked = [
            np.zeros(graph.num_vertices, dtype=bool) for _ in self._snapshots
        ]
        # One reusable (visited, slot) pair for every reachability query this
        # estimator issues, so per-candidate estimates cost time proportional
        # to the reached set rather than O(num_vertices) per call.
        self._reach_scratch = reachability_scratch(graph.num_vertices)

    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        """Average marginal reachability of ``vertex`` w.r.t. ``current_seeds``."""
        return float(self.estimate_many(current_seeds, (int(vertex),))[0])

    def estimate_many(self, current_seeds: tuple[int, ...], vertices) -> np.ndarray:
        """Average marginal reachability of every vertex in ``vertices``.

        One :func:`~repro.diffusion.snapshots.candidate_reach` pass per stored
        snapshot scores all candidates; each value equals :meth:`estimate`
        bit for bit, and the estimate cost grows by the same totals.
        ``current_seeds`` must be the seeds folded in by :meth:`update` (the
        naive strategy scores against them; "reduce" ignores the argument).
        """
        if not self.is_built:
            raise EstimatorStateError(
                "estimator.build(graph, rng) must be called before estimate()"
            )
        vertices = self._check_candidates(current_seeds, vertices)
        total = np.zeros(vertices.shape[0], dtype=np.int64)
        charge_vertices, charge_edges = self._rewalk_charge
        examined_vertices = charge_vertices * vertices.shape[0]
        examined_edges = charge_edges * vertices.shape[0]
        for snapshot, blocked in zip(self._snapshots, self._blocked):
            counts, edges = candidate_reach(snapshot, vertices, blocked=blocked)
            total += counts
            examined_vertices += int(counts.sum())
            examined_edges += int(edges.sum())
        self._estimate_cost.add_vertices(examined_vertices)
        self._estimate_cost.add_edges(examined_edges)
        return total / len(self._snapshots)

    def _check_candidates(self, current_seeds, vertices) -> np.ndarray:
        """Validate a candidate batch against the graph and the folded seeds."""
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        num_vertices = self.graph.num_vertices
        outside = (vertices < 0) | (vertices >= num_vertices)
        if outside.any():
            require_vertex(int(vertices[outside][0]), num_vertices, name="seed vertex")
        if self._update_strategy == "naive":
            seeds = tuple(int(v) for v in current_seeds)
            if sorted(seeds) != sorted(self._current_seeds):
                raise EstimatorStateError(
                    f"naive Snapshot estimates are marginal to the updated seeds "
                    f"{self._current_seeds}, got current_seeds={seeds}"
                )
            repeated = vertices[np.isin(vertices, seeds)] if seeds else vertices[:0]
            if repeated.size:
                raise InvalidSeedSetError(
                    f"seed set contains duplicate vertices: {sorted(seeds + (int(repeated[0]),))}"
                )
        return vertices

    def update(self, chosen_vertex: int) -> None:
        """Fold the chosen seed into the per-snapshot blocked sets."""
        chosen_vertex = int(chosen_vertex)
        self._current_seeds = tuple(self._current_seeds) + (chosen_vertex,)
        if self._update_strategy == "reduce":
            for index, snapshot in enumerate(self._snapshots):
                # The discovery-order list feeds the blocked update with one
                # fancy-index store instead of a per-vertex Python loop.
                newly_reachable = reachable_vertices(
                    snapshot,
                    (chosen_vertex,),
                    cost=self._estimate_cost,
                    blocked=self._blocked[index],
                    scratch=self._reach_scratch,
                )
                self._blocked[index][newly_reachable] = True
            return
        charge_vertices = charge_edges = 0
        for index, snapshot in enumerate(self._snapshots):
            blocked = reachable_mask(snapshot, self._current_seeds, cost=self._estimate_cost)
            self._blocked[index] = blocked
            charge_vertices += int(blocked.sum())
            charge_edges += int(np.diff(snapshot.indptr)[blocked].sum())
        self._rewalk_charge = (charge_vertices, charge_edges)

    # ------------------------------------------------------------------ #
    # direct spread queries (outside the greedy protocol)
    # ------------------------------------------------------------------ #
    def spread(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """Estimate ``Inf(seed_set)`` directly from the stored snapshots."""
        if not self.is_built:
            raise EstimatorStateError(
                "estimator.build(graph, rng) must be called before spread()"
            )
        total = 0
        for snapshot in self._snapshots:
            total += reachable_count(
                snapshot, seed_set, cost=self._estimate_cost, scratch=self._reach_scratch
            )
        return total / len(self._snapshots)
