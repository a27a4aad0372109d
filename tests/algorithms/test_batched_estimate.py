"""Batched Estimate: ``estimate_many`` equals per-candidate ``estimate`` exactly.

The goldens below were captured from the per-candidate scalar BFS estimator
(one ``estimate`` call and one reachability BFS per candidate per snapshot)
that the candidate-parallel kernel replaced; seeds, the ``repr`` of every
estimate and the Table 8 traversal totals must not move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.diffusion.snapshots as snapshots_module
from repro.algorithms.celf import celf_maximize
from repro.algorithms.framework import greedy_maximize
from repro.algorithms.oneshot import OneshotEstimator
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.context import RunContext
from repro.diffusion.costs import TraversalCost
from repro.diffusion.random_source import RandomSource
from repro.diffusion.snapshots import reachable_count, reachable_mask
from repro.exceptions import EstimatorStateError, InvalidSeedSetError
from repro.graphs.influence_graph import InfluenceGraph
from repro.obs import Telemetry

# (driver, model, update strategy, jobs) -> (seeds, repr of estimates,
# traversal vertices, traversal edges); karate, k=3, tau=32, seed=3.  IC runs
# on uc0.1; LT on iwc (uc0.1 violates LT's incoming-weight bound on karate).
GOLDEN = {
    ("greedy", "ic", "naive", None): ((33, 0, 2), ("3.96875", "2.71875", "1.5625"), 16202, 11643),
    ("greedy", "ic", "reduce", None): ((33, 0, 2), ("3.96875", "2.71875", "1.5625"), 4822, 2262),
    ("greedy", "lt", "naive", None): ((0, 33, 1), ("13.125", "10.0625", "3.09375"), 47797, 45419),
    ("greedy", "lt", "reduce", None): ((0, 33, 1), ("13.125", "10.0625", "3.09375"), 9031, 7655),
    ("celf", "ic", "naive", None): ((33, 0, 2), ("3.96875", "2.71875", "1.5625"), 7773, 5458),
    ("celf", "ic", "reduce", None): ((33, 0, 2), ("3.96875", "2.71875", "1.5625"), 3112, 1674),
    ("celf", "lt", "naive", None): ((0, 33, 1), ("13.125", "10.0625", "3.09375"), 19917, 18696),
    ("celf", "lt", "reduce", None): ((0, 33, 1), ("13.125", "10.0625", "3.09375"), 6463, 5572),
    ("greedy", "ic", "naive", 2): ((32, 0, 33), ("3.375", "2.84375", "1.8125"), 15288, 10495),
    ("greedy", "ic", "reduce", 2): ((32, 0, 33), ("3.375", "2.84375", "1.8125"), 5049, 2525),
    ("greedy", "lt", "naive", 2): ((33, 0, 32), ("11.78125", "10.28125", "3.875"), 45334, 42781),
    ("greedy", "lt", "reduce", 2): ((33, 0, 32), ("11.78125", "10.28125", "3.875"), 9218, 7766),
}


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=repr)
def test_snapshot_greedy_goldens(case, karate_uc01, karate_iwc):
    driver, model, strategy, jobs = case
    graph = karate_uc01 if model == "ic" else karate_iwc
    estimator = SnapshotEstimator(
        32, update_strategy=strategy, context=RunContext(model=model, jobs=jobs)
    )
    if driver == "greedy":
        result = greedy_maximize(graph, 3, estimator, seed=3)
    else:
        result, _ = celf_maximize(graph, 3, estimator, seed=3)
    cost = result.cost.as_dict()
    assert (
        result.seeds,
        tuple(repr(value) for value in result.estimates),
        cost["traversal_vertices"],
        cost["traversal_edges"],
    ) == GOLDEN[case]


@st.composite
def graphs_and_picks(draw):
    """A random graph (up to 150 vertices, so batches exceed 64 lanes), a
    snapshot count, an update strategy and up to two seeds to fold in."""
    n = draw(st.integers(min_value=2, max_value=150))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    edges = sorted({(u, v) for u, v in pairs if u != v})
    probability = draw(st.sampled_from([0.2, 0.5, 0.9]))
    graph = InfluenceGraph(
        n, [u for u, _ in edges], [v for _, v in edges], [probability] * len(edges)
    )
    tau = draw(st.integers(min_value=1, max_value=4))
    strategy = draw(st.sampled_from(["naive", "reduce"]))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return graph, tau, strategy, picks, seed


def _built_pair(graph, tau, strategy, picks, seed):
    estimators = []
    for _ in range(2):
        estimator = SnapshotEstimator(tau, update_strategy=strategy)
        estimator.build(graph, RandomSource(seed))
        for pick in picks:
            estimator.update(pick)
        estimators.append(estimator)
    return estimators


def _bfs_estimate(estimator, current, vertex, cost):
    """The per-candidate BFS definition of a Snapshot estimate (the scalar
    path the kernel replaced), charging one BFS per snapshot to ``cost``."""
    total = 0
    for snapshot in estimator.snapshots:
        if estimator.update_strategy == "naive":
            total += reachable_count(snapshot, current + (vertex,), cost=cost)
            total -= reachable_count(snapshot, current)
        else:
            blocked = reachable_mask(snapshot, current)
            total += reachable_count(snapshot, (vertex,), cost=cost, blocked=blocked)
    return total / len(estimator.snapshots)


@settings(max_examples=40, deadline=None, suppress_health_check=(HealthCheck.too_slow,))
@given(graphs_and_picks())
def test_estimate_many_equals_per_candidate_estimates(case):
    graph, tau, strategy, picks, seed = case
    batched, scalar = _built_pair(graph, tau, strategy, picks, seed)
    current = tuple(picks)
    # Every non-seed vertex, in a shuffled order: the count is rarely a
    # multiple of 64, and vertices reachable from the picks sit in B_i.
    candidates = [v for v in range(graph.num_vertices) if v not in current]
    candidates = np.random.default_rng(seed).permutation(candidates).astype(np.int64)
    before = batched.estimate_cost.snapshot()
    values = batched.estimate_many(current, candidates)
    expected = [scalar.estimate(current, int(v)) for v in candidates]
    assert values.dtype == np.float64
    assert [value.hex() for value in values.tolist()] == [e.hex() for e in expected]
    assert batched.estimate_cost == scalar.estimate_cost
    bfs_cost = TraversalCost()
    reference = [_bfs_estimate(batched, current, int(v), bfs_cost) for v in candidates]
    assert [value.hex() for value in values.tolist()] == [r.hex() for r in reference]
    assert batched.estimate_cost.since(before) == bfs_cost


def test_estimate_many_across_candidate_blocks(karate_uc01, monkeypatch):
    # One word per block: the 34 karate candidates, repeated to 100 lanes,
    # span two blocks (64 + 36), including candidates blocked by seed 0.
    monkeypatch.setattr(snapshots_module, "CANDIDATE_BLOCK_WORDS", 1)
    for strategy in ("naive", "reduce"):
        batched, scalar = _built_pair(karate_uc01, 9, strategy, [0], 17)
        candidates = np.resize(np.arange(1, 34), 100)
        values = batched.estimate_many((0,), candidates)
        assert values.tolist() == [scalar.estimate((0,), int(v)) for v in candidates]
        assert batched.estimate_cost == scalar.estimate_cost


class TestSnapshotGuards:
    def test_naive_rejects_seeds_other_than_the_updated_ones(self, karate_uc01):
        estimator = SnapshotEstimator(4)
        estimator.build(karate_uc01, RandomSource(1))
        estimator.update(0)
        with pytest.raises(EstimatorStateError):
            estimator.estimate((), 5)

    def test_naive_rejects_a_seed_as_candidate(self, karate_uc01):
        estimator = SnapshotEstimator(4)
        estimator.build(karate_uc01, RandomSource(1))
        estimator.update(0)
        with pytest.raises(InvalidSeedSetError):
            estimator.estimate((0,), 0)

    def test_reduce_scores_a_seed_as_zero(self, karate_uc01):
        estimator = SnapshotEstimator(4, update_strategy="reduce")
        estimator.build(karate_uc01, RandomSource(1))
        estimator.update(0)
        assert estimator.estimate((0,), 0) == 0.0

    def test_out_of_range_candidate(self, karate_uc01):
        estimator = SnapshotEstimator(4)
        estimator.build(karate_uc01, RandomSource(1))
        with pytest.raises(InvalidSeedSetError):
            estimator.estimate_many((), [3, 34])

    def test_estimate_many_before_build(self):
        with pytest.raises(EstimatorStateError):
            SnapshotEstimator(2).estimate_many((), [0])


@pytest.mark.parametrize("batch_mode", ["scalar", "bitparallel"])
def test_ris_estimate_many_is_bitwise_per_vertex(karate_uc01, batch_mode):
    estimator = RISEstimator(777, context=RunContext(batch_mode=batch_mode))
    estimator.build(karate_uc01, RandomSource(4))
    estimator.update(0)
    vertices = np.arange(karate_uc01.num_vertices)
    values = estimator.estimate_many((0,), vertices)
    assert [v.hex() for v in values.tolist()] == [
        estimator.estimate((0,), int(v)).hex() for v in vertices
    ]


def test_default_estimate_many_keeps_oneshot_draw_order(karate_uc01):
    batched = OneshotEstimator(8)
    looped = OneshotEstimator(8)
    batched.build(karate_uc01, RandomSource(6))
    looped.build(karate_uc01, RandomSource(6))
    vertices = [5, 0, 33, 2]
    assert batched.estimate_many((), vertices).tolist() == [
        looped.estimate((), v) for v in vertices
    ]
    assert batched.estimate_cost == looped.estimate_cost


class TestEstimateTelemetry:
    def test_greedy_spans_one_estimate_per_iteration(self, karate_uc01):
        tel = Telemetry()
        greedy_maximize(
            karate_uc01, 3, SnapshotEstimator(8), seed=2, context=RunContext(telemetry=tel)
        )
        assert tel.span_count("greedy.select", "greedy.estimate") == 3
        assert tel.counters["greedy.estimate_calls"] == 34 + 33 + 32

    def test_celf_spans_its_initial_fill(self, karate_uc01):
        tel = Telemetry()
        celf_maximize(
            karate_uc01, 2, SnapshotEstimator(8), seed=2, context=RunContext(telemetry=tel)
        )
        assert tel.span_count("celf.select", "greedy.estimate") == 1
