"""IC-vs-LT estimator parity on graphs where the two models coincide.

On a graph where every vertex has in-degree at most one, the IC and LT
live-edge distributions are identical: the single in-edge ``(u, v)`` is kept
independently with probability ``p(u, v)`` under IC, and selected (as the
only candidate) with the same probability under LT.  Exact spreads are
therefore equal, and every unbiased estimator must agree across the two
models up to sampling noise.  These tests pin that equivalence down — they
are the cheapest end-to-end check that the LT primitives implement the same
live-edge semantics as the IC ones.
"""

from __future__ import annotations

import pytest

from repro.algorithms.framework import greedy_maximize
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.context import RunContext
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.graphs.builder import GraphBuilder

MODELS = (INDEPENDENT_CASCADE, LINEAR_THRESHOLD)


@pytest.fixture(scope="module")
def chain():
    """0 -> 1 -> 2 -> 3 with p = 0.6: every vertex has in-degree <= 1."""
    builder = GraphBuilder(4, default_probability=0.6)
    builder.add_edge(0, 1)
    builder.add_edge(1, 2)
    builder.add_edge(2, 3)
    return builder.build(name="parity_chain")


@pytest.fixture(scope="module")
def out_tree():
    """Rooted out-tree on 7 vertices with p = 0.7 (in-degree <= 1 everywhere)."""
    builder = GraphBuilder(7, default_probability=0.7)
    builder.add_edge(0, 1)
    builder.add_edge(0, 2)
    builder.add_edge(1, 3)
    builder.add_edge(1, 4)
    builder.add_edge(2, 5)
    builder.add_edge(2, 6)
    return builder.build(name="parity_tree")


class TestExactParity:
    @pytest.mark.parametrize("seeds", [(0,), (1,), (0, 2)])
    def test_chain_exact_spreads_coincide(self, chain, seeds):
        assert LINEAR_THRESHOLD.exact_spread(chain, seeds) == pytest.approx(
            INDEPENDENT_CASCADE.exact_spread(chain, seeds)
        )

    @pytest.mark.parametrize("seeds", [(0,), (1,), (2,)])
    def test_tree_exact_spreads_coincide(self, out_tree, seeds):
        assert LINEAR_THRESHOLD.exact_spread(out_tree, seeds) == pytest.approx(
            INDEPENDENT_CASCADE.exact_spread(out_tree, seeds)
        )


class TestEstimatorParity:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_monte_carlo_matches_exact(self, out_tree, model):
        exact = INDEPENDENT_CASCADE.exact_spread(out_tree, (0,))
        estimate = monte_carlo_spread(out_tree, (0,), 4000, seed=1, model=model)
        assert estimate.mean == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_oracle_matches_exact(self, out_tree, model):
        exact = INDEPENDENT_CASCADE.exact_spread(out_tree, (0,))
        oracle = RRPoolOracle(out_tree, pool_size=20_000, seed=2, model=model)
        assert oracle.spread((0,)) == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_ris_estimator_matches_exact(self, chain, model):
        exact = INDEPENDENT_CASCADE.exact_spread(chain, (0,))
        estimator = RISEstimator(20_000, context=RunContext(model=model))
        estimator.build(chain, RandomSource(3))
        assert estimator.spread((0,)) == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_snapshot_estimator_matches_exact(self, chain, model):
        exact = INDEPENDENT_CASCADE.exact_spread(chain, (0,))
        estimator = SnapshotEstimator(8000, context=RunContext(model=model))
        estimator.build(chain, RandomSource(4))
        assert estimator.spread((0,)) == pytest.approx(exact, rel=0.05)

    def test_monte_carlo_rejects_infeasible_lt_instance(self):
        from repro.exceptions import InvalidParameterError
        from repro.graphs.datasets import load_dataset
        from repro.graphs.probability import uniform_cascade

        infeasible = uniform_cascade(load_dataset("karate"), 0.1)
        with pytest.raises(InvalidParameterError, match="incoming weights"):
            monte_carlo_spread(infeasible, (0,), 10, model="lt")

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_greedy_finds_the_root(self, out_tree, model):
        # The root dominates every other vertex on an out-tree, so both
        # models must select it regardless of sampling noise.
        result = greedy_maximize(
            out_tree, 1, RISEstimator(2000, context=RunContext(model=model)), seed=5
        )
        assert result.seed_set == (0,)
