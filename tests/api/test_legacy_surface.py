"""Legacy-surface guard: the pre-redesign API keeps working, with equal outputs.

Two halves:

* every name exported from ``repro.__init__`` before the declarative-API
  redesign (pinned below) must remain importable, and
* the old keyword forms (``seed=``, ``jobs=``, ``model=``,
  ``experiment_seed=``) must produce results equal to passing the same
  values through a single :class:`repro.RunContext`.
"""

from __future__ import annotations

import pytest

import repro
from repro import RunContext
from repro.algorithms.framework import greedy_maximize
from repro.algorithms.ris import RISEstimator
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.experiments.factories import estimator_factory
from repro.experiments.traversal import traversal_cost_table
from repro.experiments.trials import run_trials

#: ``repro.__all__`` as of PR 4, i.e. before the declarative-API redesign.
PRE_REDESIGN_EXPORTS = (
    "__version__", "ReproError",
    # graphs
    "InfluenceGraph", "GraphBuilder", "graph_from_edge_list", "read_edge_list",
    "write_edge_list", "load_dataset", "list_datasets", "assign_probabilities",
    "network_statistics",
    # diffusion
    "DiffusionModel", "IndependentCascade", "LinearThreshold",
    "INDEPENDENT_CASCADE", "LINEAR_THRESHOLD", "available_models", "get_model",
    "register_model", "resolve_model", "RandomSource", "TraversalCost",
    "SampleSize", "simulate_cascade", "simulate_cascades", "simulate_spread",
    "sample_snapshot", "sample_snapshots", "RRSet", "RRSetCollection",
    "sample_rr_set", "sample_rr_sets", "exact_spread",
    # algorithms
    "InfluenceEstimator", "GreedyResult", "greedy_maximize", "celf_maximize",
    "CELFStatistics", "OneshotEstimator", "SnapshotEstimator", "RISEstimator",
    "ExactEstimator", "DegreeEstimator", "WeightedDegreeEstimator",
    "SingleDiscountEstimator", "RandomEstimator", "exhaustive_optimum",
    # estimation
    "RRPoolOracle", "MonteCarloEstimate", "monte_carlo_spread",
    # experiments
    "run_trials", "TrialSet", "SeedSetDistribution", "shannon_entropy",
    "InfluenceDistribution", "SweepResult", "sweep_sample_numbers",
    "powers_of_two", "least_sample_number", "comparable_ratio_curve",
    # runtime
    "Executor", "SerialExecutor", "ParallelExecutor", "executor_scope",
)


class TestExportsSurvive:
    @pytest.mark.parametrize("name", PRE_REDESIGN_EXPORTS)
    def test_pre_redesign_name_still_exported(self, name):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name


@pytest.fixture(scope="module")
def graph():
    return repro.assign_probabilities(repro.load_dataset("karate"), "uc0.1")


class TestKwargContextEquivalence:
    def test_greedy_maximize(self, graph):
        legacy = greedy_maximize(graph, 2, RISEstimator(128), seed=7)
        via_context = greedy_maximize(
            graph, 2, RISEstimator(128), context=RunContext(seed=7)
        )
        assert legacy == via_context
        # Historical default: omitting both is seed=0.
        assert greedy_maximize(graph, 2, RISEstimator(128)) == greedy_maximize(
            graph, 2, RISEstimator(128), seed=0
        )

    def test_explicit_seed_wins_over_context(self, graph):
        explicit = greedy_maximize(
            graph, 2, RISEstimator(128), seed=3, context=RunContext(seed=9)
        )
        assert explicit == greedy_maximize(graph, 2, RISEstimator(128), seed=3)

    def test_oracle(self, graph):
        legacy = RRPoolOracle(graph, pool_size=500, seed=3, model="ic", jobs=1)
        via_context = RRPoolOracle(
            graph, pool_size=500, context=RunContext(seed=3, model="ic", jobs=1)
        )
        seed_set = (0, 33)
        assert legacy.spread(seed_set) == via_context.spread(seed_set)
        assert legacy.average_rr_size == via_context.average_rr_size

    def test_monte_carlo_spread(self, graph):
        legacy = monte_carlo_spread(graph, (0,), 200, seed=5, model="ic")
        via_context = monte_carlo_spread(
            graph, (0,), 200, context=RunContext(seed=5, model="ic")
        )
        assert legacy == via_context

    def test_estimator_factory_binding(self, graph):
        legacy = estimator_factory("ris", jobs=1, model="ic")(64)
        via_context = estimator_factory("ris", context=RunContext(jobs=1, model="ic"))(64)
        result_legacy = greedy_maximize(graph, 1, legacy, seed=2)
        result_context = greedy_maximize(graph, 1, via_context, seed=2)
        assert result_legacy == result_context

    def test_run_trials(self, graph):
        oracle = RRPoolOracle(graph, pool_size=500, seed=11)
        legacy = run_trials(
            graph, 1, estimator_factory("ris"), 32, 4,
            oracle=oracle, experiment_seed=6,
        )
        via_context = run_trials(
            graph, 1, estimator_factory("ris"), 32, 4,
            oracle=oracle, context=RunContext(seed=6),
        )
        assert legacy == via_context

    def test_traversal_cost_table(self, graph):
        factories = {"ris": estimator_factory("ris")}
        legacy = traversal_cost_table(
            graph, factories, num_repetitions=2, experiment_seed=4, model="ic"
        )
        via_context = traversal_cost_table(
            graph, factories, num_repetitions=2,
            context=RunContext(seed=4, model="ic"),
        )
        assert legacy == via_context
