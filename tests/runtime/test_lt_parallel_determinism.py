"""LT determinism regression: ``jobs=1`` and ``jobs=4`` are bit-identical.

Mirrors ``tests/runtime/test_parallel_determinism.py`` for the linear
threshold model: the runtime's split-stream contract is model-agnostic, so
every LT sampling path fanned out through the executor must be a pure
function of the root seed and the task count.  Karate under ``iwc`` is the
instance (incoming weights sum to exactly one, a feasible LT input).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.framework import greedy_maximize
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.context import RunContext
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.models import LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.experiments.factories import estimator_factory
from repro.experiments.trials import run_trials

JOBS = 4


@pytest.fixture(scope="module")
def lt_oracle(karate_iwc):
    """A shared LT scoring oracle on karate (iwc)."""
    return RRPoolOracle(karate_iwc, pool_size=4000, seed=77, model="lt")


class TestLTSamplingDeterminism:
    def test_rr_sets_bit_identical(self, karate_iwc):
        serial = LINEAR_THRESHOLD.sample_rr_sets(karate_iwc, 60, RandomSource(17), jobs=1)
        parallel = LINEAR_THRESHOLD.sample_rr_sets(
            karate_iwc, 60, RandomSource(17), jobs=JOBS
        )
        assert serial == parallel

    def test_rr_set_cost_accounting_identical(self, karate_iwc):
        cost_serial, size_serial = TraversalCost(), SampleSize()
        cost_parallel, size_parallel = TraversalCost(), SampleSize()
        LINEAR_THRESHOLD.sample_rr_sets(
            karate_iwc, 60, RandomSource(17), jobs=1,
            cost=cost_serial, sample_size=size_serial,
        )
        LINEAR_THRESHOLD.sample_rr_sets(
            karate_iwc, 60, RandomSource(17), jobs=JOBS,
            cost=cost_parallel, sample_size=size_parallel,
        )
        assert (cost_serial.vertices, cost_serial.edges) == (
            cost_parallel.vertices, cost_parallel.edges,
        )
        assert (size_serial.vertices, size_serial.edges) == (
            size_parallel.vertices, size_parallel.edges,
        )

    def test_snapshots_bit_identical(self, karate_iwc):
        serial = LINEAR_THRESHOLD.sample_snapshots(karate_iwc, 25, RandomSource(3), jobs=1)
        parallel = LINEAR_THRESHOLD.sample_snapshots(
            karate_iwc, 25, RandomSource(3), jobs=JOBS
        )
        assert len(serial) == len(parallel) == 25
        for left, right in zip(serial, parallel):
            assert np.array_equal(left.indptr, right.indptr)
            assert np.array_equal(left.targets, right.targets)

    def test_monte_carlo_estimate_bit_identical(self, karate_iwc):
        serial = monte_carlo_spread(karate_iwc, (0, 33), 80, seed=9, model="lt", jobs=1)
        parallel = monte_carlo_spread(
            karate_iwc, (0, 33), 80, seed=9, model="lt", jobs=JOBS
        )
        assert serial == parallel  # frozen dataclass: exact float equality


class TestLTOracleAndEstimatorDeterminism:
    def test_oracle_pool_bit_identical(self, karate_iwc):
        serial = RRPoolOracle(karate_iwc, pool_size=800, seed=4, model="lt", jobs=1)
        parallel = RRPoolOracle(karate_iwc, pool_size=800, seed=4, model="lt", jobs=JOBS)
        assert np.array_equal(
            serial.single_vertex_spreads(), parallel.single_vertex_spreads()
        )
        assert serial.spread((0, 33)) == parallel.spread((0, 33))
        assert serial.average_rr_size == parallel.average_rr_size

    def test_ris_estimator_greedy_bit_identical(self, karate_iwc):
        serial = greedy_maximize(
            karate_iwc,
            3,
            RISEstimator(256, context=RunContext(model="lt", jobs=1)),
            seed=21,
        )
        parallel = greedy_maximize(
            karate_iwc,
            3,
            RISEstimator(256, context=RunContext(model="lt", jobs=JOBS)),
            seed=21,
        )
        assert serial == parallel

    def test_snapshot_estimator_greedy_bit_identical(self, karate_iwc):
        serial = greedy_maximize(
            karate_iwc,
            2,
            SnapshotEstimator(16, context=RunContext(model="lt", jobs=1)),
            seed=21,
        )
        parallel = greedy_maximize(
            karate_iwc,
            2,
            SnapshotEstimator(16, context=RunContext(model="lt", jobs=JOBS)),
            seed=21,
        )
        assert serial == parallel


class TestLTExperimentDeterminism:
    @pytest.mark.parametrize("approach", ["ris", "snapshot"])
    def test_run_trials_bit_identical(self, karate_iwc, lt_oracle, approach):
        serial = run_trials(
            karate_iwc, 2, estimator_factory(approach, model="lt"), 64, 8,
            oracle=lt_oracle, experiment_seed=13, model="lt", jobs=1,
        )
        parallel = run_trials(
            karate_iwc, 2, estimator_factory(approach, model="lt"), 64, 8,
            oracle=lt_oracle, experiment_seed=13, model="lt", jobs=JOBS,
        )
        assert serial == parallel
