"""Tests for the named estimator factories."""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.oneshot import OneshotEstimator
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.context import RunContext
from repro.diffusion.models import LINEAR_THRESHOLD
from repro.exceptions import InvalidParameterError
from repro.experiments.factories import (
    PAPER_APPROACHES,
    available_approaches,
    estimator_factory,
)
from repro.obs import Telemetry


class TestFactories:
    def test_paper_approaches_available(self):
        assert set(PAPER_APPROACHES) <= set(available_approaches())

    def test_factory_types(self):
        assert isinstance(estimator_factory("oneshot")(4), OneshotEstimator)
        assert isinstance(estimator_factory("snapshot")(4), SnapshotEstimator)
        assert isinstance(estimator_factory("ris")(4), RISEstimator)

    def test_sample_number_passed_through(self):
        assert estimator_factory("ris")(77).num_samples == 77
        assert estimator_factory("oneshot")(12).num_samples == 12

    def test_snapshot_reduce_variant(self):
        estimator = estimator_factory("snapshot_reduce")(4)
        assert isinstance(estimator, SnapshotEstimator)
        assert estimator.update_strategy == "reduce"

    def test_heuristics_ignore_sample_number(self):
        estimator = estimator_factory("degree")(999)
        assert estimator.num_samples == 1

    def test_unknown_approach_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimator_factory("simulated_annealing")

    def test_factories_produce_fresh_instances(self):
        factory = estimator_factory("ris")
        assert factory(8) is not factory(8)


class TestKnobValidation:
    """Legacy knob kwargs are merged into one context, so a bad value fails
    when the factory is made, even for an approach that never reads it."""

    def test_bad_batch_mode_rejected_for_a_heuristic(self):
        with pytest.raises(ValueError, match="batch_mode"):
            estimator_factory("degree", batch_mode="avx")

    def test_unknown_model_rejected_for_a_heuristic(self):
        with pytest.raises(ValueError, match="nope"):
            estimator_factory("degree", model="nope")

    def test_binds_only_the_estimator_knobs(self):
        # Seed and telemetry stay out of the bound context, so pickled
        # factories carry no observer into trial workers.
        factory = estimator_factory(
            "ris", context=RunContext(seed=5, telemetry=Telemetry(), model="lt", jobs=2)
        )
        assert factory.keywords["context"] == RunContext(jobs=2, model=LINEAR_THRESHOLD)
        estimator = pickle.loads(pickle.dumps(factory))(8)
        assert isinstance(estimator, RISEstimator)
        assert estimator.model.name == "lt"
