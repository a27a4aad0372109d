"""``repro.run()``: dispatch, spec/imperative equivalence, graph resolution."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro import (
    EstimatorSpec,
    GraphSpec,
    MaximizeSpec,
    RunContext,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    TrialsSpec,
)
from repro.api.results import (
    MaximizeResult,
    StatsResult,
    SweepResult,
    TraversalResult,
    TrialsResult,
)
from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import SpecValidationError
from repro.experiments.factories import estimator_factory
from repro.experiments.trials import run_trials

KARATE = GraphSpec(dataset="karate", probability="uc0.1")
EXAMPLE_SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


class TestDispatch:
    def test_rejects_non_specs(self):
        with pytest.raises(SpecValidationError, match="experiment spec"):
            repro.run({"kind": "maximize"})

    def test_stats(self):
        result = repro.run(StatsSpec(dataset="karate"))
        assert isinstance(result, StatsResult)
        assert result.rows[0]["network"] == "karate"
        assert result.rows[0]["n"] == 34

    def test_maximize(self):
        spec = MaximizeSpec(
            graph=KARATE,
            estimator=EstimatorSpec(approach="ris", num_samples=128),
            k=2,
            pool_size=500,
        )
        result = repro.run(spec)
        assert isinstance(result, MaximizeResult)
        assert result.greedy.k == 2
        assert result.influence.value > 0

    def test_trials(self):
        spec = TrialsSpec(
            graph=KARATE,
            estimator=EstimatorSpec(approach="ris", num_samples=32),
            k=1,
            num_trials=4,
            pool_size=500,
        )
        result = repro.run(spec)
        assert isinstance(result, TrialsResult)
        assert result.trial_set.num_trials == 4
        document = json.loads(result.to_json())
        assert len(document["trials"]) == 4
        assert document["entropy"] >= 0.0

    def test_sweep(self):
        spec = SweepSpec(
            graph=KARATE, approach="ris", max_exponent=2, num_trials=3, pool_size=500
        )
        result = repro.run(spec)
        assert isinstance(result, SweepResult)
        assert result.sweep.sample_numbers == (1, 2, 4)

    def test_traversal(self):
        spec = TraversalSpec(graph=KARATE, repetitions=2)
        result = repro.run(spec)
        assert isinstance(result, TraversalResult)
        assert [row.approach for row in result.rows] == ["oneshot", "snapshot", "ris"]


class TestSpecImperativeEquivalence:
    """Same parameters through the spec path and the legacy recipe: equal numbers."""

    def test_trials_equivalence(self):
        graph = KARATE.resolve()
        oracle = RRPoolOracle(graph, pool_size=500, seed=8)
        legacy = run_trials(
            graph, 1, estimator_factory("ris"), 32, 4,
            oracle=oracle, experiment_seed=7,
        )
        spec = TrialsSpec(
            graph=KARATE,
            estimator=EstimatorSpec(approach="ris", num_samples=32),
            k=1,
            num_trials=4,
            pool_size=500,
            context=RunContext(seed=7),
        )
        via_spec = repro.run(spec).trial_set
        assert via_spec == legacy

    def test_same_spec_same_result(self):
        spec = MaximizeSpec(
            graph=KARATE,
            estimator=EstimatorSpec(approach="ris", num_samples=128),
            k=2,
            pool_size=500,
            context=RunContext(seed=5),
        )
        first = repro.run(spec)
        second = repro.run(repro.spec_from_dict(spec.to_dict()))
        assert first.greedy == second.greedy
        assert first.to_dict() == second.to_dict()

    def test_jobs_is_bit_identical(self):
        def result_for(jobs):
            spec = MaximizeSpec(
                graph=KARATE,
                estimator=EstimatorSpec(approach="ris", num_samples=64),
                k=2,
                pool_size=500,
                context=RunContext(seed=1, jobs=jobs),
            )
            document = repro.run(spec).to_dict()
            del document["spec"]  # the envelope records the differing jobs value
            return document

        assert result_for(1) == result_for(2)

    def test_result_replays_from_its_spec_whatever_the_environment(self, monkeypatch):
        # The retired REPRO_BITPARALLEL variable used to switch the kernels
        # without appearing in the spec, so the same document gave a
        # different seed set.  Only the spec may choose the batch mode.
        spec = repro.load_spec(EXAMPLE_SPECS / "maximize_karate.json")
        monkeypatch.delenv("REPRO_BITPARALLEL", raising=False)
        reference = repro.run(spec).to_dict()
        monkeypatch.setenv("REPRO_BITPARALLEL", "1")
        assert repro.run(spec).to_dict() == reference
        assert reference["seed_set"] == [0, 1, 25, 33]


class TestGraphSpecResolution:
    def test_generator_source(self):
        spec = GraphSpec(
            generator="star",
            generator_params={"num_leaves": 5},
            probability="uc0.1",
        )
        graph = spec.resolve()
        assert graph.num_vertices == 6
        assert graph.num_edges == 5

    def test_generator_seed_injection(self):
        params = {"num_vertices": 20, "edge_probability": 0.2}
        a = GraphSpec(generator="erdos_renyi", generator_params=params).resolve()
        b = GraphSpec(
            generator="erdos_renyi", generator_params=params, seed=1
        ).resolve()
        assert a.num_edges != b.num_edges or list(a.edges()) != list(b.edges())

    def test_edge_list_source(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n", encoding="utf-8")
        graph = GraphSpec(edge_list=str(path), probability="uc0.5").resolve()
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert float(graph.edge_arrays()[2][0]) == 0.5

    def test_edge_list_duplicate_policy(self, tmp_path):
        path = tmp_path / "dupes.txt"
        path.write_text("0 1\n0 1\n", encoding="utf-8")
        from repro.exceptions import GraphConstructionError

        with pytest.raises(GraphConstructionError):
            GraphSpec(edge_list=str(path)).resolve()
        graph = GraphSpec(edge_list=str(path), on_duplicate="first").resolve()
        assert graph.num_edges == 1
