"""Tests for per-sample traversal cost and equal-accuracy cost (Tables 8-9)."""

from __future__ import annotations

import pytest

import repro
from repro import GraphSpec, RunContext, Telemetry, TraversalSpec
from repro.exceptions import ExperimentConfigurationError
from repro.experiments.factories import estimator_factory
from repro.experiments.traversal import (
    empirical_cost_ratios,
    equal_accuracy_costs,
    per_sample_traversal_cost,
    traversal_cost_table,
)


@pytest.fixture(scope="module")
def karate_cost_rows(karate_uc01):
    factories = {
        name: estimator_factory(name) for name in ("oneshot", "snapshot", "ris")
    }
    return traversal_cost_table(
        karate_uc01, factories, k=1, num_samples=1, num_repetitions=5, experiment_seed=0
    )


class TestPerSampleTraversalCost:
    def test_row_metadata(self, karate_uc01):
        row = per_sample_traversal_cost(
            karate_uc01, estimator_factory("ris"), num_repetitions=2
        )
        assert row.approach == "ris"
        assert row.graph_name == karate_uc01.name
        assert row.num_repetitions == 2
        assert set(row.as_row()) >= {"network", "algorithm", "vertex", "edge"}

    def test_oneshot_vertex_cost_close_to_total_influence(self, karate_cost_rows, karate_oracle):
        # Table 8 / Appendix: Oneshot vertex cost at beta=1, k=1 is sum_v Inf(v).
        oneshot = next(r for r in karate_cost_rows if r.approach == "oneshot")
        expected = float(karate_oracle.single_vertex_spreads().sum())
        assert oneshot.vertex_cost == pytest.approx(expected, rel=0.25)

    def test_snapshot_vertex_cost_matches_oneshot(self, karate_cost_rows):
        # Section 5.3.2: vertex traversal cost of Snapshot equals Oneshot's.
        oneshot = next(r for r in karate_cost_rows if r.approach == "oneshot")
        snapshot = next(r for r in karate_cost_rows if r.approach == "snapshot")
        assert snapshot.vertex_cost == pytest.approx(oneshot.vertex_cost, rel=0.35)

    def test_snapshot_edge_cost_scaled_by_live_fraction(self, karate_cost_rows, karate_uc01):
        # Snapshot scans only live edges: edge cost ~ (m~/m) x Oneshot edge cost.
        oneshot = next(r for r in karate_cost_rows if r.approach == "oneshot")
        snapshot = next(r for r in karate_cost_rows if r.approach == "snapshot")
        live_fraction = karate_uc01.expected_live_edges / karate_uc01.num_edges
        assert snapshot.edge_cost / oneshot.edge_cost == pytest.approx(
            live_fraction, rel=0.6
        )

    def test_ris_is_cheapest_per_sample(self, karate_cost_rows):
        ris = next(r for r in karate_cost_rows if r.approach == "ris")
        for row in karate_cost_rows:
            if row.approach != "ris":
                assert ris.total_cost < row.total_cost

    def test_ris_vertex_cost_about_ept(self, karate_cost_rows):
        # Table 8 reports about 2.0 vertices for Karate uc0.1.
        ris = next(r for r in karate_cost_rows if r.approach == "ris")
        assert 1.0 <= ris.vertex_cost <= 5.0

    def test_sample_size_columns(self, karate_cost_rows):
        oneshot = next(r for r in karate_cost_rows if r.approach == "oneshot")
        snapshot = next(r for r in karate_cost_rows if r.approach == "snapshot")
        ris = next(r for r in karate_cost_rows if r.approach == "ris")
        assert oneshot.sample_vertices == 0 and oneshot.sample_edges == 0
        assert snapshot.sample_edges > 0
        assert ris.sample_vertices > 0


class TestEmpiricalCostRatios:
    def test_ratios_normalised_to_oneshot(self, karate_cost_rows):
        ratios = empirical_cost_ratios(karate_cost_rows)
        assert ratios["oneshot_vertex"] == 1.0
        assert ratios["oneshot_edge"] == 1.0
        assert ratios["ris_vertex"] < 0.2
        assert ratios["snapshot_edge"] < 0.5

    def test_requires_oneshot_row(self, karate_cost_rows):
        without_oneshot = [r for r in karate_cost_rows if r.approach != "oneshot"]
        with pytest.raises(ExperimentConfigurationError):
            empirical_cost_ratios(without_oneshot)


class TestEqualAccuracyCosts:
    def test_combines_ratio_and_cost(self, karate_cost_rows):
        rows = equal_accuracy_costs(
            karate_cost_rows, {"oneshot": 2.0, "snapshot": 1.0, "ris": 32.0}
        )
        by_approach = {row.approach: row for row in rows}
        oneshot_base = next(r for r in karate_cost_rows if r.approach == "oneshot")
        assert by_approach["oneshot"].cost_per_gamma == pytest.approx(
            2.0 * oneshot_base.total_cost
        )
        assert by_approach["snapshot"].comparable_ratio == 1.0

    def test_missing_ratio_defaults_to_one(self, karate_cost_rows):
        rows = equal_accuracy_costs(karate_cost_rows, {})
        for row, base in zip(rows, karate_cost_rows):
            assert row.cost_per_gamma == pytest.approx(base.total_cost)

    def test_invalid_ratio_rejected(self, karate_cost_rows):
        with pytest.raises(ExperimentConfigurationError):
            equal_accuracy_costs(karate_cost_rows, {"oneshot": -1.0})

    def test_as_row_keys(self, karate_cost_rows):
        rows = equal_accuracy_costs(karate_cost_rows, {"ris": 8.0})
        assert {"network", "algorithm", "comparable_ratio", "cost_per_gamma"} <= set(
            rows[0].as_row()
        )


class TestTraversalTelemetry:
    """The Table 8 counters a traced ``traversal`` run records."""

    @staticmethod
    def _run(jobs):
        tel = Telemetry()
        spec = TraversalSpec(
            graph=GraphSpec(dataset="karate", probability="uc0.1"),
            repetitions=3,
            context=RunContext(seed=4, jobs=jobs, telemetry=tel),
        )
        return repro.run(spec).rows, tel

    def test_counters_equal_the_rows_totals(self):
        rows, tel = self._run(jobs=1)
        counters = tel.counters
        assert counters["traversal.repetitions"] == sum(
            row.num_repetitions for row in rows
        )
        assert counters["traversal.vertices"] == sum(
            round(row.vertex_cost * row.num_repetitions) for row in rows
        )
        assert counters["traversal.edges"] == sum(
            round(row.edge_cost * row.num_repetitions) for row in rows
        )

    def test_deterministic_counters_match_across_jobs(self):
        serial_rows, serial = self._run(jobs=1)
        parallel_rows, parallel = self._run(jobs=2)
        assert serial_rows == parallel_rows
        assert serial.deterministic_counters() == parallel.deterministic_counters()
