"""Unit tests for the telemetry core: counters, spans, merge, cost bridge."""

from __future__ import annotations

import pickle

import pytest

from repro.diffusion.costs import CostReport, SampleSize, TraversalCost
from repro.obs import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    as_telemetry,
    is_deterministic_counter,
)


class TestCountersAndGauges:
    def test_incr_accumulates(self):
        tel = Telemetry()
        tel.incr("rr.sets", 5)
        tel.incr("rr.sets", 3)
        tel.incr("other")
        assert tel.counters == {"rr.sets": 8, "other": 1}

    def test_gauge_is_last_write_wins(self):
        tel = Telemetry()
        tel.gauge("graph.vertices", 10)
        tel.gauge("graph.vertices", 34)
        assert tel.gauges == {"graph.vertices": 34}

    def test_counters_view_is_a_copy(self):
        tel = Telemetry()
        tel.incr("a")
        view = tel.counters
        view["a"] = 999  # type: ignore[index]
        assert tel.counters == {"a": 1}


class TestDeterminismConvention:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("rr.sets", True),
            ("traversal.vertices", True),
            ("greedy.estimate_calls", True),
            ("runtime.tasks", False),
            ("runtime.pickle_bytes", False),
            ("trials.kernel_seconds", False),
            ("payload_bytes", False),
        ],
    )
    def test_is_deterministic_counter(self, name, expected):
        assert is_deterministic_counter(name) is expected

    def test_deterministic_counters_filters_environmental_names(self):
        tel = Telemetry()
        tel.incr("rr.sets", 7)
        tel.incr("runtime.tasks", 3)
        tel.incr("runtime.kernel_seconds", 0.25)
        assert tel.deterministic_counters() == {"rr.sets": 7}


class TestSpans:
    def test_span_aggregates_by_path(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("build"):
                pass
        assert tel.span_count("build") == 3
        assert tel.span_seconds("build") >= 0.0
        assert len(tel.span_table()) == 1

    def test_nested_spans_form_a_tree(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner"):
                pass
        paths = [path for path, _, _ in tel.span_table()]
        assert paths == [("outer",), ("outer", "inner")]
        assert tel.span_count("outer", "inner") == 2

    def test_stack_unwinds_after_exit(self):
        tel = Telemetry()
        with tel.span("first"):
            pass
        with tel.span("second"):
            pass
        paths = {path for path, _, _ in tel.span_table()}
        assert paths == {("first",), ("second",)}

    def test_to_dict_nests_children(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        tree = tel.to_dict()["spans"]
        assert tree[0]["name"] == "outer"
        assert tree[0]["children"][0]["name"] == "inner"
        assert tree[0]["children"][0]["children"] == []


class TestEventsAndWarnings:
    def test_event_stream_preserves_order_and_fields(self):
        tel = Telemetry()
        tel.event("alpha", value=1)
        tel.event("beta", value=2)
        assert [event["name"] for event in tel.events] == ["alpha", "beta"]
        assert tel.events[0]["fields"] == {"value": 1}

    def test_warn_once_is_once_per_key(self, capsys):
        tel = Telemetry()
        assert tel.warn_once("k", "message one") is True
        assert tel.warn_once("k", "message two") is False
        captured = capsys.readouterr()
        assert captured.err.count("repro: warning:") == 1
        warnings = [event for event in tel.events if event["type"] == "warning"]
        assert len(warnings) == 1

    def test_check_jobs_warns_on_oversubscription(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.obs.telemetry.os.cpu_count", lambda: 2)
        tel = Telemetry()
        tel.check_jobs(None)
        tel.check_jobs(2)
        assert tel.events == ()
        tel.check_jobs(8)
        tel.check_jobs(8)  # second call is silent
        warnings = [event for event in tel.events if event["type"] == "warning"]
        assert len(warnings) == 1
        assert "jobs=8" in warnings[0]["message"]
        assert "repro: warning:" in capsys.readouterr().err


class TestCostBridge:
    def test_record_cost_reproduces_report_totals(self):
        report = CostReport(
            traversal=TraversalCost(11, 29), sample_size=SampleSize(7, 3)
        )
        tel = Telemetry()
        tel.record_cost(report)
        assert tel.counters == {
            "traversal.vertices": 11,
            "traversal.edges": 29,
            "sample.vertices": 7,
            "sample.edges": 3,
        }


class TestSnapshotMerge:
    def _populated(self, base: int) -> Telemetry:
        tel = Telemetry()
        tel.incr("rr.sets", base)
        tel.gauge("graph.vertices", base)
        with tel.span("build"):
            pass
        tel.event("done", index=base)
        return tel

    def test_snapshot_is_picklable_and_immutable(self):
        snap = self._populated(3).snapshot()
        restored = pickle.loads(pickle.dumps(snap))
        assert restored == snap
        assert isinstance(snap, TelemetrySnapshot)

    def test_merge_sums_counters_and_spans(self):
        parent = self._populated(1)
        parent.merge(self._populated(2).snapshot())
        assert parent.counters["rr.sets"] == 3
        assert parent.span_count("build") == 2
        assert parent.gauges["graph.vertices"] == 2  # last write wins
        assert [event["fields"]["index"] for event in parent.events] == [1, 2]

    def test_merge_in_fixed_order_is_deterministic(self):
        snaps = [self._populated(i).snapshot() for i in range(4)]
        merged_a, merged_b = Telemetry(), Telemetry()
        for snap in snaps:
            merged_a.merge(snap)
        for snap in snaps:
            merged_b.merge(snap)
        assert merged_a.snapshot() == merged_b.snapshot()

    def test_merge_accepts_a_live_telemetry(self):
        parent = Telemetry()
        parent.merge(self._populated(5))
        assert parent.counters["rr.sets"] == 5


class TestNullTelemetry:
    def test_is_disabled_and_shared(self):
        assert NULL_TELEMETRY.enabled is False
        assert as_telemetry(None) is NULL_TELEMETRY

    def test_span_returns_shared_noop_guard(self):
        first = NULL_TELEMETRY.span("a")
        second = NULL_TELEMETRY.span("b")
        assert first is second
        with first:
            pass

    def test_everything_is_a_noop(self):
        tel = NullTelemetry()
        tel.incr("x", 5)
        tel.gauge("y", 1.0)
        tel.event("z")
        tel.check_jobs(10_000)
        assert tel.warn_once("k", "m") is False
        assert tel.counters == {}
        assert tel.gauges == {}
        assert tel.events == ()
        assert tel.deterministic_counters() == {}
        assert tel.span_table() == []
        assert tel.to_dict() == {}
        assert tel.snapshot() == TelemetrySnapshot()

    def test_as_telemetry_passthrough_and_rejection(self):
        live = Telemetry()
        assert as_telemetry(live) is live
        null = NullTelemetry()
        assert as_telemetry(null) is null
        with pytest.raises(TypeError, match="telemetry must be"):
            as_telemetry("verbose")
