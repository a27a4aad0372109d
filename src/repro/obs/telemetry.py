"""Run-scoped telemetry: named counters, gauges, and hierarchical timed spans.

The paper's methodology is cost *accounting* — traversal cost and sample
size instead of wall-clock time — but understanding the implementation
(where does the time go? how many bytes cross the process-pool boundary?)
needs wall-clock observability too.  :class:`Telemetry` is the one object
that carries both kinds of signal through a run:

* **counters** — monotonically accumulated ``name -> number`` totals.  By
  convention, counters outside the ``runtime.`` namespace and not ending in
  ``_seconds``/``_bytes`` are *deterministic*: they are functions of the
  spec and seed alone and are identical for every ``jobs`` value (the
  traversal-cost counters are the canonical example).  ``runtime.*`` and
  ``*_seconds``/``*_bytes`` counters describe the execution environment and
  may differ between machines or worker counts.
* **gauges** — last-write-wins observations (``name -> value``).
* **spans** — hierarchical timed sections (``with tel.span("oracle.build")``)
  aggregated by path: entering the same name under the same parent twice
  accumulates ``count`` and ``seconds`` on one node, so the span tree's
  *shape* is deterministic even though its times are not.
* **events / warnings** — an append-only structured event stream, exported
  as JSONL by :mod:`repro.obs.trace`; :meth:`Telemetry.warn_once` emits a
  warning event (and one stderr line) at most once per key.

A run that does not opt in pays almost nothing: every entry point defaults
to :data:`NULL_TELEMETRY`, a strict no-op whose methods do nothing and whose
``span`` returns a shared reusable context manager — the disabled-mode cost
is one attribute check, and all outputs stay byte-identical (pinned by the
CLI golden tests and ``tests/obs``).

Worker processes do not share the parent's object.  Instead the runtime
measures per-chunk metrics worker-side and the parent merges them **in chunk
(task) order** (see :func:`repro.runtime.engine.instrumented_map`), so the
merged counters are independent of which worker finished first.
:meth:`Telemetry.snapshot` / :meth:`Telemetry.merge` implement the same
deterministic merge for callers that aggregate whole telemetry objects.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..diffusion.costs import CostReport

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "as_telemetry",
    "is_deterministic_counter",
]


def is_deterministic_counter(name: str) -> bool:
    """Whether a counter name is draw-deterministic by the naming convention.

    Deterministic counters depend only on the spec and the seed: equal for
    every ``jobs`` value, every chunk layout, and every machine.  The
    convention (documented in ``docs/DESIGN.md``): everything outside the
    ``runtime.`` namespace whose name does not end in ``_seconds`` or
    ``_bytes``.
    """
    if name.startswith("runtime."):
        return False
    return not (name.endswith("_seconds") or name.endswith("_bytes"))


@dataclass
class _SpanNode:
    """Aggregated state of one span path: entry count and total seconds."""

    count: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable, picklable capture of a telemetry object's state.

    The exchange format between processes: a worker snapshots its local
    telemetry, the parent merges the snapshots back in task order
    (:meth:`Telemetry.merge`), and the result is independent of worker
    scheduling.
    """

    counters: tuple[tuple[str, int | float], ...] = ()
    gauges: tuple[tuple[str, float], ...] = ()
    spans: tuple[tuple[tuple[str, ...], int, float], ...] = ()
    events: tuple[dict[str, Any], ...] = ()


class _Span:
    """Reusable span guard: measures one enter/exit and reports to the owner."""

    __slots__ = ("_telemetry", "_path", "_start")

    def __init__(self, telemetry: "Telemetry", path: tuple[str, ...]) -> None:
        self._telemetry = telemetry
        self._path = path
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._enter_span(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._telemetry._exit_span(self._path, elapsed)


class Telemetry:
    """Mutable telemetry accumulator carried on :class:`~repro.context.RunContext`.

    Not thread-safe (one per run, like the run's RNG); picklable state is
    exported via :meth:`snapshot`, never by pickling the object itself.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[tuple[str, ...], _SpanNode] = {}
        self._stack: tuple[str, ...] = ()
        self._events: list[dict[str, Any]] = []
        self._warned: set[str] = set()

    # ------------------------------------------------------------------ #
    # counters and gauges
    # ------------------------------------------------------------------ #
    def incr(self, name: str, value: int | float = 1) -> None:
        """Accumulate ``value`` onto the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a last-write-wins observation."""
        self._gauges[name] = value

    @property
    def counters(self) -> Mapping[str, int | float]:
        """Read-only view of the counter totals."""
        return dict(self._counters)

    @property
    def gauges(self) -> Mapping[str, float]:
        """Read-only view of the gauges."""
        return dict(self._gauges)

    def deterministic_counters(self) -> dict[str, int | float]:
        """The draw-deterministic counters (see :func:`is_deterministic_counter`).

        These must be identical for ``jobs=1`` and ``jobs=N`` runs of the
        same spec — the property the determinism tests pin.
        """
        return {
            name: value
            for name, value in self._counters.items()
            if is_deterministic_counter(name)
        }

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def span(self, name: str) -> _Span:
        """A context manager timing one named section under the current span.

        Re-entering the same name under the same parent aggregates into one
        node (count and total seconds), keeping the tree's shape independent
        of how often a phase runs.
        """
        return _Span(self, self._stack + (name,))

    def _enter_span(self, path: tuple[str, ...]) -> None:
        self._stack = path
        if path not in self._spans:
            self._spans[path] = _SpanNode()

    def _exit_span(self, path: tuple[str, ...], elapsed: float) -> None:
        node = self._spans[path]
        node.count += 1
        node.seconds += elapsed
        self._stack = path[:-1]

    def span_table(self) -> list[tuple[tuple[str, ...], int, float]]:
        """All span nodes as ``(path, count, seconds)`` rows in first-entry order."""
        return [
            (path, node.count, node.seconds) for path, node in self._spans.items()
        ]

    def span_seconds(self, *path: str) -> float:
        """Total seconds of the span node at ``path`` (0.0 when never entered)."""
        node = self._spans.get(tuple(path))
        return node.seconds if node is not None else 0.0

    def span_count(self, *path: str) -> int:
        """Entry count of the span node at ``path`` (0 when never entered)."""
        node = self._spans.get(tuple(path))
        return node.count if node is not None else 0

    # ------------------------------------------------------------------ #
    # events and warnings
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields: Any) -> None:
        """Append a structured event to the run's event stream."""
        self._events.append({"type": "event", "name": name, "fields": fields})

    def warn_once(self, key: str, message: str) -> bool:
        """Emit a warning event (and one stderr line) at most once per ``key``.

        Returns whether the warning was emitted by this call.
        """
        if key in self._warned:
            return False
        self._warned.add(key)
        self._events.append({"type": "warning", "name": key, "message": message})
        print(f"repro: warning: {message}", file=sys.stderr)
        return True

    @property
    def events(self) -> tuple[dict[str, Any], ...]:
        """The event stream so far (events and warnings, in emission order)."""
        return tuple(self._events)

    def check_jobs(self, jobs: int | None) -> None:
        """Warn once when a requested worker count oversubscribes the host.

        ``jobs`` above ``os.cpu_count()`` silently degrades to time-sharing
        (the PR 2 container benchmarks recorded speedup < 1 exactly this
        way), so the condition is surfaced through the event stream.
        """
        if jobs is None:
            return
        cpu = os.cpu_count()
        if cpu is not None and jobs > cpu:
            self.warn_once(
                "jobs.oversubscribed",
                f"jobs={jobs} exceeds os.cpu_count()={cpu}; worker processes "
                "will time-share cores and parallel speedup will degrade",
            )

    # ------------------------------------------------------------------ #
    # cost accounting as counters
    # ------------------------------------------------------------------ #
    def record_cost(
        self,
        report: CostReport,
        *,
        traversal_key: str = "traversal",
        sample_key: str = "sample",
    ) -> None:
        """Re-express a :class:`~repro.diffusion.costs.CostReport` as counters.

        The counter totals reproduce the legacy ``TraversalCost`` /
        ``SampleSize`` totals exactly — same integers, just accumulated on
        the telemetry layer.
        """
        self.incr(f"{traversal_key}.vertices", report.traversal.vertices)
        self.incr(f"{traversal_key}.edges", report.traversal.edges)
        self.incr(f"{sample_key}.vertices", report.sample_size.vertices)
        self.incr(f"{sample_key}.edges", report.sample_size.edges)

    # ------------------------------------------------------------------ #
    # snapshot / merge (the worker exchange format)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TelemetrySnapshot:
        """Capture the current state as an immutable picklable snapshot."""
        return TelemetrySnapshot(
            counters=tuple(self._counters.items()),
            gauges=tuple(self._gauges.items()),
            spans=tuple(
                (path, node.count, node.seconds)
                for path, node in self._spans.items()
            ),
            events=tuple(dict(event) for event in self._events),
        )

    def merge(self, other: "TelemetrySnapshot | Telemetry") -> None:
        """Merge a snapshot (or another telemetry) into this one in place.

        Counters and span times/counts are summed, gauges are last-write-
        wins, events are appended.  Merging the same snapshots in the same
        order always yields the same state — callers (the runtime engine)
        merge in task order to keep the result scheduling-independent.
        """
        snap = other.snapshot() if isinstance(other, Telemetry) else other
        for name, value in snap.counters:
            self.incr(name, value)
        for name, value in snap.gauges:
            self.gauge(name, value)
        for path, count, seconds in snap.spans:
            path = tuple(path)
            node = self._spans.get(path)
            if node is None:
                node = self._spans[path] = _SpanNode()
            node.count += count
            node.seconds += seconds
        self._events.extend(dict(event) for event in snap.events)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible export: sorted counters/gauges, nested span tree."""
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "spans": self._span_tree(),
            "events": [dict(event) for event in self._events],
        }

    def _span_tree(self) -> list[dict[str, Any]]:
        """Nest the span table into a tree (children under their parent path)."""
        nodes: dict[tuple[str, ...], dict[str, Any]] = {}
        roots: list[dict[str, Any]] = []
        for path, node in self._spans.items():
            entry = {
                "name": path[-1],
                "count": node.count,
                "seconds": node.seconds,
                "children": [],
            }
            nodes[path] = entry
            parent = nodes.get(path[:-1])
            (parent["children"] if parent is not None else roots).append(entry)
        return roots

    def render_profile(self) -> str:
        """Human-readable profile: the span tree plus the counter totals."""
        lines = ["telemetry profile"]
        if self._spans:
            lines.append("  spans:")
            for path, node in self._spans.items():
                indent = "    " + "  " * (len(path) - 1)
                label = f"{indent}{path[-1]}"
                lines.append(f"{label:<44s} {node.count:>5d}x {node.seconds:>9.3f}s")
        if self._counters:
            lines.append("  counters:")
            for name in sorted(self._counters):
                value = self._counters[name]
                rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
                lines.append(f"    {name:<40s} {rendered}")
        if self._gauges:
            lines.append("  gauges:")
            for name in sorted(self._gauges):
                lines.append(f"    {name:<40s} {self._gauges[name]}")
        warnings = [event for event in self._events if event["type"] == "warning"]
        if warnings:
            lines.append("  warnings:")
            for event in warnings:
                lines.append(f"    {event['name']}: {event['message']}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(counters={len(self._counters)}, "
            f"spans={len(self._spans)}, events={len(self._events)})"
        )


class _NullSpan:
    """Shared no-op span guard (one instance for the whole process)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Strict no-op telemetry: the default when nobody asked to observe.

    Every method does nothing and allocates nothing (``span`` returns one
    shared guard), so threading telemetry through the hot paths costs a
    single attribute check when disabled.  All outputs are byte-identical
    with and without it — pinned by the golden tests.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def incr(self, name: str, value: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def warn_once(self, key: str, message: str) -> bool:
        return False

    def check_jobs(self, jobs: int | None) -> None:
        pass

    def record_cost(self, report: CostReport, **kwargs: Any) -> None:
        pass

    @property
    def counters(self) -> Mapping[str, int | float]:
        return {}

    @property
    def gauges(self) -> Mapping[str, float]:
        return {}

    @property
    def events(self) -> tuple[dict[str, Any], ...]:
        return ()

    def deterministic_counters(self) -> dict[str, int | float]:
        return {}

    def span_table(self) -> list[tuple[tuple[str, ...], int, float]]:
        return []

    def span_seconds(self, *path: str) -> float:
        return 0.0

    def span_count(self, *path: str) -> int:
        return 0

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()

    def merge(self, other: "TelemetrySnapshot | Telemetry") -> None:
        pass

    def to_dict(self) -> dict[str, Any]:
        return {}

    def render_profile(self) -> str:
        return "telemetry profile (disabled)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTelemetry()"


#: The process-wide no-op singleton every entry point defaults to.
NULL_TELEMETRY = NullTelemetry()


def as_telemetry(value: Any) -> "Telemetry | NullTelemetry":
    """Normalise a ``telemetry=`` argument: an instance or ``None`` (= no-op).

    Mirrors :func:`repro.diffusion.models.resolve_model`: ``None`` resolves
    to the strict no-op singleton so call sites can write
    ``tel = as_telemetry(resolved.telemetry)`` and use ``tel`` unconditionally.
    """
    if value is None:
        return NULL_TELEMETRY
    if isinstance(value, (Telemetry, NullTelemetry)):
        return value
    raise TypeError(
        f"telemetry must be a Telemetry, NullTelemetry, or None, "
        f"got {type(value).__name__}"
    )
