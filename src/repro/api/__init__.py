"""Declarative experiment API: typed specs, one ``run()``, structured results.

The three layers:

* :mod:`repro.api.specs` — serializable experiment documents
  (:class:`GraphSpec`, :class:`EstimatorSpec`, the per-kind experiment specs,
  and :func:`spec_from_dict` / :func:`load_spec` for JSON round-tripping);
* :mod:`repro.api.runner` — the single :func:`run` dispatcher onto the
  existing engines;
* :mod:`repro.api.results` — :class:`ExperimentResult` objects carrying
  ``to_dict()`` / ``to_json()`` / ``to_text()``.

Quickstart::

    import repro

    spec = repro.MaximizeSpec(
        graph=repro.GraphSpec(dataset="karate", probability="uc0.1"),
        estimator=repro.EstimatorSpec(approach="ris", num_samples=1024),
        k=4,
        context=repro.RunContext(seed=0),
    )
    result = repro.run(spec)
    print(result.to_text())          # the familiar table
    open("out.json", "w").write(result.to_json())  # machine-readable
"""

from ..context import RunContext, resolve_context
from .results import (
    ExperimentResult,
    MaximizeResult,
    StatsResult,
    SweepResult,
    TraversalResult,
    TrialsResult,
)
from .runner import run
from .specs import (
    DUPLICATE_POLICIES,
    GRAPH_GENERATORS,
    SPEC_KINDS,
    EstimatorSpec,
    ExperimentSpec,
    GraphSpec,
    MaximizeSpec,
    SpecValidationError,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    TrialsSpec,
    load_spec,
    spec_from_dict,
)

__all__ = [
    "run",
    "RunContext",
    "resolve_context",
    # specs
    "GraphSpec",
    "EstimatorSpec",
    "StatsSpec",
    "MaximizeSpec",
    "TrialsSpec",
    "SweepSpec",
    "TraversalSpec",
    "ExperimentSpec",
    "SPEC_KINDS",
    "GRAPH_GENERATORS",
    "DUPLICATE_POLICIES",
    "spec_from_dict",
    "load_spec",
    "SpecValidationError",
    # results
    "ExperimentResult",
    "StatsResult",
    "MaximizeResult",
    "TrialsResult",
    "SweepResult",
    "TraversalResult",
]
