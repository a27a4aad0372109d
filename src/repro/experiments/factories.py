"""Named estimator factories used by the experiment harness and benchmarks.

Experiments are usually configured with strings ("oneshot", "snapshot",
"ris"); this module maps those names to factory callables compatible with
:data:`repro.experiments.trials.EstimatorFactory`.

Every factory is a module-level class or function, or a
``functools.partial`` of one, so it pickles into worker processes, which is
what lets :func:`repro.experiments.trials.run_trials` fan trials out across a
process pool.  :func:`estimator_factory` binds the execution knobs into the
returned factory as one :class:`~repro.context.RunContext` for the approaches
that sample the diffusion process (Oneshot, Snapshot, RIS); each estimator
reads only the fields it uses.  Binding ``jobs``/``executor`` parallelises a
Snapshot or RIS Build — avoid combining that with trial-level parallelism
(nesting process pools multiplies workers without adding CPUs).  The
structural heuristics (degree, single discount, random) never sample the
diffusion process, so no context is bound for them.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..algorithms.framework import InfluenceEstimator
from ..algorithms.heuristics import (
    DegreeEstimator,
    RandomEstimator,
    SingleDiscountEstimator,
    WeightedDegreeEstimator,
)
from ..algorithms.oneshot import OneshotEstimator
from ..algorithms.ris import RISEstimator
from ..algorithms.snapshot import SnapshotEstimator
from ..context import RunContext, resolve_context
from ..diffusion.models import resolve_model
from ..exceptions import InvalidParameterError

#: Names of the three approaches studied by the paper, in its order.
PAPER_APPROACHES: tuple[str, ...] = ("oneshot", "snapshot", "ris")


def _make_degree(_num_samples: int) -> InfluenceEstimator:
    return DegreeEstimator()


def _make_weighted_degree(_num_samples: int) -> InfluenceEstimator:
    return WeightedDegreeEstimator()


def _make_single_discount(_num_samples: int) -> InfluenceEstimator:
    return SingleDiscountEstimator()


def _make_random(_num_samples: int) -> InfluenceEstimator:
    return RandomEstimator()


_FACTORIES: dict[str, Callable[[int], InfluenceEstimator]] = {
    "oneshot": OneshotEstimator,
    "snapshot": SnapshotEstimator,
    "snapshot_reduce": functools.partial(SnapshotEstimator, update_strategy="reduce"),
    "ris": RISEstimator,
    "degree": _make_degree,
    "weighted_degree": _make_weighted_degree,
    "single_discount": _make_single_discount,
    "random": _make_random,
}

#: Approaches that sample the diffusion process and so take a bound context.
_SAMPLING: frozenset[str] = frozenset({"oneshot", "snapshot", "snapshot_reduce", "ris"})


def available_approaches() -> tuple[str, ...]:
    """Names accepted by :func:`estimator_factory`."""
    return tuple(sorted(_FACTORIES))


def estimator_factory(
    approach: str,
    *,
    jobs: int | None = None,
    executor=None,
    model=None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> Callable[[int], InfluenceEstimator]:
    """Return the factory for ``approach`` (e.g. ``"oneshot"``).

    The knobs are merged with ``context`` by
    :func:`~repro.context.resolve_context` (an explicit kwarg wins), so a bad
    value fails here for every approach.  For the sampling approaches the
    merged ``jobs``, ``executor``, ``model`` and ``batch_mode`` are bound
    into the factory as one ``RunContext`` (a picklable
    ``functools.partial``); seed and telemetry are left out, so the bound
    factory pickles without an observer.  The structural heuristics never
    simulate diffusion and get the plain factory.
    """
    context = resolve_context(
        context, jobs=jobs, executor=executor, model=model, batch_mode=batch_mode
    )
    try:
        base = _FACTORIES[approach]
    except KeyError:
        raise InvalidParameterError(
            f"unknown approach {approach!r}; available: {', '.join(sorted(_FACTORIES))}"
        ) from None
    if approach not in _SAMPLING:
        return base
    bound = RunContext(
        jobs=context.jobs,
        executor=context.executor,
        model=resolve_model(context.model),
        batch_mode=context.batch_mode,
    )
    return functools.partial(base, context=bound)
