"""Forward Monte-Carlo spread estimation with convergence diagnostics.

A thin convenience layer over the forward-cascade primitive of any
:class:`~repro.diffusion.models.DiffusionModel` (IC by default) that also
reports a standard error, so examples and tests can decide whether a given
simulation budget suffices.  The RR-pool oracle
(:mod:`repro.estimation.oracle`) is preferred for scoring many seed sets on
the same graph; forward Monte-Carlo is preferred for scoring one seed set on
a graph where building a pool would be wasteful.

Batched parallelism: cascades are independent, so
:func:`monte_carlo_spread` accepts ``jobs=``/``executor=`` and dispatches
chunks of simulations through :mod:`repro.runtime` (via
:meth:`~repro.diffusion.models.DiffusionModel.spread_moments`).  Each
simulation index draws from its own child stream and per-chunk activation
totals are exact integers, so the estimate is bit-identical for any worker
count or chunk size (and differs from the default single-stream sequential
draw, which is preserved when neither parameter is given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..graphs.influence_graph import InfluenceGraph


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean spread, sample standard deviation, and standard error."""

    mean: float
    std: float
    num_simulations: int

    @property
    def standard_error(self) -> float:
        """Standard error of the mean.

        A single simulation carries no variance information, so the standard
        error is infinite (not zero) for ``num_simulations <= 1``.
        """
        if self.num_simulations <= 1:
            return float("inf")
        return self.std / math.sqrt(self.num_simulations)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval at the given z value.

        With ``num_simulations <= 1`` there is no variance estimate, and the
        infinite standard error would yield the uninformative
        ``(-inf, inf)``; instead the interval degenerates to the point
        estimate ``(mean, mean)``, making explicit that the estimate has a
        location but no measured spread.  Callers needing a genuine interval
        must run at least two simulations.
        """
        if self.num_simulations <= 1:
            return (self.mean, self.mean)
        radius = z * self.standard_error
        return (self.mean - radius, self.mean + radius)


def monte_carlo_spread(
    graph: InfluenceGraph,
    seed_set: tuple[int, ...] | list[int] | set[int],
    num_simulations: int,
    *,
    seed: int | RandomSource | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    executor: "Executor | None" = None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> MonteCarloEstimate:
    """Estimate ``Inf(seed_set)`` from ``num_simulations`` forward cascades.

    ``model`` selects the diffusion model (name, instance, or ``None`` for the
    paper's independent cascade).  ``jobs``/``executor`` opt into the parallel
    runtime's split-stream contract (simulation ``i`` uses a child stream of
    ``(seed, i)``); the default runs all cascades sequentially from one
    stream.  ``batch_mode="bitparallel"`` opts into the 64-worlds-per-word
    kernel (own draw-order contract; under ``jobs`` the split-stream task
    unit becomes the 64-world word, keeping any worker count bit-identical).
    ``context`` supplies any of the knobs left at ``None`` (explicit kwargs
    win; ``seed`` defaults to ``0`` without either).
    """
    require_positive_int(num_simulations, "num_simulations")
    context = resolve_context(
        context, jobs=jobs, executor=executor, model=model, batch_mode=batch_mode
    )
    if seed is None:
        seed = context.seed
    from ..obs import as_telemetry

    tel = as_telemetry(context.telemetry)
    diffusion = resolve_model(context.model)
    diffusion.validate(graph)
    tel.incr("mc.simulations", num_simulations)
    with tel.span("mc.spread"):
        total, total_squared = diffusion.spread_moments(
            graph,
            seed_set,
            num_simulations,
            seed if isinstance(seed, RandomSource) else RandomSource(seed),
            jobs=context.jobs,
            executor=context.executor,
            telemetry=context.telemetry,
            batch_mode=context.batch_mode,
        )
    mean = total / num_simulations
    variance = max(0.0, total_squared / num_simulations - mean * mean)
    if num_simulations > 1:
        variance *= num_simulations / (num_simulations - 1)
    return MonteCarloEstimate(mean=mean, std=math.sqrt(variance), num_simulations=num_simulations)
