"""Sample-number sweeps: run trials across a grid of sample numbers.

Most of the paper's figures are functions of the sample number (beta, tau, or
theta) swept over powers of two.  :class:`SweepResult` holds one
:class:`~repro.experiments.trials.TrialSet` per sample number together with
derived per-point statistics (entropy, influence distribution), and
:func:`sweep_sample_numbers` produces it for one (graph, approach, k)
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

from .._validation import require_non_negative_int, require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel
from ..estimation.oracle import RRPoolOracle
from ..exceptions import ExperimentConfigurationError, InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from .distributions import InfluenceDistribution
from .trials import EstimatorFactory, TrialSet, check_model_consistency, run_trials


def powers_of_two(max_exponent: int, *, min_exponent: int = 0) -> tuple[int, ...]:
    """The paper's sample-number grid: ``2^min_exponent .. 2^max_exponent``."""
    require_non_negative_int(min_exponent, "min_exponent")
    require_non_negative_int(max_exponent, "max_exponent")
    if max_exponent < min_exponent:
        raise ExperimentConfigurationError(
            f"max_exponent ({max_exponent}) must be >= min_exponent ({min_exponent})"
        )
    return tuple(2 ** exponent for exponent in range(min_exponent, max_exponent + 1))


@dataclass(frozen=True)
class SweepResult:
    """Trials for one (graph, approach, k) across a grid of sample numbers."""

    graph_name: str
    approach: str
    k: int
    trial_sets: Mapping[int, TrialSet]

    # ------------------------------------------------------------------ #
    @property
    def sample_numbers(self) -> tuple[int, ...]:
        """The swept sample numbers in increasing order."""
        return tuple(sorted(self.trial_sets))

    def trial_set(self, num_samples: int) -> TrialSet:
        """The trial set at one sample number."""
        try:
            return self.trial_sets[num_samples]
        except KeyError:
            raise ExperimentConfigurationError(
                f"sample number {num_samples} was not part of this sweep"
            ) from None

    def entropies(self) -> dict[int, float]:
        """Shannon entropy of the seed-set distribution at each sample number."""
        return {
            s: trial_set.seed_set_distribution().entropy()
            for s, trial_set in sorted(self.trial_sets.items())
        }

    def mean_influences(self) -> dict[int, float]:
        """Mean oracle influence at each sample number."""
        return {
            s: trial_set.mean_influence for s, trial_set in sorted(self.trial_sets.items())
        }

    def influence_distributions(self) -> dict[int, InfluenceDistribution]:
        """Full influence-distribution summaries at each sample number."""
        return {
            s: InfluenceDistribution.from_values(trial_set.influences)
            for s, trial_set in sorted(self.trial_sets.items())
        }

    def mean_sample_sizes(self) -> dict[int, float]:
        """Mean stored sample size (vertices + edges) at each sample number."""
        sizes: dict[int, float] = {}
        for s, trial_set in sorted(self.trial_sets.items()):
            cost = trial_set.mean_cost()
            sizes[s] = cost["sample_vertices"] + cost["sample_edges"]
        return sizes

    def final_trial_set(self) -> TrialSet:
        """The trial set at the largest swept sample number."""
        return self.trial_sets[self.sample_numbers[-1]]


def _sample_grid(sample_numbers: Sequence[int]) -> list[int]:
    """The sorted distinct grid; every entry must be a positive integer.

    Python and numpy integers are accepted; ``bool``, ``float`` and ``str``
    entries (and a bare ``str`` in place of the sequence) are rejected
    rather than coerced, so ``[2.5]`` cannot silently run ``2``.
    """
    if isinstance(sample_numbers, str):
        raise InvalidParameterError(
            f"sample_numbers must be a sequence of integers, got {sample_numbers!r}"
        )
    grid = set()
    for s in sample_numbers:
        if isinstance(s, bool) or not isinstance(s, Integral):
            raise InvalidParameterError(
                f"sample numbers must be positive integers, got {s!r}"
            )
        grid.add(require_positive_int(int(s), "sample number"))
    if not grid:
        raise ExperimentConfigurationError("sample_numbers must not be empty")
    return sorted(grid)


def sweep_sample_numbers(
    graph: InfluenceGraph,
    k: int,
    estimator_factory: EstimatorFactory,
    sample_numbers: Sequence[int],
    num_trials: int,
    *,
    oracle: RRPoolOracle,
    experiment_seed: int | None = None,
    approach: str | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    executor: "Executor | None" = None,
    context: RunContext | None = None,
    telemetry=None,
) -> SweepResult:
    """Run ``num_trials`` trials at every sample number in ``sample_numbers``.

    ``model`` validates instance feasibility once up front (the sampling
    itself follows the model bound into ``estimator_factory`` and
    ``oracle``).  ``jobs``/``executor`` parallelise the independent trials
    inside every grid point (see :func:`repro.experiments.trials.run_trials`);
    one worker pool is shared across the whole grid so process start-up is
    paid once.  Results are bit-identical for any worker count.  ``context``
    supplies any of ``experiment_seed``/``jobs``/``executor``/``model``/
    ``telemetry`` left at ``None`` (explicit kwargs win).  ``telemetry``
    records a ``sweep.points`` counter, one aggregated ``sweep.point`` span,
    and everything :func:`run_trials` records per grid point.
    """
    require_positive_int(k, "k")
    require_positive_int(num_trials, "num_trials")
    context = resolve_context(
        context,
        seed=experiment_seed,
        jobs=jobs,
        executor=executor,
        model=model,
        telemetry=telemetry,
    )
    grid = _sample_grid(sample_numbers)

    from ..obs import as_telemetry
    from ..runtime.engine import executor_scope

    tel = as_telemetry(context.telemetry)
    trial_sets: dict[int, TrialSet] = {}
    label = approach
    check_model_consistency(graph, estimator_factory, grid[0], oracle, context.model, "sweep")
    tel.incr("sweep.points", len(grid))
    with executor_scope(context.jobs, context.executor) as shared_executor:
        for index, num_samples in enumerate(grid):
            with tel.span("sweep.point"):
                # repro-lint: allow[CTX001] context was merged by
                # resolve_context above; jobs became the shared executor and
                # model was bound into estimator_factory/oracle up front.
                trial_set = run_trials(
                    graph,
                    k,
                    estimator_factory,
                    num_samples,
                    num_trials,
                    oracle=oracle,
                    # Distinct derived seed per grid point keeps trials
                    # independent across sample numbers while remaining
                    # reproducible.
                    experiment_seed=context.seed * 100_003 + index,
                    approach=approach,
                    executor=shared_executor,
                    telemetry=context.telemetry,
                )
            trial_sets[num_samples] = trial_set
            label = trial_set.approach
    return SweepResult(
        graph_name=graph.name,
        approach=label or "unknown",
        k=k,
        trial_sets=trial_sets,
    )
