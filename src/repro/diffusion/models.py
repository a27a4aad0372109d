"""Pluggable diffusion models: one protocol for IC, LT, and future models.

The paper studies Oneshot, Snapshot, and RIS under the independent cascade
(IC) model, but all three approaches rest only on the *live-edge*
interpretation of diffusion: a random subgraph is drawn by keeping edges
according to some per-model rule, and the spread of ``S`` is the expected
number of vertices reachable from ``S``.  The linear threshold (LT) model
shares that interpretation (each vertex keeps at most one in-edge), so every
estimator in :mod:`repro.algorithms` applies to it unchanged — provided the
model-specific sampling primitives are swappable.

:class:`DiffusionModel` bundles the four primitives a model must provide:

* **forward cascade** — one simulation of the diffusion process,
* **live-edge snapshot sampling** — one random subgraph ``G ~ G``,
* **RR-set sampling** — the vertices reaching a random target in ``G ~ G``,
* **exact spread** — ground-truth ``Inf(S)`` for tiny graphs.

All primitives return the *shared* result types (:class:`CascadeResult`,
:class:`Snapshot`, :class:`RRSet`), so downstream consumers — reachability,
``RRSetCollection``, the estimators, the oracle — are model-agnostic.  Every
plural sampler makes one call to
:func:`repro.runtime.engine.run_seeded_tasks` with a module-level unit
kernel below; the engine alone decides between the single-stream and the
split-stream seeding contract and between one-sample and 64-lane units.

Models are stateless singletons registered by name (``"ic"``, ``"lt"``);
:func:`register_model` admits third-party models, and :func:`resolve_model`
is the ``model=`` parameter normaliser used across the codebase (``None``
means IC, preserving historical behaviour exactly).  See ``docs/DESIGN.md``
for the architectural rationale.
"""

from __future__ import annotations

import abc
from functools import partial

import numpy as np

from .._validation import require_positive_int
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from . import bitparallel as _bp
from . import cascade as _ic_cascade
from . import exact as _ic_exact
from . import linear_threshold as _lt
from . import reverse as _ic_reverse
from . import snapshots as _ic_snapshots
from .cascade import CascadeResult
from .costs import SampleSize, TraversalCost
from .random_source import RandomSource
from .reverse import RRSet
from .snapshots import Snapshot


class DiffusionModel(abc.ABC):
    """Abstract diffusion model: the four live-edge primitives behind one name.

    Implementations must be stateless (all randomness comes from the ``rng``
    arguments) and picklable, because model instances are shipped to worker
    processes by the parallel runtime and bound into estimator factories.
    """

    #: Registry name ("ic", "lt", ...); also used in reports and CLI flags.
    name: str = "abstract"

    def validate(self, graph: InfluenceGraph) -> None:
        """Raise unless ``graph`` is a feasible instance for this model.

        The default accepts every influence graph; LT overrides this with the
        incoming-weight feasibility check.  Estimators and the oracle call it
        in Build so infeasible instances fail fast with a clear error.
        """

    # ------------------------------------------------------------------ #
    # the four primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def simulate_cascade(
        self,
        graph: InfluenceGraph,
        seeds,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
    ) -> CascadeResult:
        """Run one forward diffusion simulation from ``seeds``."""

    @abc.abstractmethod
    def sample_snapshot(
        self,
        graph: InfluenceGraph,
        rng: RandomSource | np.random.Generator,
        *,
        sample_size: SampleSize | None = None,
    ) -> Snapshot:
        """Draw one live-edge random graph in the shared CSR representation."""

    @abc.abstractmethod
    def sample_rr_set(
        self,
        graph: InfluenceGraph,
        rng: RandomSource | np.random.Generator,
        *,
        target: int | None = None,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
    ) -> RRSet:
        """Generate one reverse-reachable set under this model's live edges."""

    @abc.abstractmethod
    def exact_spread(self, graph: InfluenceGraph, seeds) -> float:
        """Exact ``Inf(seeds)`` by enumerating live-edge realizations (tiny graphs)."""

    # ------------------------------------------------------------------ #
    # bit-parallel live-word hooks (optional capability)
    # ------------------------------------------------------------------ #
    def forward_live_words(
        self, graph: InfluenceGraph, num_lanes: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Sample ``num_lanes`` live-edge worlds in **forward-CSR** edge order.

        One ``uint64`` word per edge of ``graph.out_csr`` (bit ``w`` = live in
        world ``w``), consumed by the bit-parallel forward-cascade kernel.
        Models that cannot express their diffusion as per-world live edges
        keep the default, which rejects ``batch_mode="bitparallel"``.
        """
        raise InvalidParameterError(
            f"diffusion model {self.name!r} does not support batch_mode='bitparallel'"
        )

    def reverse_live_words(
        self, graph: InfluenceGraph, num_lanes: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Sample ``num_lanes`` live-edge worlds in **reverse-CSR** edge order.

        One ``uint64`` word per edge of ``graph.in_csr``, consumed by the
        bit-parallel RR-set kernel.  Same capability contract as
        :meth:`forward_live_words`.
        """
        raise InvalidParameterError(
            f"diffusion model {self.name!r} does not support batch_mode='bitparallel'"
        )

    # ------------------------------------------------------------------ #
    # scalar batch hooks: ``n`` samples from each ``(generator, n)`` unit
    # ------------------------------------------------------------------ #
    def simulate_cascade_units(
        self, graph: InfluenceGraph, seeds, units, *, cost: TraversalCost | None = None
    ) -> list[CascadeResult]:
        """Scalar forward cascades, ``n`` drawn in order from each unit's generator.

        The unit kernels call this hook; models with a scratch-reusing batch
        kernel (IC) override it without changing a single draw.
        """
        return [
            self.simulate_cascade(graph, seeds, generator, cost=cost)
            for generator, n in units
            for _ in range(n)
        ]

    def sample_rr_set_units(
        self,
        graph: InfluenceGraph,
        units,
        *,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
    ) -> list[RRSet]:
        """Scalar RR sets, ``n`` drawn in order from each unit's generator.

        Same hook contract as :meth:`simulate_cascade_units`.
        """
        return [
            self.sample_rr_set(graph, generator, cost=cost, sample_size=sample_size)
            for generator, n in units
            for _ in range(n)
        ]

    # ------------------------------------------------------------------ #
    # plural samplers: one seeded dispatch each
    # ------------------------------------------------------------------ #
    def simulate_cascades(
        self,
        graph: InfluenceGraph,
        seeds,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        batch_mode: str | None = None,
    ) -> list[CascadeResult]:
        """Run ``count`` forward cascades, all drawn sequentially from ``rng``.

        Byte-identical to ``count`` :meth:`simulate_cascade` calls on the
        same stream.  ``batch_mode="bitparallel"`` opts into the
        64-worlds-per-word kernel: same cascade distribution and costs,
        different draw-order contract (see :mod:`repro.diffusion.bitparallel`),
        results listing activated vertices in ascending id rather than
        activation order.
        """
        chunks = _seeded(_cascade_units, count, rng, (self, graph, seeds), batch_mode)
        return _gather(chunks, cost=cost)

    def simulate_spread(
        self,
        graph: InfluenceGraph,
        seeds,
        num_simulations: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        batch_mode: str | None = None,
    ) -> float:
        """Average activated count over ``num_simulations`` forward cascades.

        With ``batch_mode="bitparallel"`` the per-world activation counts
        come straight from the mask kernel's popcounts — no per-cascade
        result objects are materialised.
        """
        total, _ = self.spread_moments(
            graph, seeds, num_simulations, rng, cost=cost, batch_mode=batch_mode
        )
        return total / num_simulations

    def spread_moments(
        self,
        graph: InfluenceGraph,
        seeds,
        count: int,
        rng,
        *,
        cost: TraversalCost | None = None,
        jobs: int | None = None,
        executor: "Executor | None" = None,
        telemetry=None,
        batch_mode: str | None = None,
    ) -> tuple[int, int]:
        """Integer sum and sum of squares of ``count`` cascades' activated counts.

        The exact reduction behind :meth:`simulate_spread` and
        :func:`repro.estimation.monte_carlo.monte_carlo_spread`: chunks
        return integer totals, so the result is independent of the chunk
        layout under ``jobs``/``executor``.
        """
        total = total_squared = 0
        for chunk_total, chunk_squared, chunk_cost in _seeded(
            _spread_units,
            count,
            rng,
            (self, graph, seeds),
            batch_mode,
            jobs=jobs,
            executor=executor,
            telemetry=telemetry,
        ):
            total += chunk_total
            total_squared += chunk_squared
            if cost is not None:
                cost.merge(chunk_cost)
        return total, total_squared

    def sample_snapshots(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        executor: "Executor | None" = None,
        telemetry=None,
    ) -> list[Snapshot]:
        """Draw ``count`` independent snapshots.

        The default is the historical sequential single-stream draw, while
        ``jobs``/``executor`` opts into the runtime's split-stream seeding
        (snapshot ``i`` from a child stream of ``(rng, i)``; bit-identical
        for any worker count).  ``telemetry`` (optional) records a
        ``snapshot.samples`` counter and the runtime dispatch metrics.
        """
        if telemetry is not None and telemetry.enabled:
            telemetry.incr("snapshot.samples", count)
        chunks = _seeded(
            _snapshot_units,
            count,
            rng,
            (self, graph),
            jobs=jobs,
            executor=executor,
            telemetry=telemetry,
        )
        return _gather(chunks, sample_size=sample_size)

    def sample_rr_sets(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        executor: "Executor | None" = None,
        telemetry=None,
        batch_mode: str | None = None,
    ) -> list[RRSet]:
        """Generate ``count`` independent RR sets.

        Sequential single stream by default, split-stream with
        ``jobs``/``executor`` (set ``i`` from a child stream of ``(rng, i)``);
        cost accumulators are merged in chunk order, keeping totals exact.
        ``telemetry`` (optional) records an ``rr.sets`` counter and the
        runtime dispatch metrics.

        ``batch_mode="bitparallel"`` generates the sets 64 worlds per word
        (own draw-order contract, see :mod:`repro.diffusion.bitparallel`);
        under ``jobs``/``executor`` the seeding unit becomes the **word** —
        word ``i`` draws from the child stream of ``(rng, i)`` — so any
        worker count is bit-identical.
        """
        if telemetry is not None and telemetry.enabled:
            telemetry.incr("rr.sets", count)
        chunks = _seeded(
            _rr_set_units,
            count,
            rng,
            (self, graph),
            batch_mode,
            jobs=jobs,
            executor=executor,
            telemetry=telemetry,
        )
        return _gather(chunks, cost=cost, sample_size=sample_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------------- #
# the one seeded dispatch and its unit kernels
# --------------------------------------------------------------------------- #
def _seeded(
    kernel,
    count: int,
    rng,
    payload: tuple,
    batch_mode: str | None = None,
    *,
    jobs: int | None = None,
    executor: "Executor | None" = None,
    telemetry=None,
) -> list:
    """Run ``kernel`` over ``count`` samples through the runtime engine.

    The kernel receives ``payload + (bitparallel,)``; the engine's unit is
    one sample for scalar kernels and one 64-lane word for bit-parallel ones.
    """
    from ..runtime.engine import run_seeded_tasks

    require_positive_int(count, "count")
    bitparallel = _bp.resolve_batch_mode(batch_mode) == _bp.BITPARALLEL
    return run_seeded_tasks(
        kernel,
        count,
        rng,
        lanes=_bp.LANES_PER_WORD if bitparallel else 1,
        jobs=jobs,
        executor=executor,
        payload=payload + (bitparallel,),
        telemetry=telemetry,
    )


def _gather(chunks, *, cost=None, sample_size=None) -> list:
    """Concatenate ``(items, cost, size)`` chunk results in chunk order."""
    items: list = []
    for chunk_items, chunk_cost, chunk_size in chunks:
        items.extend(chunk_items)
        if cost is not None:
            cost.merge(chunk_cost)
        if sample_size is not None:
            sample_size.merge(chunk_size)
    return items


def _cascade_units(payload, units) -> tuple[list[CascadeResult], TraversalCost, None]:
    """Forward-cascade unit kernel (module-level so it pickles)."""
    model, graph, seeds, bitparallel = payload
    cost = TraversalCost()
    if bitparallel:
        live_words = partial(model.forward_live_words, graph)
        results = [
            result
            for generator, n in units
            for result in _bp.batched_cascade_results(
                graph, seeds, n, generator, live_words, cost=cost
            )
        ]
    else:
        results = model.simulate_cascade_units(graph, seeds, units, cost=cost)
    return results, cost, None


def _spread_units(payload, units) -> tuple[int, int, TraversalCost]:
    """Activated-count ``(sum, sum of squares, cost)`` unit kernel."""
    model, graph, seeds, bitparallel = payload
    cost = TraversalCost()
    if bitparallel:
        live_words = partial(model.forward_live_words, graph)
        counts = np.concatenate(
            [
                _bp.batched_cascade_counts(graph, seeds, n, generator, live_words, cost=cost)
                for generator, n in units
            ]
        )
    else:
        counts = np.array(
            [
                result.num_activated
                for result in model.simulate_cascade_units(graph, seeds, units, cost=cost)
            ],
            dtype=np.int64,
        )
    return int(counts.sum()), int((counts * counts).sum()), cost


def _snapshot_units(payload, units) -> tuple[list[Snapshot], None, SampleSize]:
    """Live-edge snapshot unit kernel (snapshots have no bit-parallel form)."""
    model, graph, _ = payload
    size = SampleSize()
    snapshots = [
        model.sample_snapshot(graph, generator, sample_size=size)
        for generator, n in units
        for _ in range(n)
    ]
    return snapshots, None, size


def _rr_set_units(payload, units) -> tuple[list[RRSet], TraversalCost, SampleSize]:
    """RR-set unit kernel."""
    model, graph, bitparallel = payload
    cost, size = TraversalCost(), SampleSize()
    if bitparallel:
        live_words = partial(model.reverse_live_words, graph)
        rr_sets = [
            rr_set
            for generator, n in units
            for rr_set in _bp.batched_rr_sets(
                graph, n, generator, live_words, cost=cost, sample_size=size
            )
        ]
    else:
        rr_sets = model.sample_rr_set_units(graph, units, cost=cost, sample_size=size)
    return rr_sets, cost, size


class IndependentCascade(DiffusionModel):
    """The paper's independent cascade model (Section 2.2).

    A pure delegation wrapper over the historical IC primitives; every draw
    consumes the random stream exactly as the wrapped function does, so going
    through the model layer is byte-identical to calling the primitives
    directly.
    """

    name = "ic"

    def simulate_cascade(self, graph, seeds, rng, *, cost=None):
        return _ic_cascade.simulate_cascade(graph, seeds, rng, cost=cost)

    def simulate_cascade_units(self, graph, seeds, units, *, cost=None):
        # Batched kernel: identical draws, amortized per-call overhead (one
        # seed normalization, one CSR unpack, reused scratch buffers).
        return _ic_cascade._simulate_cascade_units(graph, seeds, units, cost=cost)

    def forward_live_words(self, graph, num_lanes, generator):
        # IC live edges are independent Bernoulli flips, so one batched draw
        # over the forward-CSR probability array is the whole sampler.
        return _bp.ic_live_words(graph.out_csr[2], num_lanes, generator)

    def reverse_live_words(self, graph, num_lanes, generator):
        return _bp.ic_live_words(graph.in_csr[2], num_lanes, generator)

    def sample_snapshot(self, graph, rng, *, sample_size=None):
        return _ic_snapshots.sample_snapshot(graph, rng, sample_size=sample_size)

    def sample_rr_set(self, graph, rng, *, target=None, cost=None, sample_size=None):
        return _ic_reverse.sample_rr_set(
            graph, rng, target=target, cost=cost, sample_size=sample_size
        )

    def sample_rr_set_units(self, graph, units, *, cost=None, sample_size=None):
        # Batched kernel: identical draws, with buffer reuse across the batch.
        return _ic_reverse._sample_rr_set_units(
            graph, units, cost=cost, sample_size=sample_size
        )

    def exact_spread(self, graph, seeds):
        return _ic_exact.exact_spread(graph, seeds)


class LinearThreshold(DiffusionModel):
    """The linear threshold model of Granovetter / Kempe et al. (2003).

    Snapshots are sampled with the LT live-edge rule (each vertex keeps at
    most one in-edge) and converted to the shared CSR :class:`Snapshot`
    representation, so snapshot reachability, blocked-vertex reduction, and
    the Snapshot estimator work unchanged.  RR sets are reverse random walks
    returning the shared :class:`RRSet` type.
    """

    name = "lt"

    def validate(self, graph):
        _lt.validate_lt_weights(graph)

    def simulate_cascade(self, graph, seeds, rng, *, cost=None):
        return _lt.simulate_lt_cascade(graph, seeds, rng, cost=cost)

    def forward_live_words(self, graph, num_lanes, generator):
        # LT live edges come from one threshold draw per (vertex, world):
        # each vertex keeps at most one in-edge, selected by where its draw
        # lands among the incoming-weight intervals.
        return _bp.lt_live_words(graph, num_lanes, generator)

    def reverse_live_words(self, graph, num_lanes, generator):
        return _bp.lt_live_words(graph, num_lanes, generator, reverse=True)

    def sample_snapshot(self, graph, rng, *, sample_size=None):
        return _lt.sample_lt_snapshot(graph, rng, sample_size=sample_size).to_snapshot()

    def sample_rr_set(self, graph, rng, *, target=None, cost=None, sample_size=None):
        return _lt.sample_lt_rr_set(
            graph, rng, target=target, cost=cost, sample_size=sample_size
        )

    def exact_spread(self, graph, seeds):
        return _lt.exact_lt_spread(graph, seeds)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, DiffusionModel] = {}

#: Names whose registrations may never be replaced: the module-level
#: singletons below are aliased throughout the codebase (``resolve_model``'s
#: default, the IC shorthands in ``reverse``/``snapshots``), so replacing the
#: registry entry would make ``model="ic"`` and ``model=None`` resolve to
#: different models.
_BUILTIN_NAMES: frozenset[str] = frozenset({"ic", "lt"})


def register_model(model: DiffusionModel, *, overwrite: bool = False) -> DiffusionModel:
    """Register ``model`` under its ``name`` and return it.

    Third-party models plug in here: subclass :class:`DiffusionModel`,
    implement the four primitives, and register an instance — every estimator,
    experiment, and CLI subcommand can then select it by name.  ``overwrite``
    permits re-registering a third-party name (e.g. during development); the
    built-in ``ic``/``lt`` entries can never be replaced.
    """
    if not isinstance(model, DiffusionModel):
        raise InvalidParameterError(
            f"register_model expects a DiffusionModel instance, got {type(model).__name__}"
        )
    if not model.name or model.name == DiffusionModel.name:
        raise InvalidParameterError("diffusion models must define a non-default name")
    if model.name in _REGISTRY:
        if model.name in _BUILTIN_NAMES:
            raise InvalidParameterError(
                f"the built-in diffusion model {model.name!r} cannot be replaced"
            )
        if not overwrite:
            raise InvalidParameterError(
                f"diffusion model {model.name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
    _REGISTRY[model.name] = model
    return model


def available_models() -> tuple[str, ...]:
    """Registered diffusion-model names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> DiffusionModel:
    """Look up a registered diffusion model by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown diffusion model {name!r}; available: {', '.join(available_models())}"
        ) from None


def resolve_model(model: "str | DiffusionModel | None") -> DiffusionModel:
    """Normalise a ``model=`` argument: name, instance, or ``None`` (= IC).

    ``None`` resolves to the independent cascade model, so every ``model=``
    parameter added across the codebase defaults to the paper's setting and
    preserves historical behaviour exactly.
    """
    if model is None:
        return INDEPENDENT_CASCADE
    if isinstance(model, DiffusionModel):
        return model
    if isinstance(model, str):
        return get_model(model)
    raise InvalidParameterError(
        f"model must be a name, a DiffusionModel, or None, got {type(model).__name__}"
    )


#: The registered singletons (also the ``resolve_model`` defaults).
INDEPENDENT_CASCADE = register_model(IndependentCascade())
LINEAR_THRESHOLD = register_model(LinearThreshold())
