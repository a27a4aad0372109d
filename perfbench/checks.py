"""Off-the-clock correctness check of a workload's outcome.

The check owns its ground truth: :class:`SpreadEvaluator` is a plain-numpy
independent-cascade Monte Carlo over the graph's edge arrays, written here
and sharing no code with ``repro.diffusion`` or ``repro.estimation``.  An
outcome is the list of ``(sample_number, seed_set, influence)`` trials a run
reported; :func:`check_outcome` returns the problems it found (empty when the
outcome is correct) and the quality figure the benchmark reports.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

#: z-value of the agreement test: two-sided 99.99%.  At the oracle's own 99%
#: (z = 2.58) a correct run fails for about one seed in a few hundred,
#: because the oracle's radius is barely conservative when a seed set
#: reaches ~40% of the graph; and with inputs fixed by the seed, such a seed
#: then fails on every run.
Z_CHECK = 3.89

#: Cascades per evaluated seed set, how many advance together, and the seed
#: of every evaluation's generator.
NUM_SIMULATIONS = 2048
BATCH = 512
SEED = 20_200_614


class SpreadEvaluator:
    """Expected IC spread of seed sets, by batched Monte Carlo, cached per set.

    ``sources``/``targets``/``probabilities`` are the graph's edge arrays.
    Each evaluation runs :data:`NUM_SIMULATIONS` cascades from a generator
    seeded with :data:`SEED`, so equal seed sets always get equal estimates.
    """

    def __init__(self, num_vertices, sources, targets, probabilities):
        order = np.argsort(sources, kind="stable")
        self._n = int(num_vertices)
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(sources, minlength=self._n)))
        ).astype(np.int64)
        self._targets = np.asarray(targets, dtype=np.int64)[order]
        self._probs = np.asarray(probabilities, dtype=np.float64)[order]
        self._cache: dict[tuple[int, ...], tuple[float, float]] = {}

    @classmethod
    def for_graph(cls, graph):
        """An evaluator over a ``repro`` influence graph's edge arrays."""
        sources, targets, probabilities = graph.edge_arrays()
        return cls(graph.num_vertices, sources, targets, probabilities)

    @property
    def num_vertices(self) -> int:
        return self._n

    def _cascades(self, seeds: np.ndarray, count: int, rng) -> np.ndarray:
        """Spread of ``count`` independent cascades from ``seeds``, as an array.

        The cascades advance together: vertex ``v`` of cascade ``c`` is the
        flat state ``c * n + v``, so each BFS level is one round of array
        operations over every cascade's frontier.
        """
        n = self._n
        active = np.zeros(count * n, dtype=bool)
        frontier = (np.arange(count)[:, None] * n + seeds[None, :]).ravel()
        active[frontier] = True
        while frontier.size:
            cascade, vertex = np.divmod(frontier, n)
            starts = self._indptr[vertex]
            degrees = self._indptr[vertex + 1] - starts
            total = int(degrees.sum())
            if total == 0:
                break
            owner = np.repeat(np.arange(frontier.size), degrees)
            offsets = np.arange(total) - np.repeat(np.cumsum(degrees) - degrees, degrees)
            edges = starts[owner] + offsets
            live = rng.random(total) < self._probs[edges]
            reached = cascade[owner[live]] * n + self._targets[edges[live]]
            reached = np.unique(reached[~active[reached]])
            active[reached] = True
            frontier = reached
        return active.reshape(count, n).sum(axis=1)

    def spread(self, seed_set) -> tuple[float, float]:
        """``(mean spread, standard error)`` of ``seed_set``."""
        key = tuple(sorted(int(v) for v in seed_set))
        if key not in self._cache:
            rng = np.random.default_rng(SEED)
            seeds = np.array(key, dtype=np.int64)
            totals = []
            remaining = NUM_SIMULATIONS
            while remaining:
                count = min(BATCH, remaining)
                totals.append(self._cascades(seeds, count, rng))
                remaining -= count
            values = np.concatenate(totals).astype(np.float64)
            error = float(values.std(ddof=1)) / math.sqrt(values.size)
            self._cache[key] = (float(values.mean()), error)
        return self._cache[key]


def oracle_error(num_vertices: int, pool_size: int) -> float:
    """The oracle's stated standard-error bound, ``n / (2 * sqrt(pool_size))``.

    The program reports 2.58 times this as its 99% radius.
    """
    return num_vertices / (2.0 * math.sqrt(pool_size))


def entropy(seed_sets) -> float:
    """Shannon entropy (bits) of the empirical distribution of seed sets."""
    counts = Counter(tuple(sorted(s)) for s in seed_sets)
    total = sum(counts.values())
    return -sum(c / total * math.log2(c / total) for c in counts.values())


def check_outcome(trials, *, evaluator: SpreadEvaluator, k: int, pool_size: int,
                  sweep: bool) -> tuple[list[str], float]:
    """Check one run's ``trials`` and return ``(problems, quality)``.

    * every seed set has ``k`` distinct seeds, all in range;
    * every distinct seed set's reported influence agrees with the
      evaluator's spread within the sum of the two radii, both taken at
      :data:`Z_CHECK`;
    * for a sweep, the seed-set entropy at the largest sample number is
      below that at the smallest (the paper's first finding).

    ``quality`` is the evaluator's mean spread over the trials at the
    largest sample number.
    """
    problems: list[str] = []
    n = evaluator.num_vertices
    if not trials:
        return ["the run reported no trials"], 0.0
    reported: dict[tuple[int, ...], set[float]] = {}
    for theta, seed_set, influence in trials:
        if len(seed_set) != k or len(set(seed_set)) != k:
            problems.append(f"theta={theta}: {seed_set} is not {k} distinct seeds")
        elif not all(0 <= v < n for v in seed_set):
            problems.append(f"theta={theta}: {seed_set} has a seed outside [0, {n})")
        else:
            reported.setdefault(tuple(sorted(seed_set)), set()).add(float(influence))
    if problems:
        return problems, 0.0
    slack = Z_CHECK * oracle_error(n, pool_size)
    for seed_set, influences in sorted(reported.items()):
        if len(influences) != 1:
            problems.append(f"{seed_set} was scored differently: {sorted(influences)}")
            continue
        influence = next(iter(influences))
        mean, error = evaluator.spread(seed_set)
        radius = Z_CHECK * error
        if abs(mean - influence) > slack + radius:
            problems.append(
                f"{seed_set}: reported influence {influence:.3f} but the "
                f"evaluator measures {mean:.3f} +- {radius:.3f} (oracle +- {slack:.3f})"
            )
    thetas = sorted({theta for theta, _, _ in trials})
    if sweep:
        low = entropy(s for t, s, _ in trials if t == thetas[0])
        high = entropy(s for t, s, _ in trials if t == thetas[-1])
        if not high < low:
            problems.append(
                f"seed-set entropy did not fall: {low:.3f} bits at theta={thetas[0]}, "
                f"{high:.3f} bits at theta={thetas[-1]}"
            )
    final = [s for t, s, _ in trials if t == thetas[-1]]
    quality = float(np.mean([evaluator.spread(s)[0] for s in final]))
    return problems, quality
