"""Tests of the benchmark's own correctness check and workload specs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repro  # noqa: E402
from checks import Z_CHECK, SpreadEvaluator, check_outcome, entropy, oracle_error  # noqa: E402
from repro.api.specs import spec_from_dict  # noqa: E402
from workloads import WORKLOADS, spec_document  # noqa: E402

KARATE = {
    "kind": "maximize",
    "graph": {"dataset": "karate", "probability": "uc0.1"},
    "estimator": {"approach": "ris", "num_samples": 1024},
    "k": 3,
    "pool_size": 20_000,
    "context": {"seed": 0},
}


@pytest.fixture(scope="module")
def karate():
    spec = spec_from_dict(KARATE)
    result = repro.run(spec)
    evaluator = SpreadEvaluator.for_graph(spec.graph.resolve())
    trials = [(1024, list(result.greedy.seed_set), result.influence.value)]
    return evaluator, trials


def _check(evaluator, trials, *, k=3, sweep=False):
    return check_outcome(trials, evaluator=evaluator, k=k, pool_size=20_000, sweep=sweep)


def test_evaluator_matches_exact_spread_on_a_path():
    # 0 -> 1 -> 2 with p = 1/2: Inf({0}) = 1 + 1/2 + 1/4.
    evaluator = SpreadEvaluator(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
    mean, error = evaluator.spread([0])
    assert abs(mean - 1.75) <= Z_CHECK * error
    assert evaluator.spread([1, 2]) == (2.0, 0.0)


def test_a_correct_run_passes(karate):
    evaluator, trials = karate
    problems, quality = _check(evaluator, trials)
    assert problems == []
    assert quality == evaluator.spread(trials[0][1])[0]


def test_a_wrong_seed_set_fails(karate):
    evaluator, trials = karate
    (theta, seed_set, influence), = trials
    # The three least influential vertices, reported with the real score.
    spreads = {v: evaluator.spread([v])[0] for v in range(34)}
    weakest = sorted(spreads, key=spreads.get)[:3]
    assert set(weakest).isdisjoint(seed_set)
    problems, _ = _check(evaluator, [(theta, weakest, influence)])
    assert len(problems) == 1 and "evaluator measures" in problems[0]


@pytest.mark.parametrize("offset, passes", [(0.99, True), (1.01, False)])
def test_agreement_tolerance_is_the_sum_of_both_radii(karate, offset, passes):
    evaluator, trials = karate
    (theta, seed_set, _), = trials
    mean, error = evaluator.spread(seed_set)
    tolerance = Z_CHECK * (oracle_error(34, 20_000) + error)
    problems, _ = _check(evaluator, [(theta, seed_set, mean + offset * tolerance)])
    assert (problems == []) is passes


@pytest.mark.parametrize("seed_set", [[0, 0, 33], [0, 33], [0, 33, 34], [-1, 0, 33]])
def test_malformed_seed_sets_fail(karate, seed_set):
    evaluator, trials = karate
    problems, _ = _check(evaluator, [(1024, seed_set, trials[0][2])])
    assert problems


def test_an_inconsistent_score_fails(karate):
    evaluator, trials = karate
    (theta, seed_set, influence), = trials
    problems, _ = _check(evaluator, trials + [(theta, seed_set, influence + 1e-9)])
    assert any("scored differently" in p for p in problems)


def test_a_sweep_whose_entropy_does_not_fall_fails(karate):
    evaluator, _ = karate
    score = {v: evaluator.spread([v])[0] for v in (0, 33)}
    flat = [(theta, [v], score[v]) for theta in (4, 4096) for v in (0, 33)]
    problems, _ = _check(evaluator, flat, k=1, sweep=True)
    assert any("entropy did not fall" in p for p in problems)
    falling = [(4, [0], score[0]), (4, [33], score[33]), (4096, [33], score[33])]
    assert _check(evaluator, falling, k=1, sweep=True)[0] == []


def test_entropy():
    assert entropy([(1,), (1,)]) == 0.0
    assert entropy([(1,), (2,)]) == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_specs_load_and_follow_the_seed(name):
    first, second = spec_from_dict(spec_document(name, 1)), spec_from_dict(spec_document(name, 2))
    assert first.context.seed == 1 and second.context.seed == 2
    assert first.context.jobs in (None, 2)
