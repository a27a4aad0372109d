"""Tests for the Executor implementations and the engine."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.runtime.engine import executor_scope, run_seeded_tasks, run_tasks
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.seeding import child_generator, seed_key


def _square(value: int) -> int:
    """Module-level so it pickles into worker processes."""
    return value * value


def _sum_of_uniform_counts(payload: int, units) -> list[int]:
    """Unit kernel: one integer draw per sample, payload as an offset."""
    return [
        payload + int(generator.integers(1_000_000))
        for generator, n in units
        for _ in range(n)
    ]


def _unit_layout(payload, units) -> list[tuple[int, int]]:
    """Unit kernel reporting each unit's first draw and sample count."""
    return [(int(generator.integers(1_000_000)), n) for generator, n in units]


def _squares(_payload, chunk) -> list[int]:
    """Chunk worker squaring each item; module-level so it pickles."""
    return [value * value for value in chunk]


def _offset_items(payload: int, chunk) -> list[int]:
    """Chunk worker adding the shared payload to each item."""
    return [payload + value for value in chunk]


def _pid_worker(_task: int) -> int:
    return os.getpid()


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_jobs_is_one(self):
        assert SerialExecutor().jobs == 1

    def test_context_manager(self):
        with SerialExecutor() as resolved:
            assert resolved.map(_square, []) == []


class TestParallelExecutor:
    def test_map_preserves_order(self):
        with ParallelExecutor(2) as pool:
            assert pool.map(_square, list(range(10))) == [v * v for v in range(10)]

    def test_runs_in_worker_processes(self):
        with ParallelExecutor(2) as pool:
            pids = pool.map(_pid_worker, [0, 1, 2, 3])
        assert os.getpid() not in pids

    def test_pool_reused_across_maps(self):
        with ParallelExecutor(2) as pool:
            first = set(pool.map(_pid_worker, range(4)))
            second = set(pool.map(_pid_worker, range(4)))
        assert first & second

    def test_invalid_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParallelExecutor(0)

    def test_empty_map_spawns_nothing(self):
        pool = ParallelExecutor(2)
        assert pool.map(_square, []) == []
        assert pool._pool is None  # nothing was started
        pool.close()


class TestExecutorScope:
    def test_default_is_serial(self):
        with executor_scope() as resolved:
            assert isinstance(resolved, SerialExecutor)

    def test_jobs_one_is_serial(self):
        with executor_scope(jobs=1) as resolved:
            assert isinstance(resolved, SerialExecutor)

    def test_jobs_many_is_parallel_and_closed(self):
        with executor_scope(jobs=2) as resolved:
            assert isinstance(resolved, ParallelExecutor)
            resolved.map(_square, [1, 2])
            assert resolved._pool is not None
        assert resolved._pool is None  # closed on scope exit

    def test_explicit_executor_is_caller_owned(self):
        pool = ParallelExecutor(2)
        try:
            with executor_scope(executor=pool) as resolved:
                assert resolved is pool
                resolved.map(_square, [1])
            assert pool._pool is not None  # scope exit must not close it
        finally:
            pool.close()


class TestEngine:
    def test_run_tasks_matches_serial(self):
        tasks = list(range(20))
        chunks = run_tasks(_squares, tasks, jobs=2)
        assert [value for chunk in chunks for value in chunk] == [v * v for v in tasks]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_tasks_invariant_to_chunk_layout(self, jobs):
        items = list(range(7))
        expected = [1000 + value for value in items]
        for num_chunks in (1, 3, len(items)):
            chunks = run_tasks(
                _offset_items, items, payload=1000, jobs=jobs, num_chunks=num_chunks
            )
            assert len(chunks) == num_chunks
            assert [value for chunk in chunks for value in chunk] == expected

    def test_seeded_results_invariant_to_jobs_and_chunking(self):
        def collect(**kwargs):
            chunks = run_seeded_tasks(
                _sum_of_uniform_counts, 23, 99, payload=1000, **kwargs
            )
            return [value for chunk in chunks for value in chunk]

        reference = collect(jobs=1)
        assert collect(jobs=1, num_chunks=7) == reference
        assert collect(jobs=2) == reference
        assert collect(jobs=2, num_chunks=23) == reference

    def test_zero_tasks(self):
        assert run_seeded_tasks(_sum_of_uniform_counts, 0, 1, payload=0, jobs=2) == []

    def test_single_stream_runs_one_unit_in_process(self):
        rng = np.random.default_rng(5)
        chunks = run_seeded_tasks(_unit_layout, 10, rng, lanes=4)
        assert chunks == [[(int(np.random.default_rng(5).integers(1_000_000)), 10)]]

    def test_split_stream_units_follow_lanes(self):
        # Unit i draws from child stream (root, i) and holds min(lanes, rest)
        # samples, whatever the chunk layout.
        expected = [
            (int(child_generator(seed_key(7), index).integers(1_000_000)), n)
            for index, n in enumerate((4, 4, 2))
        ]
        for num_chunks in (1, 2, 3):
            chunks = run_seeded_tasks(
                _unit_layout, 10, 7, lanes=4, jobs=1, num_chunks=num_chunks
            )
            assert [unit for chunk in chunks for unit in chunk] == expected
