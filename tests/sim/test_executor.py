"""Execution-layer tests: serial/process backends, selection policy,
pool lifecycle, and failure semantics."""

import os
from unittest import mock

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.fanout import thread_budget, usable_cpus
from repro.sim import (
    DistributedExecutor,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    make_executor,
)


def square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def pid_of(_):
    return os.getpid()


def raise_value_error(x):
    raise ValueError(f"worker rejected {x}")


def die_abruptly(_):
    os._exit(13)  # simulates a worker killed mid-task (OOM, SIGKILL)


def fan_out_budget(_):
    return thread_budget()


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialExecutor().map(square, []) == []

    def test_runs_in_calling_process(self):
        assert SerialExecutor().map(pid_of, [None]) == [os.getpid()]

    def test_is_executor(self):
        assert isinstance(SerialExecutor(), Executor)


class TestProcessExecutor:
    def test_maps_in_order(self):
        assert ProcessExecutor(max_workers=2).map(square, [4, 2, 3]) == [
            16,
            4,
            9,
        ]

    def test_chunksize_path(self):
        got = ProcessExecutor(max_workers=2).map(
            square, list(range(10)), chunksize=3
        )
        assert got == [x * x for x in range(10)]

    def test_single_task_crosses_process_boundary(self):
        # regression (ISSUE 6): the old in-calling-process fast path let
        # per-host worker state (resolve_backend("auto") probe caches)
        # land in the *parent*, diverging from the pooled path — every
        # ProcessExecutor task now runs in a worker process
        with ProcessExecutor(max_workers=4) as ex:
            assert ex.map(pid_of, [None]) != [os.getpid()]

    def test_single_worker_crosses_process_boundary(self):
        with ProcessExecutor(max_workers=1) as ex:
            pids = ex.map(pid_of, [1, 2])
        assert all(p != os.getpid() for p in pids)

    def test_multi_task_crosses_process_boundary(self):
        with ProcessExecutor(max_workers=2) as ex:
            pids = ex.map(pid_of, [1, 2, 3])
        assert all(p != os.getpid() for p in pids)

    def test_empty_tasks(self):
        ex = ProcessExecutor(max_workers=2)
        assert ex.map(square, []) == []
        # an empty map never spawns the pool
        assert ex._pool is None

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_validation(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=workers)

    @pytest.mark.parametrize("workers", [2.7, 0.5, "three"])
    def test_rejects_non_integral_workers(self, workers):
        # regression (ISSUE 6): max_workers=2.7 used to truncate to 2
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=workers)

    def test_accepts_integral_float(self):
        assert ProcessExecutor(max_workers=2.0).max_workers == 2

    def test_workers_share_the_cpus(self):
        """Each pool worker's fan-outs get its share of the CPUs, so two
        workers on two CPUs run one thread each, not two."""
        with ProcessExecutor(max_workers=2) as ex:
            got = ex.map(fan_out_budget, range(4))
        assert got == [max(1, usable_cpus() // 2)] * 4

    def test_default_worker_count(self):
        assert ProcessExecutor().max_workers == default_workers()


class TestProcessExecutorLifecycle:
    """Pool reuse and the explicit close()/context-manager lifecycle."""

    def test_pool_reused_across_maps(self):
        # regression (ISSUE 6): every map used to spawn (and tear down)
        # a fresh ProcessPoolExecutor — repeated maps must reuse workers
        with ProcessExecutor(max_workers=2) as ex:
            first = set(ex.map(pid_of, [1, 2, 3, 4]))
            pool = ex._pool
            second = set(ex.map(pid_of, [1, 2, 3, 4]))
            assert ex._pool is pool
            assert first & second  # at least one worker served both maps

    def test_close_is_idempotent_and_reusable(self):
        ex = ProcessExecutor(max_workers=2)
        assert ex.map(square, [1, 2]) == [1, 4]
        ex.close()
        assert ex._pool is None
        ex.close()  # idempotent
        # a closed executor transparently respawns its pool
        assert ex.map(square, [3]) == [9]
        ex.close()

    def test_context_manager_closes(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(square, [1, 2])
            assert ex._pool is not None
        assert ex._pool is None


class TestProcessExecutorFailures:
    """Failure semantics: application errors vs dead workers."""

    def test_worker_exception_propagates(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ValueError, match="worker rejected 7"):
                ex.map(raise_value_error, [7, 8, 9])

    def test_pool_survives_worker_exception(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ValueError):
                ex.map(raise_value_error, [1, 2])
            assert ex.map(square, [5, 6]) == [25, 36]

    def test_worker_death_raises_broken_pool(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(die_abruptly, [1, 2, 3])

    def test_executor_recovers_after_broken_pool(self):
        # the broken pool is discarded, so the next map starts fresh
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(die_abruptly, [1, 2, 3])
            assert ex._pool is None
            assert ex.map(square, [2, 3]) == [4, 9]


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_one_task_is_serial(self):
        assert isinstance(make_executor(8, n_tasks=1), SerialExecutor)

    def test_many_is_process(self):
        ex = make_executor(3, n_tasks=5)
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 3

    def test_workers_capped_at_task_count(self):
        ex = make_executor(8, n_tasks=3)
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 3

    def test_default_follows_default_workers(self):
        ex = make_executor(n_tasks=10)
        if default_workers() == 1:
            assert isinstance(ex, SerialExecutor)
        else:
            assert isinstance(ex, ProcessExecutor)
            assert ex.max_workers == default_workers()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_validation(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            make_executor(workers)

    @pytest.mark.parametrize("workers", [2.7, 1.5])
    def test_rejects_non_integral_workers(self, workers):
        # regression (ISSUE 6): make_executor(2.7) used to run 2 workers
        with pytest.raises(ValueError, match="max_workers"):
            make_executor(workers)

    def test_hosts_selects_distributed(self):
        ex = make_executor(hosts=["127.0.0.1:9999", "127.0.0.1:9998"])
        assert isinstance(ex, DistributedExecutor)
        assert ex.addresses == (("127.0.0.1", 9999), ("127.0.0.1", 9998))

    def test_hosts_and_workers_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            make_executor(2, hosts=["127.0.0.1:9999"])

    def test_empty_hosts_falls_back_to_local_policy(self):
        assert isinstance(make_executor(1, hosts=[]), SerialExecutor)


class TestDefaultWorkers:
    def test_at_least_one(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize(
        "mask, want", [({0, 1}, 1), ({3}, 1), (set(range(6)), 5)]
    )
    def test_follows_the_affinity_mask(self, mask, want):
        """A 16-CPU host that lets this process use a few of them: the
        pool is sized by the usable CPUs, not the host's count."""
        with mock.patch.multiple(
            os,
            sched_getaffinity=lambda pid: mask,
            cpu_count=lambda: 16,
            create=True,
        ):
            assert default_workers() == want
