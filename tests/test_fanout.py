"""The one thread policy: :func:`repro.fanout.fan_out`.

Results in task order, the earliest failure re-raised after every
thread is joined, no task started after a failure, nested fan-outs run
inline on their worker's thread, and one CPU count read from the
affinity mask.
"""

import os
import threading
import time
from unittest import mock

import pytest

from repro import fanout
from repro.fanout import fan_out, usable_cpus


def cpus(n):
    return mock.patch.object(fanout, "usable_cpus", lambda: n)


def host(mask, cpu_count):
    """A host of ``cpu_count`` CPUs that lets this process use ``mask``
    (a set of CPU ids, or an exception the mask call raises)."""
    getaffinity = mock.Mock(
        side_effect=mask if isinstance(mask, type) else lambda pid: mask
    )
    return mock.patch.multiple(
        os, sched_getaffinity=getaffinity, cpu_count=lambda: cpu_count,
        create=True,
    )


class TestUsableCpus:
    def test_reads_the_affinity_mask(self):
        with host({0, 3}, 16):
            assert usable_cpus() == 2

    def test_falls_back_to_cpu_count(self):
        with host(AttributeError, 6):
            assert usable_cpus() == 6


class TestFanOut:
    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 8])
    def test_results_in_task_order(self, n_cpus):
        def slow_square(x):
            time.sleep(0.001 * (x % 3))  # finish out of order
            return x * x

        with cpus(n_cpus):
            got = fan_out(slow_square, range(25))
        assert got == [x * x for x in range(25)]

    def test_empty_and_single_task(self):
        with cpus(4):
            assert fan_out(lambda x: x + 1, []) == []
            assert fan_out(lambda x: x + 1, [41]) == [42]

    def test_earliest_error_reraised_and_threads_joined(self):
        release = threading.Barrier(3, timeout=10.0)

        def task(i):
            if i < 3:
                release.wait()  # three tasks in flight, one per thread
                raise ValueError(f"task {i}")
            return i

        before = threading.active_count()
        with cpus(3):
            with pytest.raises(ValueError, match="task 0"):
                fan_out(task, range(10))
        assert threading.active_count() == before

    def test_no_task_starts_after_a_failure(self):
        started = []
        second_running = threading.Event()

        def task(i):
            started.append(i)
            if i == 0:
                second_running.wait(timeout=10.0)
                raise RuntimeError("first task failed")
            if i == 1:
                second_running.set()
                time.sleep(0.2)  # outlast the failure of task 0
            return i

        with cpus(2):
            with pytest.raises(RuntimeError, match="first task"):
                fan_out(task, range(20))
        assert sorted(started) == [0, 1]

    def test_caller_interrupt_stops_the_hand_out(self):
        """A ``BaseException`` in the caller's own task (as Ctrl-C
        would raise it) stops the hand-out and joins every thread."""
        caller = threading.get_ident()
        started = []

        def task(i):
            started.append(i)
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.2)  # outlast the caller's failure
            return i

        before = threading.active_count()
        with cpus(2):
            with pytest.raises(KeyboardInterrupt):
                fan_out(task, range(20))
        assert threading.active_count() == before
        assert len(started) <= 3

    def test_nested_call_runs_on_its_workers_thread(self):
        def outer(i):
            me = threading.get_ident()
            inner = fan_out(lambda j: threading.get_ident(), range(6))
            return me, inner

        with cpus(4):
            results = fan_out(outer, range(8))
        for me, inner in results:
            assert inner == [me] * 6

    def test_single_task_leaves_the_caller_unmarked(self):
        """An unsplit range keeps the all-CPU kernel: a fan-out of one
        task does not make the fan-outs inside it inline."""
        meet = threading.Barrier(2, timeout=10.0)

        def inner(j):
            meet.wait()  # only passes when two threads run inner tasks
            return threading.get_ident()

        with cpus(2):
            (idents,) = fan_out(lambda _: fan_out(inner, range(2)), ["one"])
        assert len(set(idents)) == 2

    def test_threads_never_exceed_usable_cpus(self):
        peak = []
        lock = threading.Lock()
        running = [0]

        def leaf(j):
            with lock:
                running[0] += 1
                peak.append(running[0])
            time.sleep(0.001)
            with lock:
                running[0] -= 1

        def outer(i):
            fan_out(leaf, range(8))

        with cpus(3):
            fan_out(outer, range(6))
        assert max(peak) <= 3


class TestThreadLimit:
    def test_caps_every_fan_out(self, monkeypatch):
        monkeypatch.setattr(fanout, "_limit", None)
        with cpus(4):
            assert fanout.thread_budget() == 4
            fanout.limit_threads(2)
            assert fanout.thread_budget() == 2
            idents = fan_out(lambda _: threading.get_ident(), range(40))
            assert 1 <= len(set(idents)) <= 2
            fanout.limit_threads(1)
            assert fan_out(lambda _: threading.get_ident(), range(8)) == (
                [threading.get_ident()] * 8
            )

    def test_never_above_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(fanout, "_limit", 8)
        with cpus(2):
            assert fanout.thread_budget() == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_a_limit_below_one(self, bad, monkeypatch):
        monkeypatch.setattr(fanout, "_limit", None)
        with pytest.raises(ValueError, match=">= 1"):
            fanout.limit_threads(bad)
        assert fanout._limit is None
