"""The program's one thread policy: fan independent tasks out over CPUs.

NumPy releases the GIL inside its loops, so independent array work runs
on several CPUs at once when it is spread over threads.  Every place
that does so goes through :func:`fan_out`:

* :meth:`repro.sim.population.PopulationSpec.run_metrics` runs a large
  fleet range as contiguous UE blocks, one per thread of the budget;
* the default ``numpy`` pathloss kernel
  (:func:`repro.radio.backends.optimized_numpy_kernel`) runs its point
  blocks.

A fan-out inside a fan-out runs inline on its worker's thread, so a
process never runs more fan-out threads than its budget
(:func:`thread_budget`): the CPUs in its affinity mask
(:func:`usable_cpus`), so ``taskset -c 0 <command>`` runs every fan-out
on one thread, or its share of them in a process-pool worker
(:func:`limit_threads`).  Kernels that run a thread pool of their own
(numba, jax) are not entered from several fan-out threads at once; a
fleet range on one of them runs as one block.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Optional, TypeVar

__all__ = ["usable_cpus", "thread_budget", "limit_threads", "fan_out"]

T = TypeVar("T")
R = TypeVar("R")

#: ``active`` is set on every thread of a fan-out running on two or
#: more threads; fan-outs started there run inline.
_fanning = threading.local()

#: the most threads one fan-out of this process may use, ``None`` for
#: every usable CPU (see :func:`limit_threads`)
_limit: Optional[int] = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity on this OS
        return os.cpu_count() or 1


def thread_budget() -> int:
    """Threads one fan-out of this process may use: :func:`usable_cpus`,
    capped by :func:`limit_threads`."""
    cpus = usable_cpus()
    return cpus if _limit is None else min(cpus, _limit)


def limit_threads(n: int) -> None:
    """Cap every fan-out of this process at ``n`` threads.
    :class:`~repro.sim.executor.ProcessExecutor` gives each pool worker
    ``usable_cpus() // workers`` of them (at least one), so the pool's
    processes share the CPUs instead of each fanning out over all of
    them."""
    global _limit
    if n < 1:
        raise ValueError(f"a thread limit must be >= 1, got {n!r}")
    _limit = n


def fan_out(fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
    """``[fn(task) for task in tasks]`` on ``min(thread_budget(),
    len(tasks))`` threads, the caller included.

    Tasks are handed out in order from one shared iterator, and results
    come back in task order.  When a task raises, no further task
    starts; a ``BaseException`` in the caller (Ctrl-C) does the same.
    Every thread is joined before the call returns or raises, and a
    failure re-raises the exception of the earliest failed task.

    While a fan-out spreads over two or more threads, each of them runs
    nested fan-outs inline.  A fan-out that gets one thread runs its
    tasks on the caller and leaves it unmarked, so a fan-out nested in
    it may still spread.
    """
    tasks = list(tasks)
    n_threads = min(thread_budget(), len(tasks))
    if n_threads <= 1 or getattr(_fanning, "active", False):
        return [fn(task) for task in tasks]
    results: list = [None] * len(tasks)
    failed: dict[int, BaseException] = {}
    order = iter(range(len(tasks)))
    lock = threading.Lock()
    stopped = False

    def stop(i=None, exc=None) -> None:
        nonlocal stopped
        with lock:
            stopped = True
            if exc is not None:
                failed[i] = exc

    def take():
        with lock:
            return None if stopped else next(order, None)

    def work() -> None:
        _fanning.active = True
        try:
            while (i := take()) is not None:
                try:
                    results[i] = fn(tasks[i])
                except BaseException as exc:
                    stop(i, exc)
                    return
        finally:
            _fanning.active = False

    threads: list[threading.Thread] = []
    try:
        for t in range(1, n_threads):
            thread = threading.Thread(
                target=work, name=f"fan-out-{t}", daemon=True
            )
            thread.start()
            threads.append(thread)
        work()
        for thread in threads:
            thread.join()
    except BaseException:  # outside a task: starting, between, joining
        stop()
        for thread in threads:
            thread.join()
        raise
    if failed:
        raise failed[min(failed)]
    return results
