"""Pluggable task execution backends.

The sweep runner (:mod:`repro.sim.parallel`) and the sharded fleet
runner (:mod:`repro.sim.fleet`) distribute the same shape of work:
independent, picklable tasks mapped over a picklable top-level function,
with results required in task order.  :class:`Executor` abstracts that
contract so callers choose *where* work runs (in-process, across a
process pool, or across a cluster of socket workers) without changing
*what* runs.

Backends
--------
:class:`SerialExecutor`
    Runs tasks in the calling process, in order.  The right choice for
    one task or one worker — spawning a pool costs more than it saves.
:class:`ProcessExecutor`
    Fans tasks out over a persistent ``ProcessPoolExecutor``; results
    come back in task order regardless of worker scheduling.  Every
    task executes in a *worker* process — never in the caller — so
    per-host state (kernel-probe caches, compiled-LUT caches) always
    lands on the executing side, exactly like a remote worker's would.
:class:`~repro.sim.distributed.DistributedExecutor`
    Fans tasks out over TCP socket workers on other hosts (or other
    local processes), with retry/reissue fault tolerance.

:func:`make_executor` picks between them from a worker count, a task
count and an optional host list, so every call site shares one policy
(and one :func:`default_workers` default).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..fanout import limit_threads, usable_cpus

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "default_workers",
]

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """A sane worker count: the CPUs this process may use
    (:func:`repro.fanout.usable_cpus`, its affinity mask) minus one,
    min 1."""
    return max(1, usable_cpus() - 1)


def _coerce_workers(max_workers) -> int:
    """Validate a worker count: ``None`` means the default; anything
    else must be an *integral* number >= 1.

    ``2.7`` workers is always a caller bug — silently truncating it to
    2 (the old ``int(...)`` behaviour) hid mis-tuned sweep configs, so
    non-integral values raise instead.  Integral floats (``2.0``) are
    accepted and normalised to ``int``.
    """
    if max_workers is None:
        return default_workers()
    try:
        workers = int(max_workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"max_workers must be an integral count, got {max_workers!r}"
        ) from None
    if workers != max_workers:
        raise ValueError(
            f"max_workers must be an integral count, got {max_workers!r}"
        )
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
    return workers


class Executor(ABC):
    """Maps a picklable function over tasks, preserving task order."""

    @abstractmethod
    def map(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        chunksize: int = 1,
    ) -> list[R]:
        """Apply ``fn`` to every task; results in task order."""


class SerialExecutor(Executor):
    """In-process execution — no pool, no pickling, no spawn cost."""

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        chunksize: int = 1,
    ) -> list[R]:
        return [fn(t) for t in tasks]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ProcessExecutor(Executor):
    """Process-pool execution over picklable tasks.

    ``fn`` must be a module-level function and every task picklable.

    The pool is created lazily on the first :meth:`map` and *reused*
    across calls, so repeated maps (tuning loops, successive
    ``run_fleet`` calls) pay the worker spawn cost once.  Call
    :meth:`close` — or use the executor as a context manager — to shut
    the pool down; a closed executor transparently respawns its pool on
    the next :meth:`map`.

    Every task runs in a pool worker, *including* single-task maps:
    in-process shortcuts would let per-host worker state (e.g. the
    ``resolve_backend("auto")`` kernel-probe cache) leak into the
    calling process and diverge from multi-task runs.  Callers that
    want in-process execution say so explicitly with
    :class:`SerialExecutor` (what :func:`make_executor` selects for one
    effective worker).

    Each worker's fan-outs (:func:`repro.fanout.fan_out`) run on
    ``usable_cpus() // max_workers`` threads, at least one, so the
    pool's processes share the CPUs instead of each fanning out over
    all of them.

    A worker death mid-map raises
    :class:`~concurrent.futures.process.BrokenProcessPool` to the
    caller; the broken pool is discarded so the *next* map starts
    fresh instead of failing forever.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = _coerce_workers(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # each worker's fan-outs (a fleet range's UE blocks, the
            # pathloss kernel's point blocks) get its share of the CPUs
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=limit_threads,
                initargs=(max(1, usable_cpus() // self.max_workers),),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        The executor stays usable — the next :meth:`map` spawns a fresh
        pool — so ``close()`` is a resource release, not a terminal
        state.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass

    # -- execution -----------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        chunksize: int = 1,
    ) -> list[R]:
        items: Sequence[T] = list(tasks)
        if not items:
            return []
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, items, chunksize=max(1, chunksize)))
        except BrokenProcessPool:
            # a dead worker poisons the whole pool; drop it so the
            # executor recovers on the next call, then surface the
            # failure to the caller (retry policy lives above us —
            # see DistributedExecutor for a fault-tolerant backend)
            self._pool.shutdown(wait=False)
            self._pool = None
            raise

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"ProcessExecutor(max_workers={self.max_workers}) [{state}]"


def make_executor(
    max_workers: Optional[int] = None,
    n_tasks: Optional[int] = None,
    hosts: Optional[Sequence[str]] = None,
) -> Executor:
    """The shared backend-selection policy.

    ``hosts`` — a non-empty sequence of ``"host:port"`` socket-worker
    addresses — selects the distributed backend
    (:class:`~repro.sim.distributed.DistributedExecutor`) and is
    mutually exclusive with ``max_workers``.  Otherwise
    ``max_workers=None`` means :func:`default_workers`; when the task
    count is known the worker count is capped by it (idle pool workers
    buy nothing); one effective worker selects the serial backend,
    anything else a process pool.
    """
    if hosts:
        if max_workers is not None:
            raise ValueError("pass either max_workers or hosts, not both")
        from .distributed import DistributedExecutor

        return DistributedExecutor(hosts)
    workers = _coerce_workers(max_workers)
    if n_tasks is not None:
        workers = min(workers, n_tasks)
    if workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
