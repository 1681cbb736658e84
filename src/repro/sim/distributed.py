"""Distributed fleet execution over TCP socket workers.

The local execution layer (:mod:`repro.sim.executor`) tops out at one
machine; this module is the cluster lever: a
:class:`DistributedExecutor` implements the same ``Executor.map``
contract over long-lived worker processes reached by TCP socket
(``python -m repro worker --listen host:port``), so one
:func:`~repro.sim.fleet.run_fleet` spans hosts.

Correctness is inherited, not re-derived: a fleet task (a population
and one ``[lo, hi)`` range of it) is a self-contained picklable unit
seeded by *global* UE index, the :class:`~repro.sim.metrics.FleetMetrics`
merge is exact and associative, and backend names (including ``"auto"``)
resolve on the *executing* host — so the distributed run is
byte-identical to the serial run no matter which worker computes which
shard, or how many times a shard is reissued after a failure.

Wire protocol
-------------
:mod:`repro.wire` frames: a 4-byte big-endian payload length followed
by a pickled message tuple.  Client→worker messages::

    ("ping",)                      liveness probe → ("pong",)
    ("task", id, fn, arg, hb_s)    run fn(arg); heartbeat every hb_s
    ("shutdown",)                  close this connection

Worker→client messages::

    ("heartbeat", id)              task id still computing
    ("result", id, value)          task id finished
    ("error", id, exc)             fn(arg) raised exc (application error)

A zero length prefix, or one above :data:`MAX_FRAME_BYTES` (the cap
the serve wire enforces too), is refused before its body is read.  A
worker drops a client that sends such a frame, an undecodable or an
unknown one, logs why, and goes back to accepting the next one.

The worker unpickles whatever a peer sends, and a pickle can run code:
a worker listens only where every peer that can reach it is trusted.

While a task computes in a worker thread, the worker's connection loop
emits ``heartbeat`` frames every ``hb_s`` seconds — the client treats
prolonged *silence* (no frame within ``heartbeat_timeout``) as a dead
worker, so a hung host is distinguished from a slow shard.

Fault model
-----------
Transport failures (connection refused/reset, heartbeat silence,
per-task timeout) are *worker* failures: the attempt is abandoned, the
task re-enters the queue with capped exponential backoff, and the
client tries to reconnect to the address (a restarted worker rejoins
transparently).  A task that exhausts ``max_retries`` transport
failures raises :class:`DistributedExecutionError` naming the task —
for a fleet shard that names the UE range.  When every worker is gone
and tasks remain, the surviving work runs serially in the calling
process (``serial_fallback=True``, the default) — a degraded-mode run
still returns exact metrics.

An exception raised *by the task function* on a healthy worker is an
application error, not a worker failure: it propagates to the caller
immediately and is never retried (matching
:class:`~repro.sim.executor.ProcessExecutor` semantics).

Fault injection
---------------
A :class:`~repro.resilience.faults.FaultPlan`'s ``"worker"``-scope
rules arm a :class:`WorkerServer` to fail on command — exit the process
mid-task (``python -m repro worker ... --die-after N`` builds that
one-rule plan), drop the connection, or hang silently — which is how
the X17 bench and the ``distributed`` test suite prove merged metrics
stay byte-identical through worker death and shard reissue.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import socket
import threading
import time
from contextlib import AbstractContextManager
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..wire import MAX_FRAME_BYTES, frame, local_endpoints, recv_payload
from .executor import Executor

__all__ = [
    "DistributedExecutor",
    "DistributedExecutionError",
    "WorkerServer",
    "FaultPlan",
    "MAX_FRAME_BYTES",
    "parse_address",
    "parse_hosts",
    "local_worker_pool",
]

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger(__name__)

#: Default client-side knobs (also the CLI defaults).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5
DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0
DEFAULT_CONNECT_TIMEOUT_S = 5.0


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: object) -> None:
    """Write one pickle frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(frame(payload))


def recv_frame(sock: socket.socket) -> object:
    """Read and unpickle one frame.

    Raises :class:`~repro.wire.FrameError` (a :class:`ConnectionError`)
    on a closed peer or a zero or over-cap length prefix (the body is
    never read), and :class:`socket.timeout` when the socket's timeout
    elapses first.
    """
    return pickle.loads(recv_payload(sock))


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"worker address must be host:port, got {address!r}"
        ) from None


def parse_hosts(hosts: str | Sequence[str]) -> tuple[tuple[str, int], ...]:
    """A host list (comma-separated string or sequence) → address tuples."""
    if isinstance(hosts, str):
        hosts = [h for h in hosts.split(",") if h.strip()]
    parsed = tuple(parse_address(h.strip()) for h in hosts)
    if not parsed:
        raise ValueError("hosts must name at least one worker address")
    return parsed


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
from ..resilience.faults import FaultInjector, FaultPlan  # noqa: E402


class WorkerServer:
    """A socket worker: accepts one client at a time, runs tasks.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    bound ``(host, port)``.  The CLI front-end is ``python -m repro
    worker --listen host:port``; tests run :meth:`serve_forever` on a
    background thread in-process.

    While a task computes (in a worker thread) the connection loop
    sends a heartbeat frame every ``hb_s`` seconds (the interval
    travels with the task), so the client can tell a long shard from a
    dead host.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_tasks: Optional[int] = None,
        fault: Optional[FaultPlan] = None,
    ) -> None:
        if fault is not None and not isinstance(fault, FaultPlan):
            raise TypeError(f"fault must be a FaultPlan or None, got {fault!r}")
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self.max_tasks = max_tasks
        self.fault = fault
        # a counting injector over the worker's task-event stream
        self.fault_injector: Optional[FaultInjector] = (
            fault.injector("worker") if fault is not None else None
        )
        self.tasks_seen = 0
        self._done = 0
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------
    def stop(self) -> None:
        """Ask :meth:`serve_forever` to exit; unblocks the accept."""
        self._stop.set()
        try:
            # poke the accept loop awake
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        self._listener.close()

    # -- serving -------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept clients until stopped (or ``max_tasks`` served)."""
        try:
            while not self._stop.is_set():
                if self.max_tasks is not None and self._done >= self.max_tasks:
                    break
                try:
                    conn, _addr = self._listener.accept()
                except OSError:
                    break
                if self._stop.is_set():
                    conn.close()
                    break
                try:
                    self._serve_client(conn)
                finally:
                    conn.close()
        finally:
            self._listener.close()

    def _serve_client(self, conn: socket.socket) -> None:
        while not self._stop.is_set():
            if self.max_tasks is not None and self._done >= self.max_tasks:
                return
            # every way a frame can fail costs this client only; back to
            # accept() for the next one
            try:
                message = recv_frame(conn)
            except (ConnectionError, OSError) as exc:
                # the client went away, or sent an oversize length prefix
                logger.warning("dropping worker client: %s", exc)
                return
            except Exception:  # noqa: BLE001 - any unpickling failure
                logger.warning(
                    "dropping worker client: undecodable frame", exc_info=True
                )
                return
            kind = message[0] if isinstance(message, tuple) and message else None
            if kind == "ping":
                send_frame(conn, ("pong",))
            elif kind == "shutdown":
                return
            elif kind == "task" and len(message) == 5:
                _, task_id, fn, arg, hb_s = message
                self.tasks_seen += 1
                rule = (
                    self.fault_injector.poll()
                    if self.fault_injector is not None
                    else None
                )
                if rule is not None:
                    if not self._trip_fault(conn, rule.mode):
                        return  # connection-level fault: drop client
                    continue  # "hang" consumed the fault silently
                try:
                    self._run_task(conn, task_id, fn, arg, hb_s)
                except (ConnectionError, OSError):
                    return  # client vanished mid-task
                self._done += 1
            else:
                logger.warning(
                    "dropping worker client: unknown message %.80r", message
                )
                return

    def _run_task(
        self,
        conn: socket.socket,
        task_id: int,
        fn: Callable,
        arg: object,
        hb_s: float,
    ) -> None:
        box: dict[str, object] = {}

        def compute() -> None:
            try:
                box["result"] = fn(arg)
            except BaseException as exc:  # noqa: BLE001 - forwarded to client
                box["error"] = exc

        thread = threading.Thread(target=compute, daemon=True)
        thread.start()
        while thread.is_alive():
            thread.join(timeout=max(hb_s, 1e-3))
            if thread.is_alive():
                send_frame(conn, ("heartbeat", task_id))
        if "error" in box:
            exc = box["error"]
            try:
                send_frame(conn, ("error", task_id, exc))
            except (pickle.PicklingError, TypeError, AttributeError):
                send_frame(
                    conn,
                    ("error", task_id, RuntimeError(repr(exc))),
                )
        else:
            send_frame(conn, ("result", task_id, box["result"]))

    # -- fault injection ----------------------------------------------
    def _trip_fault(self, conn: socket.socket, mode: str) -> bool:
        """Execute a fired fault rule.  Returns True when the connection
        survives (``"hang"``), False when the client must be dropped."""
        if mode == "exit":
            os._exit(17)
        if mode == "hang":
            # stay silent until the client gives up on us
            try:
                conn.settimeout(None)
                while conn.recv(4096):
                    pass
            except OSError:
                pass
            return False
        return False  # "drop"


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class DistributedExecutionError(RuntimeError):
    """A task ran out of transport retries (or workers)."""


class _TaskQueue:
    """Order-preserving task state shared by the per-worker threads.

    Tracks per-task attempt counts and backoff deadlines; a worker
    thread asks :meth:`acquire` for the next *ready* task, blocking
    through backoff windows so one flaky shard never busy-spins a
    worker.
    """

    def __init__(self, n_tasks: int, max_retries: int) -> None:
        self._cond = threading.Condition()
        self._pending: list[int] = list(range(n_tasks))
        self._ready_at = [0.0] * n_tasks
        self._attempts = [0] * n_tasks
        self._in_flight: set[int] = set()
        self.results: list[object] = [None] * n_tasks
        self._completed = [False] * n_tasks
        self.error: Optional[BaseException] = None
        self.max_retries = max_retries

    # -- worker-thread API --------------------------------------------
    def acquire(self) -> Optional[int]:
        """Next ready task index, or ``None`` when the map is over."""
        with self._cond:
            while True:
                if self.error is not None or all(self._completed):
                    return None
                ready = [
                    i for i in self._pending
                    if self._ready_at[i] <= time.monotonic()
                ]
                if ready:
                    idx = ready[0]
                    self._pending.remove(idx)
                    self._in_flight.add(idx)
                    self._attempts[idx] += 1
                    return idx
                if self._pending:
                    delay = max(
                        0.0,
                        min(self._ready_at[i] for i in self._pending)
                        - time.monotonic(),
                    )
                    self._cond.wait(timeout=min(delay, 0.25) or 0.01)
                else:
                    # everything in flight elsewhere; wait for news
                    self._cond.wait(timeout=0.25)

    def complete(self, idx: int, value: object) -> None:
        with self._cond:
            self._in_flight.discard(idx)
            if not self._completed[idx]:
                self._completed[idx] = True
                self.results[idx] = value
            self._cond.notify_all()

    def fail(self, idx: int, exc: BaseException) -> None:
        """Terminal failure: poison the map with ``exc``."""
        with self._cond:
            self._in_flight.discard(idx)
            if self.error is None:
                self.error = exc
            self._cond.notify_all()

    def requeue(self, idx: int, delay: float) -> bool:
        """Give a transport-failed task another attempt after
        ``delay`` seconds.  Returns False once retries are exhausted
        (the caller converts that into a terminal failure)."""
        with self._cond:
            self._in_flight.discard(idx)
            if self._completed[idx]:
                # a duplicate attempt already landed the result
                self._cond.notify_all()
                return True
            if self._attempts[idx] > self.max_retries:
                self._cond.notify_all()
                return False
            self._ready_at[idx] = time.monotonic() + delay
            self._pending.append(idx)
            self._cond.notify_all()
            return True

    def attempts(self, idx: int) -> int:
        with self._cond:
            return self._attempts[idx]

    # -- bookkeeping ---------------------------------------------------
    def remaining(self) -> list[int]:
        """Incomplete task indices, in task order."""
        with self._cond:
            return [i for i, c in enumerate(self._completed) if not c]

    def wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()


class DistributedExecutor(Executor):
    """``Executor.map`` over TCP socket workers, with fault tolerance.

    ``hosts`` is a sequence of ``"host:port"`` addresses (or one
    comma-separated string) naming running ``repro worker`` processes.
    Connections are opened per :meth:`map` call — a restarted worker is
    picked up by the next call (or by mid-map reconnect after a
    transport failure).

    Robustness knobs (all per :meth:`map` attempt):

    ``task_timeout``
        Absolute wall-clock cap per attempt; ``None`` (default) trusts
        heartbeats alone.
    ``heartbeat_interval`` / ``heartbeat_timeout``
        Workers frame a heartbeat every ``interval`` seconds while
        computing; silence longer than ``timeout`` (default 8×interval,
        min 2 s) declares the worker dead.
    ``max_retries`` / ``backoff_base`` / ``backoff_cap``
        Transport-failed tasks are reissued with capped exponential
        backoff (``base * 2**(attempt-1)``, capped); exceeding
        ``max_retries`` raises :class:`DistributedExecutionError`
        naming the task.
    ``serial_fallback``
        When *every* worker is unreachable/dead mid-map, finish the
        remaining tasks serially in the calling process instead of
        raising (default True).

    A value the sockets or the retry loop cannot use is refused with a
    ``ValueError`` naming the field.
    """

    def __init__(
        self,
        hosts: str | Sequence[str],
        *,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap: float = DEFAULT_BACKOFF_CAP_S,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
        serial_fallback: bool = True,
    ) -> None:
        self.addresses = parse_hosts(hosts)
        if heartbeat_timeout is None:
            heartbeat_timeout = max(2.0, 8.0 * heartbeat_interval)
        # a socket timeout of 0 is non-blocking and a negative one out of
        # range: every worker thread would die and the map run serially
        for field, value in (
            ("heartbeat_interval", heartbeat_interval),
            ("heartbeat_timeout", heartbeat_timeout),
            ("connect_timeout", connect_timeout),
        ):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{field} must be positive and finite, got {value}"
                )
        if task_timeout is not None and not task_timeout > 0:
            raise ValueError(
                f"task_timeout must be None or positive, got {task_timeout}"
            )
        for field, value in (
            ("max_retries", max_retries),
            ("backoff_base", backoff_base),
            ("backoff_cap", backoff_cap),
        ):
            if not value >= 0:
                raise ValueError(f"{field} must be >= 0, got {value}")
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.serial_fallback = serial_fallback
        #: observables of the most recent map() (attempt counts, serial
        #: fallback size); None until the first map completes
        self.last_map_stats: Optional[dict] = None

    def __repr__(self) -> str:
        hosts = ",".join(f"{h}:{p}" for h, p in self.addresses)
        return f"DistributedExecutor(hosts=[{hosts}])"

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        chunksize: int = 1,
    ) -> list[R]:
        items: Sequence[T] = list(tasks)
        if not items:
            return []
        queue = _TaskQueue(len(items), self.max_retries)
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(addr, fn, items, queue),
                name=f"repro-dist-{host}:{port}",
                daemon=True,
            )
            for addr in self.addresses
            for host, port in [addr]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if queue.error is not None:
            raise queue.error
        remaining = queue.remaining()
        # replay-comparable observables of this map: per-task attempt
        # counts and how many tasks the serial fallback absorbed (the
        # chaos tests pin these across reruns of one FaultPlan)
        self.last_map_stats = {
            "tasks": len(items),
            "attempts": [queue.attempts(i) for i in range(len(items))],
            "serial_fallback_tasks": len(remaining),
        }
        if remaining:
            # every worker is gone; the shards are still just picklable
            # tasks, so degrade to in-process execution rather than
            # losing the run
            if not self.serial_fallback:
                raise DistributedExecutionError(
                    f"all {len(self.addresses)} workers unreachable with "
                    f"{len(remaining)} task(s) unfinished, first: "
                    f"{_describe_task(remaining[0], items[remaining[0]])}"
                )
            for idx in remaining:
                queue.complete(idx, fn(items[idx]))
        return list(queue.results)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _worker_loop(
        self,
        address: tuple[str, int],
        fn: Callable[[T], R],
        items: Sequence[T],
        queue: _TaskQueue,
    ) -> None:
        """One thread per worker address: acquire task → run remotely →
        record; reconnect on transport failure; exit when the worker is
        declared dead or the map is over."""
        sock = self._connect(address)
        while True:
            idx = queue.acquire()
            if idx is None:
                break
            if sock is None:
                sock = self._connect(address)
            if sock is None:
                # worker never came (back) up: hand the task back and
                # retire this thread
                self._requeue_or_fail(
                    queue, idx, items[idx],
                    ConnectionError(f"worker {address[0]}:{address[1]} "
                                    "unreachable"),
                )
                break
            try:
                value = self._run_remote(sock, fn, idx, items[idx])
            except _ApplicationError as exc:
                queue.fail(idx, exc.wrapped)
                break
            except (ConnectionError, OSError, TimeoutError, EOFError,
                    pickle.UnpicklingError) as exc:
                _close_quietly(sock)
                sock = None
                self._requeue_or_fail(queue, idx, items[idx], exc)
                continue
            except BaseException as exc:  # noqa: BLE001
                # client-side bug (e.g. unpicklable fn/task): poison the
                # map — silently losing this thread would deadlock the
                # acquire() of every other worker thread
                queue.fail(idx, exc)
                break
            queue.complete(idx, value)
        if sock is not None:
            try:
                send_frame(sock, ("shutdown",))
            except OSError:
                pass
            _close_quietly(sock)
        queue.wake_all()

    def _connect(self, address: tuple[str, int]) -> Optional[socket.socket]:
        try:
            sock = socket.create_connection(
                address, timeout=self.connect_timeout
            )
            sock.settimeout(self.heartbeat_timeout)
            send_frame(sock, ("ping",))
            if recv_frame(sock) != ("pong",):
                raise ConnectionError("bad ping response")
            return sock
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    def _run_remote(
        self,
        sock: socket.socket,
        fn: Callable[[T], R],
        idx: int,
        item: T,
    ) -> R:
        deadline = (
            None
            if self.task_timeout is None
            else time.monotonic() + self.task_timeout
        )
        send_frame(sock, ("task", idx, fn, item, self.heartbeat_interval))
        while True:
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TimeoutError(
                        f"task timed out after {self.task_timeout:g} s"
                    )
                sock.settimeout(min(self.heartbeat_timeout, budget))
            message = recv_frame(sock)
            kind = message[0]
            if kind == "heartbeat":
                continue
            if kind == "result":
                _, task_id, value = message
                if task_id != idx:
                    raise ConnectionError(
                        f"protocol desync: result for task {task_id}, "
                        f"expected {idx}"
                    )
                return value
            if kind == "error":
                raise _ApplicationError(message[2])
            raise ConnectionError(f"unexpected frame {kind!r}")

    def _requeue_or_fail(
        self,
        queue: _TaskQueue,
        idx: int,
        item: object,
        cause: BaseException,
    ) -> None:
        attempt = queue.attempts(idx)
        delay = min(
            self.backoff_base * (2.0 ** max(0, attempt - 1)),
            self.backoff_cap,
        )
        if not queue.requeue(idx, delay):
            queue.fail(
                idx,
                DistributedExecutionError(
                    f"{_describe_task(idx, item)} failed "
                    f"{attempt} attempt(s), retries exhausted "
                    f"(last error: {cause!r})"
                ),
            )


class _ApplicationError(Exception):
    """Internal envelope: the task function raised on the worker."""

    def __init__(self, wrapped: BaseException) -> None:
        super().__init__(repr(wrapped))
        self.wrapped = wrapped


def _describe_task(idx: int, item: object) -> str:
    # a fleet task is (population, (lo, hi), window, outage) — name its
    # UE range outright rather than hoping it survives repr truncation
    parts = item if isinstance(item, tuple) else (item,)
    for part in parts:
        if (
            isinstance(part, tuple)
            and len(part) == 2
            and all(isinstance(v, int) for v in part)
        ):
            lo, hi = part
            return f"task {idx} (shard lo={lo}, hi={hi})"
    desc = repr(item)
    if len(desc) > 200:
        desc = desc[:120] + " ... " + desc[-75:]
    return f"task {idx} ({desc})"


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close never practically fails
        pass


# ----------------------------------------------------------------------
# local worker fleets (benchmarks, examples, CI smoke)
# ----------------------------------------------------------------------
def local_worker_pool(
    n_workers: int,
    *,
    die_after: Optional[Sequence[Optional[int]]] = None,
) -> AbstractContextManager[list[str]]:
    """Spawn ``n_workers`` localhost socket workers; yield their
    ``"host:port"`` addresses; terminate them on exit.

    Each worker is a real ``python -m repro worker`` subprocess on an
    ephemeral port (see :func:`repro.wire.local_endpoints`), so
    benchmarks and examples exercise the same process/socket boundary a
    multi-host deployment would.  ``die_after[i]`` arms worker *i* with
    ``--die-after K`` fault injection (exit mid-task on its K-th task).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    faults = list(die_after or ())
    faults += [None] * (n_workers - len(faults))
    return local_endpoints([
        ["worker"] + ([] if k is None else ["--die-after", str(k)])
        for k in faults[:n_workers]
    ])
