"""Distributed-executor tests: wire protocol, retry/reissue/timeout
fault paths, serial fallback, and fleet byte-identity over socket
workers.

Most tests run :class:`WorkerServer` on an in-process background thread
(same wire protocol as a remote host, no subprocess startup cost); one
end-to-end test exercises real ``python -m repro worker`` subprocesses
through :func:`local_worker_pool`.
"""

import pickle
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro.resilience import FaultPlan, FaultRule
from repro.sim import (
    DistributedExecutionError,
    DistributedExecutor,
    FleetSpec,
    SimulationParameters,
    WorkerServer,
    local_worker_pool,
    parse_hosts,
    run_fleet,
)
from repro.sim.distributed import (
    MAX_FRAME_BYTES,
    parse_address,
    recv_frame,
    send_frame,
)

pytestmark = pytest.mark.distributed


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.4)
    return x * x


def raise_value_error(x):
    raise ValueError(f"task rejected {x}")


def worker_fault(mode, repeat=False):
    """A worker-scope plan that fires on the first task received."""
    return FaultPlan(
        rules=(FaultRule(scope="worker", mode=mode, after=1, repeat=repeat),)
    )


@contextmanager
def worker_servers(n=1, fault=None, max_tasks=None):
    """``n`` in-thread socket workers; the *first* carries ``fault``."""
    servers = [
        WorkerServer(
            fault=fault if i == 0 else None, max_tasks=max_tasks
        )
        for i in range(n)
    ]
    threads = [
        threading.Thread(target=s.serve_forever, daemon=True)
        for s in servers
    ]
    for t in threads:
        t.start()
    try:
        yield servers, [f"{s.address[0]}:{s.address[1]}" for s in servers]
    finally:
        for s in servers:
            s.stop()
        for t in threads:
            t.join(timeout=5.0)


def fast_executor(hosts, **overrides):
    """An executor tuned for test latency (tight heartbeats/backoff)."""
    kwargs = dict(
        heartbeat_interval=0.05,
        heartbeat_timeout=0.5,
        max_retries=3,
        backoff_base=0.01,
        backoff_cap=0.05,
        connect_timeout=2.0,
    )
    kwargs.update(overrides)
    return DistributedExecutor(hosts, **kwargs)


# ----------------------------------------------------------------------
# framing / address parsing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = ("task", 3, square, {"nested": [1, 2.5]}, 0.5)
            send_frame(a, payload)
            got = recv_frame(b)
            assert got[0] == "task" and got[1] == 3
            assert got[3] == {"nested": [1, 2.5]}
        finally:
            a.close()
            b.close()

    def test_frame_is_a_length_prefixed_pickle(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("ping",))
            body = pickle.dumps(("ping",), protocol=pickle.HIGHEST_PROTOCOL)
            assert b.recv(1024) == struct.pack(">I", len(body)) + body
        finally:
            a.close()
            b.close()

    def test_recv_on_closed_peer_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_recv_refuses_oversize_length_before_the_body(self):
        a, b = socket.socketpair()
        b.settimeout(1.0)  # reading the (never sent) body would time out
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ConnectionError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "addr", ["localhost", "host:", ":123", "host:port"]
    )
    def test_parse_address_rejects_garbage(self, addr):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(addr)

    def test_parse_hosts_comma_string(self):
        assert parse_hosts("a:1, b:2,") == (("a", 1), ("b", 2))

    def test_parse_hosts_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            parse_hosts([])

    def test_worker_fault_must_be_a_plan(self):
        rule = FaultRule(scope="worker", mode="drop")
        with pytest.raises(TypeError, match="FaultPlan"):
            WorkerServer(fault=rule)


class TestExecutorConstruction:
    """A timeout the sockets cannot use would kill every worker thread
    on its first socket call and run the whole map serially; it is
    refused at construction, naming the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heartbeat_timeout", 0),
            ("heartbeat_timeout", -1),
            ("heartbeat_timeout", float("inf")),
            ("heartbeat_timeout", float("nan")),
            ("connect_timeout", 0),
            ("connect_timeout", -1),
            ("connect_timeout", float("inf")),
            ("task_timeout", 0),
            ("task_timeout", -0.5),
            ("task_timeout", float("nan")),
            ("backoff_base", -0.01),
            ("backoff_cap", -1),
            ("backoff_cap", float("nan")),
        ],
    )
    def test_unusable_value_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            DistributedExecutor(["127.0.0.1:1"], **{field: value})

    def test_usable_values_are_kept(self):
        ex = DistributedExecutor(
            ["127.0.0.1:1"], task_timeout=1.5, heartbeat_timeout=0.2,
            connect_timeout=0.1, backoff_base=0.0, backoff_cap=0.0,
        )
        assert (ex.task_timeout, ex.heartbeat_timeout) == (1.5, 0.2)
        assert ex.connect_timeout == 0.1 and ex.backoff_cap == 0.0
        # the default heartbeat timeout is derived from the interval
        assert DistributedExecutor(
            ["127.0.0.1:1"], heartbeat_interval=1.0
        ).heartbeat_timeout == 8.0


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------
class TestDistributedMap:
    def test_results_in_task_order(self):
        with worker_servers(2) as (_, hosts):
            got = fast_executor(hosts).map(square, [5, 3, 1, 4, 2])
        assert got == [25, 9, 1, 16, 4]

    def test_empty_tasks(self):
        # no connection is even attempted for an empty map
        ex = DistributedExecutor(["127.0.0.1:1"])
        assert ex.map(square, []) == []

    def test_single_worker_single_task(self):
        with worker_servers(1) as (_, hosts):
            assert fast_executor(hosts).map(square, [7]) == [49]

    def test_more_workers_than_tasks(self):
        with worker_servers(3) as (_, hosts):
            assert fast_executor(hosts).map(square, [2]) == [4]

    def test_heartbeats_keep_slow_tasks_alive(self):
        # the task (0.4 s) outlives the 0.2 s silence budget — only the
        # worker's heartbeat frames keep the client from declaring death
        with worker_servers(1) as (_, hosts):
            ex = fast_executor(
                hosts, heartbeat_interval=0.05, heartbeat_timeout=0.2,
                serial_fallback=False,
            )
            assert ex.map(slow_square, [3]) == [9]

    def test_worker_server_max_tasks_stops_serving(self):
        with worker_servers(1, max_tasks=2) as (servers, hosts):
            assert fast_executor(hosts).map(square, [1, 2]) == [1, 4]
            deadline = time.monotonic() + 5.0
            while servers[0]._done < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert servers[0]._done == 2


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestWorkerSurvivesBadFrames:
    @pytest.mark.parametrize(
        "frame, reason",
        [
            (struct.pack(">I", MAX_FRAME_BYTES + 1), "exceeds"),
            (struct.pack(">I", 0), "zero-length frame"),
            (_frame(b"hello"), "undecodable"),
            (_frame(pickle.dumps(("bogus",))), "unknown message"),
            (_frame(pickle.dumps(("task", 1))), "unknown message"),
            (_frame(pickle.dumps(42)), "unknown message"),
        ],
        ids=["oversize", "zero-length", "undecodable", "unknown-kind",
             "short-task", "not-a-tuple"],
    )
    def test_bad_frame_costs_only_its_connection(self, frame, reason, caplog):
        with worker_servers(1) as (servers, _):
            address = servers[0].address
            with socket.create_connection(address, timeout=5.0) as bad:
                bad.sendall(frame)
                assert bad.recv(1) == b""  # the worker hung up on it
            with socket.create_connection(address, timeout=5.0) as good:
                send_frame(good, ("ping",))
                assert recv_frame(good) == ("pong",)
        assert "dropping worker client" in caplog.text
        assert reason in caplog.text


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------
class TestApplicationErrors:
    def test_task_exception_propagates(self):
        with worker_servers(2) as (_, hosts):
            with pytest.raises(ValueError, match="task rejected"):
                fast_executor(hosts).map(raise_value_error, [1, 2, 3])

    def test_task_exception_is_not_retried(self):
        # an application error must surface once, not burn retries
        with worker_servers(1) as (servers, hosts):
            with pytest.raises(ValueError):
                fast_executor(hosts).map(raise_value_error, [1])
            assert servers[0].tasks_seen == 1


class TestTransportFaults:
    def test_dropped_connection_retries_and_succeeds(self):
        # worker drops the connection on its first task, serves the
        # reissued attempt after the client reconnects
        fault = worker_fault("drop")
        with worker_servers(1, fault=fault) as (_, hosts):
            got = fast_executor(hosts).map(square, [4, 5])
        assert got == [16, 25]

    def test_lost_shard_reissued_to_surviving_worker(self):
        # two workers; one drops mid-task — the lost task must land on
        # a worker and every result stay correct
        fault = worker_fault("drop")
        with worker_servers(2, fault=fault) as (_, hosts):
            got = fast_executor(hosts).map(square, list(range(8)))
        assert got == [x * x for x in range(8)]

    def test_hung_worker_detected_by_heartbeat_silence(self):
        # "hang" keeps the socket open but never frames anything — only
        # silence detection can catch it
        fault = worker_fault("hang")
        with worker_servers(1, fault=fault) as (_, hosts):
            ex = fast_executor(hosts, heartbeat_timeout=0.3)
            assert ex.map(square, [6]) == [36]

    def test_retries_exhausted_names_the_task(self):
        fault = worker_fault("drop", repeat=True)
        with worker_servers(1, fault=fault) as (_, hosts):
            ex = fast_executor(hosts, max_retries=2, serial_fallback=False)
            with pytest.raises(
                DistributedExecutionError, match="retries exhausted"
            ) as excinfo:
                ex.map(square, [9])
        assert "task 0" in str(excinfo.value)

    def test_task_timeout_caps_an_attempt(self):
        # heartbeats flow, but the absolute per-attempt budget is
        # smaller than the task — the attempt must be abandoned
        with worker_servers(1) as (_, hosts):
            ex = fast_executor(
                hosts, task_timeout=0.1, max_retries=0,
                serial_fallback=False,
            )
            with pytest.raises(DistributedExecutionError) as excinfo:
                ex.map(slow_square, [2])
        assert "timed out" in str(excinfo.value)

    def test_unreachable_workers_fall_back_to_serial(self):
        # nothing listens on these ports: the run must still finish,
        # in-process, in task order
        ex = fast_executor(
            ["127.0.0.1:1", "127.0.0.1:2"], connect_timeout=0.2
        )
        assert ex.map(square, [1, 2, 3]) == [1, 4, 9]

    def test_unreachable_workers_raise_without_fallback(self):
        ex = fast_executor(
            ["127.0.0.1:1"], connect_timeout=0.2, serial_fallback=False,
        )
        with pytest.raises(DistributedExecutionError, match="unreachable"):
            ex.map(square, [1, 2])


# ----------------------------------------------------------------------
# fleet byte-identity over socket workers
# ----------------------------------------------------------------------
class TestDistributedFleet:
    SPEC = FleetSpec(n_ues=12, n_walks=3)

    def test_run_fleet_identical_to_serial(self):
        serial = run_fleet(self.SPEC, n_shards=1)
        with worker_servers(2) as (_, hosts):
            dist = run_fleet(self.SPEC, n_shards=4, hosts=hosts)
        assert dist == serial

    def test_run_fleet_identical_through_worker_fault(self):
        # a worker drops mid-shard; the reissued shard reruns from its
        # global-index seeds, so the merge stays byte-identical
        serial = run_fleet(self.SPEC, n_shards=1)
        fault = worker_fault("drop")
        with worker_servers(2, fault=fault) as (_, hosts):
            dist = run_fleet(
                self.SPEC,
                n_shards=4,
                executor=fast_executor(hosts),
            )
        assert dist == serial

    def test_run_fleet_hosts_and_executor_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_fleet(
                self.SPEC,
                hosts=["127.0.0.1:1"],
                executor=fast_executor(["127.0.0.1:1"]),
            )

    def test_retries_exhausted_error_names_shard_range(self):
        # the ISSUE-6 satellite: a dead shard's error must say *which*
        # UE range was lost
        fault = worker_fault("drop", repeat=True)
        with worker_servers(1, fault=fault) as (_, hosts):
            ex = fast_executor(hosts, max_retries=1, serial_fallback=False)
            with pytest.raises(DistributedExecutionError) as excinfo:
                run_fleet(self.SPEC, n_shards=2, executor=ex)
        message = str(excinfo.value)
        assert "lo=" in message and "hi=" in message


# ----------------------------------------------------------------------
# worker warm path: cached systems and compiled tables across reconnects
# ----------------------------------------------------------------------
class TestWarmWorkerCache:
    SPEC = FleetSpec(
        n_ues=8,
        n_walks=3,
        params=SimulationParameters(n_walks=3, flc_backend="lut"),
    )

    def test_warm_cache_hits_grow_across_runs(self):
        from repro.fuzzy.compiled import lut_build_count

        first = run_fleet(self.SPEC, n_shards=2)
        builds = lut_build_count()
        second = run_fleet(self.SPEC, n_shards=2)
        assert second == first
        # the second run's shards all reuse the process-wide tables
        assert lut_build_count() == builds

    def test_restarted_worker_reuses_compiled_tables(self):
        # a worker that rejoins (same process here, as for a real
        # long-lived `repro worker`) serves the rerun from the
        # process-wide compiled-table cache instead of recompiling per
        # reconnect
        from repro.fuzzy.compiled import lut_build_count

        server = WorkerServer()
        host, port = server.address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            first = run_fleet(
                self.SPEC,
                n_shards=2,
                executor=fast_executor([f"{host}:{port}"]),
            )
        finally:
            server.stop()
            thread.join(timeout=5.0)

        builds = lut_build_count()
        # restart on the same address, as a supervised worker would
        server = WorkerServer(host=host, port=port)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            second = run_fleet(
                self.SPEC,
                n_shards=2,
                executor=fast_executor([f"{host}:{port}"]),
            )
        finally:
            server.stop()
            thread.join(timeout=5.0)

        assert second == first
        assert lut_build_count() == builds, (
            "rejoining worker recompiled its decision LUT"
        )


# ----------------------------------------------------------------------
# real subprocess workers (the CLI entry point, end to end)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSubprocessWorkers:
    def test_cli_workers_run_fleet_identical(self):
        spec = FleetSpec(n_ues=8, n_walks=3)
        serial = run_fleet(spec, n_shards=1)
        with local_worker_pool(2) as hosts:
            dist = run_fleet(spec, n_shards=2, hosts=hosts)
        assert dist == serial

    def test_die_after_worker_is_survivable(self):
        spec = FleetSpec(n_ues=8, n_walks=3)
        serial = run_fleet(spec, n_shards=1)
        with local_worker_pool(2, die_after=[1, None]) as hosts:
            dist = run_fleet(
                spec,
                n_shards=4,
                executor=fast_executor(hosts, heartbeat_timeout=2.0),
            )
        assert dist == serial
