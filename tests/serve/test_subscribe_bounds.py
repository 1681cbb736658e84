"""What one subscribe may ask of the service.

A subscribe's CSSP lag widens every UE's CSSP history row to the
longest lag so far, so a lag past :data:`MAX_CSSP_LAG` is refused by
name before anything is registered or allocated.  A cohort label must
be a string (or absent): the metrics sort the labels, and one label of
another type would break every later ``metrics`` request.  The speed,
threshold and POTLC gate must be real numbers: a string or a boolean
is refused, not converted.  Every refusal is a ``ValueError`` in process
and an ``error`` reply on the wire, and the UEs that behave keep
closing their epochs.  Over the wire a server registers at most
:data:`~repro.serve.server.MAX_WIRE_UES` UEs and takes cohort labels of
at most :data:`~repro.serve.server.MAX_WIRE_COHORT_CHARS` characters;
in process any number and any string.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.serve import DecisionService, Report, ServeClient, ServeServer
from repro.serve import server as serve_server
from repro.serve.engine import MAX_CSSP_LAG
from repro.serve.server import MAX_WIRE_COHORT_CHARS
from repro.sim import PolicyConfig, SimulationParameters

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells

#: subscribe keywords -> the field the refusal names
REFUSED = {
    "huge-lag": ({"policy": {"cssp_lag": 200_000}}, "cssp_lag"),
    "lag-past-bound": (
        {"policy": {"cssp_lag": MAX_CSSP_LAG + 1}}, "cssp_lag",
    ),
    "int-cohort": ({"cohort": 7}, "cohort"),
    "list-cohort": ({"cohort": ["walkers"]}, "cohort"),
    "string-speed": ({"speed_kmh": "12"}, "speed_kmh"),
    "bool-speed": ({"speed_kmh": True}, "speed_kmh"),
    "string-threshold": ({"policy": {"threshold": "0.5"}}, "threshold"),
    "bool-threshold": ({"policy": {"threshold": True}}, "threshold"),
    "string-gate": ({"policy": {"potlc_gate_dbw": "-85"}}, "potlc_gate_dbw"),
    "bool-gate": ({"policy": {"potlc_gate_dbw": True}}, "potlc_gate_dbw"),
}


def make_report(ue: int, epoch: int = 0) -> Report:
    power = np.full(N_CELLS, -120.0)
    power[0] = -70.0
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(0.2, 0.1),
        distance_km=0.05 * (epoch + 1),
        power_dbw=power,
    )


def history_width(service: DecisionService) -> int:
    return service.engine.state_dict()["state"]["hist"].shape[1]


@pytest.mark.parametrize("case", REFUSED)
def test_refused_subscribe_registers_nothing(case):
    kwargs, field = REFUSED[case]
    service = DecisionService()
    service.subscribe(0, cohort="walkers")
    with pytest.raises(ValueError, match=field):
        service.subscribe(1, **kwargs)
    assert not service.engine.knows(1)
    assert service.scheduler.n_subscribed == 1
    assert history_width(service) == 1
    assert service.submit(make_report(0)) == "accepted"
    assert service.stats.epochs_closed == 1
    assert service.metrics().cohort_names == ("walkers",)


def test_refused_lag_allocates_nothing():
    service = DecisionService()
    service.subscribe(0)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match=f"cssp_lag must be <= {MAX_CSSP_LAG}"
        ):
            service.subscribe(1, policy={"cssp_lag": 200_000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lag_at_the_bound_is_accepted():
    service = DecisionService()
    service.subscribe(0)
    with pytest.raises(ValueError, match="cssp_lag"):
        service.subscribe(1, policy=PolicyConfig(cssp_lag=MAX_CSSP_LAG + 1))
    service.subscribe(1, policy=PolicyConfig(cssp_lag=MAX_CSSP_LAG))
    assert history_width(service) == MAX_CSSP_LAG
    service.subscribe(2, policy={"cssp_lag": 3})
    assert service.engine.n_ues == 3


@pytest.mark.parametrize("case", REFUSED)
def test_wire_refusal_is_an_error_reply_and_the_fleet_keeps_closing(case):
    kwargs, field = REFUSED[case]

    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            good = await ServeClient(host, port).connect()
            await good.subscribe(0, cohort="walkers")
            bad = await ServeClient(host, port).connect()
            try:
                with pytest.raises(ValueError, match=field):
                    await bad.subscribe(1, **kwargs)
            finally:
                await bad.close()
            await good.report(make_report(0))
            stats = await good.stats()
            metrics = await good.metrics()
            await good.close()
            return service, stats, metrics
        finally:
            await server.stop()

    service, stats, metrics = asyncio.run(run())
    assert not service.engine.knows(1)
    assert stats["known_ues"] == 1 and stats["subscribed"] == 1
    assert stats["epochs_closed"] == 1
    assert metrics.cohort_names == ("walkers",)
    assert history_width(service) == 1


def test_wire_registrations_stop_at_the_bound(monkeypatch):
    """Past ``MAX_WIRE_UES`` registered UEs a wire subscribe of a new
    id is refused by name and registers nothing; a known UE still
    re-subscribes, and in process the service takes more."""
    monkeypatch.setattr(serve_server, "MAX_WIRE_UES", 2)

    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            client = await ServeClient(host, port).connect()
            await client.subscribe(0)
            await client.subscribe(1)
            await client.unsubscribe(0)
            assert (await client.subscribe(0))["type"] == "ok"
            await client.close()
            bad = await ServeClient(host, port).connect()
            try:
                with pytest.raises(ValueError, match="at most 2 UEs"):
                    await bad.subscribe(2)
            finally:
                await bad.close()
            return service
        finally:
            await server.stop()

    service = asyncio.run(run())
    assert not service.engine.knows(2)
    assert service.engine.n_ues == 2
    service.subscribe(2)
    assert service.engine.n_ues == 3


def subscribe_labelled(label):
    """Over the wire: UE 0 subscribes as ``walkers``, then UE 1 under
    ``label``; UE 0 then reports.  Returns the service, the error UE 1's
    subscribe got (``None`` when accepted) and the wire metrics."""

    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            good = await ServeClient(host, port).connect()
            await good.subscribe(0, cohort="walkers")
            other = await ServeClient(host, port).connect()
            error = None
            try:
                await other.subscribe(1, cohort=label)
            except ValueError as exc:
                error = exc
            finally:
                await other.close()
            await good.report(make_report(0))
            metrics = await good.metrics()
            await good.close()
            return service, error, metrics
        finally:
            await server.stop()

    return asyncio.run(run())


def test_wire_cohort_label_past_the_bound_is_refused():
    service, error, metrics = subscribe_labelled(
        "x" * (MAX_WIRE_COHORT_CHARS + 1)
    )
    assert error is not None
    assert "cohort" in str(error)
    assert f"at most {MAX_WIRE_COHORT_CHARS} characters" in str(error)
    assert not service.engine.knows(1)
    assert service.stats.epochs_closed == 1
    assert metrics.cohort_names == ("walkers",)
    # in process the same label is taken
    service.subscribe(1, cohort="x" * (MAX_WIRE_COHORT_CHARS + 1))
    assert service.engine.knows(1)


def test_wire_cohort_label_at_the_bound_is_accepted():
    label = "x" * MAX_WIRE_COHORT_CHARS
    service, error, _ = subscribe_labelled(label)
    assert error is None
    assert service.engine.knows(1)
    # UE 1 has not reported, so epoch 0 waits for it; force it closed
    assert service.stats.epochs_closed == 0
    service.force_close()
    assert service.metrics().cohort_names == ("walkers", label)
