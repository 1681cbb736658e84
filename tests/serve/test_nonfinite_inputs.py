"""Non-finite numbers from clients never reach the decision loop.

A NaN or infinite UE speed would turn the FLC's SSN input into NaN or
-inf; a non-finite outage threshold would count no epoch (NaN) or every
epoch (+inf) as outage.  Both are refused where they enter the service,
as is a policy no pipeline can run (a NaN gate, a threshold outside
(0, 1), a zero CSSP lag), and one client's bad subscribe must not stall
or break the epochs of the UEs that behave.  A JSON integer past the
float range (or, for the CSSP lag, past its integer column) is refused
the same way: a ``ValueError`` naming the field, an ``error`` reply on
the wire.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core import FuzzyHandoverSystem
from repro.serve import (
    DecisionService,
    Report,
    ServeClient,
    ServeServer,
    encode_frame,
    identity_report,
    read_frame,
    replay_to_server,
)
from repro.sim import (
    BatchMeasurementSeries,
    BatchSimulator,
    FleetSpec,
    FleetTrace,
    SimulationParameters,
    offline_reference_metrics,
    record_fleet_trace,
)
from repro.wire import FrameReader

pytestmark = pytest.mark.serve

NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("speed", [math.nan, math.inf])
def test_subscribe_rejects_a_nonfinite_speed(speed):
    service = DecisionService()
    with pytest.raises(ValueError, match="finite"):
        service.subscribe(5, speed_kmh=speed)
    assert not service.engine.knows(5)
    assert service.engine.n_ues == 0
    service.subscribe(5, speed_kmh=3.0)
    assert service.engine.knows(5)


@pytest.mark.parametrize(
    "policy, field",
    [
        ({"threshold": 1.5}, "threshold"),
        ({"potlc_gate_dbw": math.nan}, "potlc_gate_dbw"),
        ({"cssp_lag": 0}, "cssp_lag"),
        ("eager", "PolicyConfig"),
    ],
)
def test_subscribe_rejects_a_bad_policy(policy, field):
    service = DecisionService()
    service.subscribe(1)
    with pytest.raises(ValueError, match=field):
        service.subscribe(5, policy=policy)
    assert not service.engine.knows(5)
    assert service.engine.n_ues == 1


@pytest.mark.parametrize("outage_dbw", NONFINITE)
def test_service_rejects_a_nonfinite_outage_threshold(outage_dbw):
    with pytest.raises(ValueError, match="outage_dbw must be finite"):
        DecisionService(outage_dbw=outage_dbw)


@pytest.fixture(scope="module")
def trace_3ue():
    params = SimulationParameters(
        shadow_sigma_db=6.0, measurement_spacing_km=0.2
    )
    spec = FleetSpec(n_ues=3, n_walks=3, base_seed=1000, params=params)
    return record_fleet_trace(spec)


def test_wire_nan_speed_gets_an_error_and_the_fleet_keeps_closing(
    trace_3ue,
):
    """A JSON subscribe carrying ``NaN`` is answered with an error frame;
    the two well-behaved UEs' epochs all close on the watermark with the
    offline engine's commands and metrics."""
    full = trace_3ue.series()
    series = BatchMeasurementSeries(
        positions_km=full.positions_km[:2],
        distance_km=full.distance_km[:2],
        power_dbw=full.power_dbw[:2],
        lengths=full.lengths[:2],
        layout=full.layout,
    )
    good = FleetTrace.from_series(
        series, trace_3ue.speeds_kmh[:2], trace_3ue.params
    )

    async def run():
        service = DecisionService(good.params)
        listener = service.attach_listener(capacity=good.max_epochs + 1)
        server = ServeServer(service)
        host, port = await server.start()
        try:
            bad = ServeClient(host, port)
            await bad.connect()
            try:
                with pytest.raises(ValueError, match="finite"):
                    await bad.subscribe(2, speed_kmh=math.nan)
            finally:
                await bad.close()
            stats, _metrics = await replay_to_server(good, host, port)
            return service, listener, stats
        finally:
            await server.stop()

    service, listener, stats = asyncio.run(run())
    assert not service.engine.knows(2)
    assert stats["epochs_closed"] == good.max_epochs
    assert stats["reports_accepted"] == int(np.sum(good.lengths))
    assert not identity_report(
        service.metrics(), offline_reference_metrics(good)
    )

    streamed = sorted(
        (c.ue, c.local_epoch, c.source, c.target, c.output)
        for batch in listener.pop_all()
        for c in batch.commands
    )
    system = FuzzyHandoverSystem(
        cell_radius_km=good.params.cell_radius_km,
        flc_backend=good.params.flc_backend,
    )
    result = BatchSimulator(system, speed_kmh=good.speeds_kmh).run(series)
    assert streamed == sorted(
        zip(
            result.event_ue.tolist(),
            result.event_step.tolist(),
            result.event_source.tolist(),
            result.event_target.tolist(),
            result.event_output.tolist(),
        )
    )


# ----------------------------------------------------------------------
# JSON integers past the float range
# ----------------------------------------------------------------------
#: A legal JSON integer literal that no float64 holds.
HUGE = 10**400

HUGE_REPORT_FIELDS = {
    "position_km": [HUGE, 0.0],
    "distance_km": HUGE,
    "power_dbw": [-80.0] * 6 + [-HUGE],
}

HUGE_SUBSCRIBES = {
    "speed_kmh": {"speed_kmh": HUGE},
    "potlc_gate_dbw": {"policy": {"potlc_gate_dbw": -HUGE}},
    "cssp_lag": {"policy": {"cssp_lag": 10**30}},
}


def report_payload(ue: int = 0, **fields) -> dict:
    return {
        "type": "report",
        "ue": ue,
        "epoch": 0,
        "position_km": [1.0, 1.0],
        "distance_km": 0.5,
        "power_dbw": [-80.0] * 7,
        **fields,
    }


@pytest.mark.parametrize("field", HUGE_REPORT_FIELDS)
def test_report_refuses_an_integer_past_the_float_range(field):
    message = report_payload(**{field: HUGE_REPORT_FIELDS[field]})
    with pytest.raises(ValueError, match=f"{field} must be finite") as exc:
        Report.from_payload(message)
    good = report_payload(1)
    reports, error = Report.from_payloads([good, message, good])
    assert [r.ue for r in reports] == [1]
    assert str(error) == str(exc.value)


@pytest.mark.parametrize("field", HUGE_SUBSCRIBES)
def test_subscribe_refuses_an_integer_past_its_range(field):
    service = DecisionService()
    with pytest.raises(ValueError, match=field):
        service.subscribe(5, **HUGE_SUBSCRIBES[field])
    assert not service.engine.knows(5)
    assert service.scheduler.n_subscribed == 0


def served_exchange(messages: list) -> tuple[DecisionService, list]:
    """Send ``messages`` on one connection; every reply until the
    server closes it."""

    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            replies = []
            for message in messages:
                writer.write(encode_frame(message))
            await writer.drain()
            while (reply := await asyncio.wait_for(
                read_frame(frames), 5.0
            )) is not None:
                replies.append(reply)
            writer.close()
            return service, replies
        finally:
            await server.stop()

    return asyncio.run(run())


@pytest.mark.parametrize(
    "field, message",
    [
        *(
            (field, {"type": "subscribe", "ue": 5, **fields})
            for field, fields in HUGE_SUBSCRIBES.items()
        ),
        *(
            (field, report_payload(**{field: value}))
            for field, value in HUGE_REPORT_FIELDS.items()
        ),
    ],
    ids=[*HUGE_SUBSCRIBES, *(f"report-{f}" for f in HUGE_REPORT_FIELDS)],
)
def test_wire_integer_past_its_range_gets_an_error_reply(field, message):
    service, replies = served_exchange([message])
    (reply,) = replies
    assert reply["type"] == "error" and field in reply["error"]
    assert service.stats.transport_errors == 0
    assert not service.engine.knows(5)
    assert service.scheduler.pending_reports() == 0
