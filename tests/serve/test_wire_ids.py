"""UE ids, epochs and report numbers are checked, never coerced.

``int()`` would truncate a UE id of 3.7 to UE 3, parse ``"4"`` and read
``True`` as UE 1; ``float()`` and ``np.asarray(..., dtype=float)`` would
parse numeric strings and booleans.  Every such value is refused where
it enters the service, with the field named, and a refused subscribe
registers nothing: the engine's UE count and the fleet metrics stay as
they were.  Over a JSON socket the client gets an ``error`` reply, that
connection closes, and the service keeps serving everyone else.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

from repro.serve import DecisionService, Report, ServeClient, ServeServer
from repro.serve.protocol import encode_frame, read_frame
from repro.sim import SimulationParameters
from repro.wire import FrameReader

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells

BAD_IDS = [-1, 3.7, 2.0, "4", True, False, None, np.float64(3.0)]


def report_payload(**overrides) -> dict:
    message = {
        "type": "report",
        "ue": 0,
        "epoch": 0,
        "position_km": [1.0, 1.0],
        "distance_km": 0.0,
        "power_dbw": np.linspace(-120.0, -70.0, N_CELLS).tolist(),
    }
    message.update(overrides)
    return message


BAD_REPORT_FIELDS = [
    ("ue", 3.7),
    ("ue", "3"),
    ("ue", True),
    ("ue", -1),
    ("epoch", 2.5),
    ("epoch", "2"),
    ("epoch", False),
    ("epoch", -1),
    ("distance_km", "0.5"),
    ("distance_km", True),
    ("distance_km", None),
    ("position_km", ["1.0", 1.0]),
    ("position_km", [True, 1.0]),
    ("position_km", "12"),
    ("power_dbw", ["-80.0"] * N_CELLS),
    ("power_dbw", [True] + [-80.0] * (N_CELLS - 1)),
    ("power_dbw", [False] * N_CELLS),
]


def frozen_metrics(service: DecisionService) -> bytes:
    """The fleet metrics as bytes (``FleetMetrics.__eq__`` skips the
    per-UE arrays, and a fresh fleet's mean output is NaN)."""
    return pickle.dumps(service.metrics(), protocol=pickle.HIGHEST_PROTOCOL)


def served_one_epoch() -> DecisionService:
    """A service with one real UE whose first epoch has closed."""
    service = DecisionService()
    service.subscribe(0)
    service.submit(Report.from_payload(report_payload()))
    assert service.stats.epochs_closed == 1
    return service


# ----------------------------------------------------------------------
# in process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_refused_subscribe_registers_nothing(bad):
    service = served_one_epoch()
    before = frozen_metrics(service)
    with pytest.raises(ValueError, match="ue"):
        service.subscribe(bad)
    assert service.engine.n_ues == 1
    assert frozen_metrics(service) == before
    np.testing.assert_array_equal(service.metrics().epochs_per_ue, [1])


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_refused_unsubscribe_leaves_the_watermark(bad):
    service = served_one_epoch()
    with pytest.raises(ValueError, match="ue"):
        service.unsubscribe(bad)
    assert service.scheduler.is_subscribed(0)


@pytest.mark.parametrize("ue", [np.int64(3), np.int32(3), np.uint8(3), 3])
def test_numpy_integer_ids_are_ids(ue):
    service = DecisionService()
    service.subscribe(ue)
    assert service.engine.knows(3) and service.engine.n_ues == 1
    report = Report.from_payload(report_payload(ue=ue, epoch=np.int64(0)))
    assert type(report.ue) is int and report.ue == 3
    assert type(report.epoch) is int and report.epoch == 0


@pytest.mark.parametrize("field, bad", BAD_REPORT_FIELDS, ids=repr)
def test_report_refuses_coercion_naming_the_field(field, bad):
    with pytest.raises(ValueError, match=field):
        Report.from_payload(report_payload(**{field: bad}))
    fields = report_payload(**{field: bad})
    del fields["type"]
    with pytest.raises(ValueError, match=field):
        Report(**fields)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("position_km", np.array([True, False])),
        ("position_km", np.array(["1.0", "2.0"])),
        ("power_dbw", np.ones(N_CELLS, dtype=bool)),
        ("power_dbw", np.full(N_CELLS, "-80")),
        ("distance_km", np.bool_(True)),
    ],
    ids=repr,
)
def test_report_refuses_bool_and_string_arrays(field, bad):
    fields = report_payload()
    del fields["type"]
    fields[field] = bad
    with pytest.raises(ValueError, match=field):
        Report(**fields)


def test_report_keeps_numpy_numbers():
    report = Report(
        ue=np.int64(1),
        epoch=np.uint16(4),
        position_km=np.array([1, 2], dtype=np.int32),
        distance_km=np.float32(0.5),
        power_dbw=[np.float64(-80.0)] * N_CELLS,
    )
    assert report.position_km.dtype == np.float64
    assert report.power_dbw.dtype == np.float64
    assert report.distance_km == 0.5 and report.epoch == 4


# ----------------------------------------------------------------------
# over a JSON socket
# ----------------------------------------------------------------------
async def raw_exchange(host, port, message):
    """Send one JSON frame, return ``(reply, next frame)``: the error
    reply, then ``None`` once the server has closed the connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(message, "json"))
        await writer.drain()
        frames = FrameReader(reader)
        reply = await asyncio.wait_for(read_frame(frames), 5.0)
        after = await asyncio.wait_for(read_frame(frames), 5.0)
    finally:
        writer.close()
    return reply, after


def run_against_served_service(scenario):
    async def run():
        service = served_one_epoch()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            return service, await scenario(service, host, port)
        finally:
            await server.stop()

    return asyncio.run(run())


@pytest.mark.parametrize("bad", [-1, 3.7, "4", True, None], ids=repr)
def test_wire_subscribe_with_a_bad_id_is_an_error(bad):
    async def scenario(service, host, port):
        before = frozen_metrics(service)
        reply, after = await raw_exchange(
            host, port, {"type": "subscribe", "ue": bad}
        )
        assert reply["type"] == "error" and "ue" in reply["error"]
        assert after is None  # that connection closed
        assert service.engine.n_ues == 1
        assert frozen_metrics(service) == before
        # everyone else is still served
        client = await ServeClient(host, port).connect()
        try:
            await client.subscribe(5)
        finally:
            await client.close()
        return service.engine.n_ues

    _service, n_ues = run_against_served_service(scenario)
    assert n_ues == 2


@pytest.mark.parametrize("field, bad", BAD_REPORT_FIELDS, ids=repr)
def test_wire_report_with_a_coerced_field_is_an_error(field, bad):
    async def scenario(service, host, port):
        pending = service.scheduler.pending_reports()
        message = report_payload(epoch=1)
        message[field] = bad
        reply, after = await raw_exchange(host, port, message)
        assert reply["type"] == "error" and field in reply["error"]
        assert after is None
        assert service.scheduler.pending_reports() == pending
        assert service.stats.transport_errors == 0
        # the good report for the same epoch still closes it
        client = await ServeClient(host, port).connect()
        try:
            await client.report(Report.from_payload(report_payload(epoch=1)))
            stats = await client.stats()
        finally:
            await client.close()
        return stats["epochs_closed"]

    _service, closed = run_against_served_service(scenario)
    assert closed == 2


def test_client_refuses_a_bad_id_before_sending():
    async def scenario(service, host, port):
        client = await ServeClient(host, port).connect()
        try:
            with pytest.raises(ValueError, match="ue"):
                await client.subscribe(3.7)
            await client.subscribe(np.int64(3))
        finally:
            await client.close()
        return service.engine.n_ues

    _service, n_ues = run_against_served_service(scenario)
    assert n_ues == 2
