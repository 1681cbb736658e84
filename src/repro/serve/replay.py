"""Replaying recorded fleet traces through the decision service.

A :class:`~repro.sim.tracefile.FleetTrace` is the bridge between the
offline engine and the service: ``BatchSimulator`` runs are recorded as
per-UE measurement report streams, replayed through the service (in
process, or over TCP against a live ``repro serve``), and the resulting
:class:`~repro.sim.metrics.FleetMetrics` must be **byte-identical** to
:func:`~repro.sim.tracefile.offline_reference_metrics` — the keystone
property of the whole subsystem.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import time
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from ..sim.distributed import parse_address
from ..sim.metrics import FleetMetrics
from ..sim.tracefile import FleetTrace
from ..wire import local_endpoints
from .protocol import Report, _check_row_shapes, _finite_reports, _real_array
from .server import ServeClient
from .service import DecisionService

__all__ = [
    "iter_epoch_reports",
    "service_for_trace",
    "replay_in_process",
    "replay_to_server",
    "metrics_identical",
    "identity_report",
    "spawned_server",
]


def iter_epoch_reports(
    trace: FleetTrace,
) -> Iterator[tuple[int, list[Report]]]:
    """Yield ``(epoch, reports)`` per lockstep epoch — UE ``i`` reports
    epoch ``k`` iff ``k < lengths[i]``, matching the offline engine's
    ``active`` mask.

    Each report equals ``Report(ue=i, epoch=k,
    position_km=positions_km[i, k], distance_km=float(distance_km[i, k]),
    power_dbw=power_dbw[i, k])`` and keeps views of the trace's rows
    (of its float64 conversion, for a trace of another dtype), but the
    checks run on columns: dtypes and row shapes once per trace,
    finiteness once per epoch over the walking UEs, never on padding
    past a walk's end.  A failing epoch is built report by report, so
    its first failing UE raises its ``Report``'s error after the
    earlier epochs were yielded.
    """
    lengths = np.asarray(trace.lengths)
    if not (trace.max_epochs and (lengths > 0).any()):
        return  # no UE reports: nothing to check
    position = _real_array("position_km", trace.positions_km)
    power = _real_array("power_dbw", trace.power_dbw)
    _check_row_shapes(position.shape[2:], power.shape[2:])
    distance = np.asarray(trace.distance_km, dtype=float)
    for k in range(trace.max_epochs):
        rows = np.flatnonzero(lengths > k)
        if not rows.size:
            continue
        ues = rows.tolist()
        reports = _finite_reports(
            ues, repeat(k), position[:, k], distance[:, k], power[:, k], rows
        )
        if reports is None:
            reports = [
                Report(i, k, position[i, k], float(distance[i, k]),
                       power[i, k])
                for i in ues
            ]
        yield k, reports


def service_for_trace(trace: FleetTrace, **kwargs) -> DecisionService:
    """A service configured for ``trace``'s physics, with every UE
    subscribed under its recorded speed / cohort / policy."""
    service = DecisionService(trace.params, **kwargs)
    for i in range(trace.n_ues):
        service.subscribe(
            i,
            speed_kmh=float(trace.speeds_kmh[i]),
            cohort=trace.ue_cohort(i),
            policy=trace.ue_policy(i),
        )
    return service


def replay_in_process(
    trace: FleetTrace, service: Optional[DecisionService] = None
) -> tuple[DecisionService, FleetMetrics]:
    """Stream the trace through an in-process service.

    Each UE is unsubscribed right after submitting its final report, so
    the watermark keeps closing epochs as shorter walks finish — the
    ragged-fleet equivalent of the offline ``active`` mask.
    """
    if service is None:
        service = service_for_trace(trace)
    lengths = np.asarray(trace.lengths)
    for k, reports in iter_epoch_reports(trace):
        for report in reports:
            service.submit(report)
        # NB: unsubscribing *after* the submits keeps this epoch's
        # watermark over the full reporting set
        if k + 1 < trace.max_epochs:
            for ue in np.flatnonzero(lengths == k + 1).tolist():
                service.unsubscribe(ue)
    # the last epoch's watermark fires on its own only if every UE was
    # still subscribed; flush whatever remains
    while service.scheduler.has_current_reports():
        service.force_close()
    return service, service.metrics()


async def replay_to_server(
    trace: FleetTrace,
    host: str,
    port: int,
    *,
    rate: Optional[float] = None,
) -> tuple[dict, FleetMetrics]:
    """Stream the trace to a live server over one TCP connection.

    ``rate`` paces the stream at roughly that many reports per second
    (``None`` = as fast as the socket drains).  Returns the server's
    final ``(stats, metrics)``, the metrics exact down to the per-UE
    arrays and cohort labels.
    """
    client = ServeClient(host, port)
    await client.connect()
    try:
        for i in range(trace.n_ues):
            policy = trace.ue_policy(i)
            await client.subscribe(
                i,
                speed_kmh=float(trace.speeds_kmh[i]),
                cohort=trace.ue_cohort(i),
                policy=None if policy is None else dataclasses.asdict(policy),
            )
        lengths = np.asarray(trace.lengths)
        sent = 0
        t0 = time.monotonic()
        for k, reports in iter_epoch_reports(trace):
            for report in reports:
                await client.report(report)
                sent += 1
                if rate is not None:
                    target = t0 + sent / rate
                    delay = target - time.monotonic()
                    if delay > 0:
                        await asyncio.sleep(delay)
            if k + 1 < trace.max_epochs:
                for ue in np.flatnonzero(lengths == k + 1).tolist():
                    await client.unsubscribe(ue)
        # stats doubles as a flush barrier: requests are serial per
        # connection, so once it returns every report has been
        # ingested.  Force-close any epochs the watermark didn't
        # finish (a ragged tail with no deadline timer).
        stats = await client.stats()
        while stats["pending_reports"] > 0:
            await client.close_epoch()
            stats = await client.stats()
        metrics = await client.metrics()
        return stats, metrics
    finally:
        await client.close()


def metrics_identical(a: FleetMetrics, b: FleetMetrics) -> bool:
    """Exact (byte-level) equality: scalar summary plus all per-UE
    arrays (``FleetMetrics.__eq__`` ignores the arrays)."""
    return not identity_report(a, b)


def identity_report(a: FleetMetrics, b: FleetMetrics) -> list[str]:
    """Human-readable list of mismatching fields (empty = identical)."""
    problems = []
    if a != b:
        problems.append(
            f"scalar summary differs: {a.as_dict()} != {b.as_dict()}"
        )
    theirs = b.per_ue()
    for name, x in a.per_ue().items():
        y = theirs[name]
        if x.shape != y.shape or not np.array_equal(x, y):
            problems.append(f"per-UE field {name!r} differs")
    if a.cohort_names != b.cohort_names:
        problems.append(
            f"cohort_names differ: {a.cohort_names} != {b.cohort_names}"
        )
    ca, cb = a.cohort_ids_per_ue, b.cohort_ids_per_ue
    if (ca is None) != (cb is None) or (
        ca is not None and not np.array_equal(ca, cb)
    ):
        problems.append("cohort_ids differ")
    return problems


@contextlib.contextmanager
def spawned_server() -> Iterator[tuple[str, int]]:
    """Run ``repro serve`` as a subprocess (see
    :func:`repro.wire.local_endpoints`); yields ``(host, port)``."""
    with local_endpoints([["serve"]]) as (address,):
        yield parse_address(address)
