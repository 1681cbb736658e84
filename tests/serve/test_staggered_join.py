"""Staggered joins and pauses: the service epoch is not the local epoch.

Every lockstep replay reports UE ``i``'s epoch ``k`` in service epoch
``k``, so it cannot tell the two epoch counters apart.  Here each UE
joins late and pauses between reports: its reports keep their order but
land in later service epochs, and every epoch the watermark leaves open
is force-closed.  Dwell and every other counter must still be charged
to the UE's own local epoch, reproducing the offline engine exactly.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FuzzyHandoverSystem
from repro.serve import Report, identity_report, service_for_trace
from repro.sim import (
    BatchMeasurementSeries,
    BatchSimulator,
    PolicyConfig,
    SimulationParameters,
    named_population,
    offline_reference_metrics,
    record_fleet_trace,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def trace_urban_lagged():
    """urban_mix with a vehicular cohort on its own threshold and a
    two-epoch CSSP lag: two policies with different windows."""
    params = SimulationParameters(
        shadow_sigma_db=4.0, measurement_spacing_km=0.25
    )
    population = named_population("urban_mix", 9, params, base_seed=91)
    lagged = PolicyConfig(threshold=0.75, cssp_lag=2)
    cohorts = tuple(
        dataclasses.replace(c, policy=lagged) if c.name == "vehicular" else c
        for c in population.cohorts
    )
    return record_fleet_trace(dataclasses.replace(population, cohorts=cohorts))


def offline_events(trace) -> list[tuple]:
    """Every handover of the offline engine, one pass per policy over
    that policy's UEs, as sorted ``(ue, local_epoch, source, target,
    output)`` tuples."""
    groups = defaultdict(list)
    for i in range(trace.n_ues):
        groups[trace.ue_policy(i)].append(i)
    series = trace.series()
    events = []
    for policy, members in groups.items():
        idx = np.asarray(members)
        if policy is None:
            system = FuzzyHandoverSystem(
                cell_radius_km=trace.params.cell_radius_km,
                flc_backend=trace.params.flc_backend,
            )
        else:
            system = policy.make_system(
                trace.params.cell_radius_km,
                flc_backend=trace.params.flc_backend,
            )
        sub = BatchMeasurementSeries(
            positions_km=series.positions_km[idx],
            distance_km=series.distance_km[idx],
            power_dbw=series.power_dbw[idx],
            lengths=series.lengths[idx],
            layout=series.layout,
        )
        result = BatchSimulator(
            system, speed_kmh=trace.speeds_kmh[idx]
        ).run(sub)
        events += zip(
            idx[result.event_ue].tolist(),
            result.event_step.tolist(),
            result.event_source.tolist(),
            result.event_target.tolist(),
            result.event_output.tolist(),
        )
    return sorted(events)


@st.composite
def schedules(draw, lengths):
    """``{service_epoch: [(ue, local_epoch), ...]}``: UE ``i`` joins at a
    drawn offset and pauses a few epochs before some of its reports."""
    slots = defaultdict(list)
    for ue, t in enumerate(lengths):
        delay = draw(st.integers(0, 6))
        pauses = draw(
            st.dictionaries(
                st.integers(1, max(1, t - 1)), st.integers(1, 3), max_size=3
            )
        )
        for k in range(t):
            delay += pauses.get(k, 0)
            slots[delay + k].append((ue, k))
    return slots


@pytest.mark.parametrize("name", ["fading", "urban_lagged"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_staggered_joins_match_offline(name, data, trace_n7,
                                       trace_urban_lagged):
    trace = {"fading": trace_n7, "urban_lagged": trace_urban_lagged}[name]
    lengths = [int(t) for t in trace.lengths]
    schedule = data.draw(schedules(lengths))

    service = service_for_trace(trace)
    listener = service.attach_listener()
    commands = []
    for epoch in range(max(schedule) + 1):
        for ue, k in schedule.get(epoch, ()):
            report = Report(
                ue=ue,
                epoch=epoch,
                position_km=trace.positions_km[ue, k],
                distance_km=float(trace.distance_km[ue, k]),
                power_dbw=trace.power_dbw[ue, k],
            )
            assert service.submit(report) == "accepted"
        if service.scheduler.current_epoch == epoch:
            service.force_close()
        # a listener holds 256 epochs and sheds the oldest: drain it
        commands += [c for b in listener.pop_all() for c in b.commands]
    assert listener.dropped == 0

    problems = identity_report(
        service.metrics(), offline_reference_metrics(trace)
    )
    assert not problems, "\n".join(problems)
    streamed = sorted(
        (c.ue, c.local_epoch, c.source, c.target, c.output)
        for c in commands
    )
    assert streamed == offline_events(trace)
