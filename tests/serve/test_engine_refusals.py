"""The decision engine refuses a malformed epoch batch whole.

:meth:`StreamingFleetEngine.step_epoch` refuses three kinds of batch —
a report from an unregistered UE, two reports from one UE, a power
vector of the wrong cell count — with a :class:`ValueError` that names
the first offending report in batch order, and it mutates nothing on
the way: the supervisor's rollback and every caller that catches the
error rely on the engine being exactly where it was.  A batch it
accepts yields its commands in report order, as Python values.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from repro.serve import Report, iter_epoch_reports
from repro.serve.engine import StreamingFleetEngine
from repro.sim import SimulationParameters

pytestmark = pytest.mark.serve

LAYOUT = SimulationParameters().make_layout()
N_CELLS = LAYOUT.n_cells


def make_report(ue: int, epoch: int = 0, n_cells: int = N_CELLS) -> Report:
    power = np.full(n_cells, -120.0)
    power[(ue + epoch) % n_cells] = -70.0 - ue
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(0.1 * ue, -0.2 * epoch),
        distance_km=0.05 * (epoch + 1),
        power_dbw=power,
    )


UES = (0, 1, 2, 3)


def make_engine() -> StreamingFleetEngine:
    engine = StreamingFleetEngine(LAYOUT)
    for ue in UES:
        engine.add_ue(ue, speed_kmh=3.0 * ue)
    return engine


def bad_cells(ue: int) -> Report:
    return make_report(ue, n_cells=3)


UNREGISTERED = "report from unregistered UE 9"
DUPLICATE = "UE 1 has two reports in one epoch batch"
CELLS = f"UE 2 reported 3 cells, layout has {N_CELLS}"

#: batch -> the message its first offending report raises
REFUSED = {
    "unregistered": ([make_report(0), make_report(9)], UNREGISTERED),
    "duplicate": ([make_report(1), make_report(0), make_report(1)], DUPLICATE),
    "cells": ([make_report(0), bad_cells(2)], CELLS),
    "unregistered-first": (
        [make_report(9), make_report(1), make_report(1), bad_cells(2)],
        UNREGISTERED,
    ),
    "duplicate-first": (
        [make_report(1), make_report(1), bad_cells(2), make_report(9)],
        DUPLICATE,
    ),
    "cells-first": (
        [bad_cells(2), make_report(9), make_report(1), make_report(1)],
        CELLS,
    ),
    # a UE's second report is refused as a duplicate before its cells
    # are looked at
    "duplicate-with-bad-cells": (
        [make_report(1), make_report(0), bad_cells(1)], DUPLICATE,
    ),
    # the first report of a UE is refused for its cells before a later
    # duplicate of it is reached
    "bad-cells-then-duplicate": (
        [make_report(0), bad_cells(2), make_report(2)], CELLS,
    ),
    # one short and one long vector hold as many numbers as two good
    # ones: each report's length is checked, not the batch's total
    "cells-that-sum-right": (
        [
            make_report(0),
            make_report(2, n_cells=N_CELLS - 1),
            make_report(3, n_cells=N_CELLS + 1),
        ],
        f"UE 2 reported {N_CELLS - 1} cells, layout has {N_CELLS}",
    ),
}


def assert_same_state(before: dict, after: dict) -> None:
    assert after.keys() == before.keys()
    for key in before:
        if key == "state":
            assert after[key].keys() == before[key].keys()
            for name, array in before[key].items():
                np.testing.assert_array_equal(after[key][name], array)
                assert after[key][name].dtype == array.dtype
        else:
            assert after[key] == before[key]


@pytest.mark.parametrize("case", REFUSED)
def test_refusal_names_the_first_offending_report(case):
    reports, message = REFUSED[case]
    engine = make_engine()
    with pytest.raises(ValueError) as exc:
        engine.step_epoch(reports)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", REFUSED)
def test_refused_batch_mutates_nothing(case):
    """A warmed-up engine refuses the batch and is left exactly as it
    was: its state, its registry and its epoch count; the next batch
    then decides as on an engine that never saw the refused one."""
    reports, _ = REFUSED[case]
    engine, twin = make_engine(), make_engine()
    for epoch in range(3):
        warm = [make_report(ue, epoch) for ue in UES]
        engine.step_epoch(warm)
        twin.step_epoch(warm)
    before = engine.state_dict()
    with pytest.raises(ValueError):
        engine.step_epoch(reports, epoch=7)
    assert engine.epochs_processed == 3
    assert_same_state(before, engine.state_dict())
    following = [make_report(ue, 3) for ue in (3, 1, 0)]
    assert engine.step_epoch(following) == twin.step_epoch(following)
    assert_same_state(twin.state_dict(), engine.state_dict())


def test_empty_batch_counts_an_epoch():
    engine = make_engine()
    assert engine.step_epoch([]) == []
    assert engine.epochs_processed == 1


def test_commands_follow_report_order_as_python_values(trace_n7):
    """Each UE's decisions do not depend on where its report sits in the
    batch, so reversing every batch reverses every epoch's commands."""

    def run(order):
        engine = StreamingFleetEngine(trace_n7.params.make_layout())
        for ue in range(trace_n7.n_ues):
            engine.add_ue(ue, speed_kmh=float(trace_n7.speeds_kmh[ue]))
        return [
            engine.step_epoch(order(reports), epoch=k)
            for k, reports in iter_epoch_reports(trace_n7)
        ]

    forward = run(list)
    backward = run(lambda reports: reports[::-1])
    assert sum(map(len, forward)) > 0
    assert backward == [commands[::-1] for commands in forward]
    for command in chain.from_iterable(forward):
        for name in ("ue", "epoch", "local_epoch", "source", "target"):
            assert type(getattr(command, name)) is int
        assert type(command.output) is float
