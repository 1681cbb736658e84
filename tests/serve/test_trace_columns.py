"""Column replay of recorded traces against per-report construction.

:func:`iter_epoch_reports` checks a trace's dtypes and row shapes once,
and each epoch's finiteness once over the UEs still walking, then makes
reports whose arrays are rows of the trace.  Whatever a trace holds, it
must yield what building one checked ``Report`` per UE and epoch yields:
the same epochs, the same reports with the same bytes and Python types,
and then the same error text at the same epoch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import Report, iter_epoch_reports
from repro.sim import FleetTrace

pytestmark = pytest.mark.serve

NONFINITE = (math.nan, math.inf, -math.inf)
ARRAYS = ("positions_km", "distance_km", "power_dbw")


def oracle(trace: FleetTrace):
    """One checked :class:`Report` per UE and epoch, in UE order."""
    lengths = np.asarray(trace.lengths)
    for k in range(trace.max_epochs):
        reports = [
            Report(
                ue=i,
                epoch=k,
                position_km=trace.positions_km[i, k],
                distance_km=float(trace.distance_km[i, k]),
                power_dbw=trace.power_dbw[i, k],
            )
            for i in range(trace.n_ues)
            if k < lengths[i]
        ]
        if reports:
            yield k, reports


def drain(epochs) -> tuple[list, "str | None"]:
    """The ``(epoch, reports)`` pairs yielded before the first
    ``ValueError``, and its text (``None`` when there is none)."""
    got = []
    try:
        for k, reports in epochs:
            got.append((k, reports))
    except ValueError as exc:
        return got, str(exc)
    return got, None


@contextlib.contextmanager
def checked_one_by_one() -> Iterator[list]:
    """The reports that run ``Report.__post_init__`` meanwhile."""
    checked = []
    post_init = Report.__post_init__

    def counted(report):
        checked.append(report)
        post_init(report)

    Report.__post_init__ = counted
    try:
        yield checked
    finally:
        Report.__post_init__ = post_init


def check_against_oracle(trace: FleetTrace) -> tuple[list, "str | None"]:
    expected, expected_error = drain(oracle(trace))
    with checked_one_by_one() as checked:
        got, error = drain(iter_epoch_reports(trace))
    assert error == expected_error
    if error is None:
        assert not checked  # every epoch took the column path
    assert [k for k, _ in got] == [k for k, _ in expected]
    views = all(
        getattr(trace, name).dtype == np.float64
        for name in ("positions_km", "power_dbw")
    )
    for (_, reports), (_, want) in zip(got, expected):
        assert len(reports) == len(want)
        for a, b in zip(reports, want):
            assert type(a) is Report
            assert (a.ue, a.epoch) == (b.ue, b.epoch)
            assert type(a.ue) is type(a.epoch) is int
            assert type(a.distance_km) is type(b.distance_km) is float
            assert a.distance_km == b.distance_km
            for name, source in (
                ("position_km", trace.positions_km),
                ("power_dbw", trace.power_dbw),
            ):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype == np.float64
                assert x.shape == y.shape
                assert x.tobytes() == y.tobytes()
                if views:
                    # a row of the trace, as the per-report path keeps
                    assert np.shares_memory(x, source)
                    assert x.base is y.base
    return got, error


def with_arrays(trace: FleetTrace, **arrays) -> FleetTrace:
    return dataclasses.replace(trace, **arrays)


def copied(trace: FleetTrace) -> dict:
    return {name: getattr(trace, name).copy() for name in ARRAYS}


def test_ragged_homogeneous_fading_trace(trace_n32):
    assert len(set(trace_n32.lengths.tolist())) > 1  # ragged
    got, error = check_against_oracle(trace_n32)
    assert error is None
    assert sum(len(reports) for _, reports in got) == trace_n32.lengths.sum()


def test_urban_mix_trace(trace_population_mix):
    got, error = check_against_oracle(trace_population_mix)
    assert error is None
    assert sum(len(r) for _, r in got) == trace_population_mix.lengths.sum()


@pytest.mark.parametrize(
    "dtype", [np.float32, np.float16, np.int64, np.int32, np.uint16]
)
def test_other_real_dtypes_are_converted(trace_n7, dtype):
    """Converted as ``_real_array`` converts a report's arrays, and the
    distance as ``float()`` converts each value."""
    arrays = {
        name: np.round(np.abs(getattr(trace_n7, name)) * 10).astype(dtype)
        for name in ARRAYS
    }
    _, error = check_against_oracle(with_arrays(trace_n7, **arrays))
    assert error is None


def test_boolean_distances_are_accepted(trace_n7):
    # float() takes a boolean; only the array fields refuse one
    trace = with_arrays(trace_n7, distance_km=trace_n7.distance_km > 1.0)
    _, error = check_against_oracle(trace)
    assert error is None


@pytest.mark.parametrize(
    "names,text",
    [
        (ARRAYS, "position_km must hold real numbers, got dtype bool"),
        (("power_dbw",), "power_dbw must hold real numbers, got dtype bool"),
    ],
)
def test_boolean_arrays_are_refused(trace_n7, names, text):
    trace = with_arrays(
        trace_n7, **{name: getattr(trace_n7, name) > 0 for name in names}
    )
    got, error = check_against_oracle(trace)
    assert (got, error) == ([], text)


def test_zero_cell_trace_is_refused(trace_n7):
    trace = with_arrays(trace_n7, power_dbw=trace_n7.power_dbw[:, :, :0])
    got, error = check_against_oracle(trace)
    assert (got, error) == (
        [], "power_dbw must be a non-empty 1-D vector, got shape (0,)"
    )


def test_a_trace_without_reports_checks_nothing(trace_n7):
    trace = with_arrays(
        trace_n7,
        power_dbw=trace_n7.power_dbw[:, :, :0] > 0,
        lengths=np.zeros_like(trace_n7.lengths),
    )
    assert check_against_oracle(trace) == ([], None)


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize(
    "name,field",
    [
        ("positions_km", "position_km"),
        ("distance_km", "distance_km"),
        ("power_dbw", "power_dbw"),
    ],
)
def test_nonfinite_value_in_a_walk_is_refused_at_its_epoch(
    trace_n7, name, field, value
):
    # the last epoch of UE 3's walk; UE 5 walks on and fails it too,
    # and the first UE's error wins
    ue, later, epoch = 3, 5, 7
    assert trace_n7.lengths[ue] == epoch + 1 < trace_n7.lengths[later]
    arrays = copied(trace_n7)
    arrays[name][ue, epoch, ...] = value
    arrays["power_dbw"][later, epoch, 0] = math.nan
    got, error = check_against_oracle(with_arrays(trace_n7, **arrays))
    assert error == f"{field} must be finite"
    assert [k for k, _ in got] == list(range(epoch))


def test_nonfinite_padding_is_accepted(trace_n32):
    lengths = trace_n32.lengths
    assert lengths.min() < trace_n32.max_epochs
    arrays = copied(trace_n32)
    for ue, n in enumerate(lengths.tolist()):
        for name in ARRAYS:
            arrays[name][ue, n:] = math.nan
    _, error = check_against_oracle(with_arrays(trace_n32, **arrays))
    assert error is None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    t=st.integers(1, 9),
    n_cells=st.sampled_from((1, 3, 19)),
    dtype=st.sampled_from((np.float64, np.float32, np.int64)),
    damage=st.sampled_from(("none", "walk", "padding")),
)
def test_random_traces_match_per_report_construction(
    seed, n, t, n_cells, dtype, damage
):
    rng = np.random.default_rng(seed)
    arrays = {
        "positions_km": rng.normal(0.0, 3.0, (n, t, 2)),
        "distance_km": rng.random((n, t)) * 50,
        "power_dbw": rng.normal(-90.0, 15.0, (n, t, n_cells)),
    }
    arrays = {name: a.astype(dtype) for name, a in arrays.items()}
    lengths = rng.integers(0, t + 1, n)
    ue = int(rng.integers(n))
    lo, hi = (0, lengths[ue]) if damage == "walk" else (lengths[ue], t)
    if damage != "none" and dtype is not np.int64 and lo < hi:
        # one value inside a walk, or past its end
        name = ARRAYS[int(rng.integers(3))]
        index = (ue, int(rng.integers(lo, hi)))
        if name != "distance_km":
            index += (int(rng.integers(arrays[name].shape[2])),)
        arrays[name][index] = NONFINITE[int(rng.integers(3))]
    trace = FleetTrace(lengths=lengths, speeds_kmh=np.zeros(n), **arrays)
    check_against_oracle(trace)
