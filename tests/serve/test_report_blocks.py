"""Block validation of report runs against the per-message oracle.

The server validates each run of consecutive ``report`` frames at once
(:meth:`Report.from_payloads`): types element by element, then one
conversion and one finiteness check per column.  Whatever a run holds,
it must give the reports :meth:`Report.from_payload` gives message by
message up to the first invalid one, with the same bytes, and then the
same error text.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import DecisionService, Report
from repro.sim import SimulationParameters

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells

FIELDS = ("ue", "epoch", "position_km", "distance_km", "power_dbw")

#: Every way one field of one message is corrupted (:func:`corrupt`
#: skips those that do not apply to a field).
CORRUPTIONS = (
    "missing", "bool", "str", "float", "nested", "nan", "inf", "-inf",
    "huge", "wide", "negative", "length", "empty", "item_bool",
    "item_str", "item_nan", "item_huge", "item_wide",
)

#: An integer past int64 that a float64 still holds (legal everywhere).
WIDE = 2**64 + 12345


def corrupt(message: dict, field: str, kind: str, pick: int) -> bool:
    """Corrupt ``message[field]`` in place; ``False`` if ``kind`` does
    not apply to the field."""
    value = message[field]
    is_list = isinstance(value, list)
    if kind == "missing":
        del message[field]
    elif kind == "bool":
        message[field] = bool(pick % 2)
    elif kind == "str":
        message[field] = str(value)
    elif kind == "float":
        if is_list:
            return False
        message[field] = float(value)
    elif kind == "nested":
        message[field] = [value]
    elif kind in ("nan", "inf", "-inf"):
        message[field] = float(kind.replace("nan", "NaN"))
    elif kind == "huge":
        message[field] = 10 ** 400 * (1 if pick % 2 else -1)
    elif kind == "wide":
        message[field] = WIDE + pick
    elif kind == "negative":
        if is_list:
            return False
        message[field] = -1 - pick
    elif kind == "length":
        if not is_list:
            return False
        message[field] = value + value[:1] if pick % 2 else value[:-1]
    elif kind == "empty":
        if not is_list:
            return False
        message[field] = []
    else:  # one list item
        if not is_list or not value:
            return False
        item = {
            "item_bool": True,
            "item_str": "1.5",
            "item_nan": math.nan,
            "item_huge": 10 ** 400,
            "item_wide": -WIDE,
        }[kind]
        message[field] = [*value]
        message[field][pick % len(value)] = item
    return True


def plain(rng: np.random.Generator, values: np.ndarray) -> list:
    """JSON's view of ``values``: whole numbers sometimes as ints."""
    return [
        int(v) if rng.random() < 0.1 else float(v)
        for v in np.round(values, int(rng.integers(0, 12)))
    ]


def messages_for(seed: int, n: int, n_cells: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "type": "report",
            "ue": int(rng.integers(0, 10_000)),
            "epoch": int(rng.integers(0, 500)),
            "position_km": plain(rng, rng.normal(0.0, 3.0, 2)),
            "distance_km": plain(rng, rng.random(1) * 50)[0],
            "power_dbw": plain(rng, rng.normal(-90.0, 15.0, n_cells)),
        }
        for _ in range(n)
    ]


def oracle(messages: list[dict]):
    reports = []
    for message in messages:
        try:
            reports.append(Report.from_payload(message))
        except ValueError as exc:
            return reports, str(exc)
    return reports, None


def check_against_oracle(messages: list[dict], damaged: bool) -> None:
    expected, expected_error = oracle(messages)
    got, error = Report.from_payloads(messages)
    assert (None if error is None else str(error)) == expected_error
    assert error is None or type(error) is ValueError
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.ue, a.epoch) == (b.ue, b.epoch)
        assert type(a.ue) is type(b.ue) is int
        assert type(a.distance_km) is type(b.distance_km) is float
        assert a.distance_km == b.distance_km
        for name in ("position_km", "power_dbw"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.float64
            assert x.shape == y.shape
            assert x.tobytes() == y.tobytes()
    if not damaged:
        # a clean run is validated as blocks, not message by message
        assert got[0].power_dbw.base is got[-1].power_dbw.base is not None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    n_cells=st.sampled_from((1, 3, N_CELLS)),
    damaged=st.booleans(),
)
def test_block_matches_per_message_validation(seed, n, n_cells, damaged):
    messages = messages_for(seed, n, n_cells)
    if damaged:
        # which message, field and corruption: uniform, from the seed
        rng = np.random.default_rng(seed + 1)
        damaged = corrupt(
            messages[int(rng.integers(n))],
            FIELDS[int(rng.integers(len(FIELDS)))],
            CORRUPTIONS[int(rng.integers(len(CORRUPTIONS)))],
            int(rng.integers(1000)),
        )
    check_against_oracle(messages, damaged)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("field", FIELDS)
def test_every_corruption_of_every_field(field, kind):
    for pick in (0, 1):
        messages = messages_for(7, 6, N_CELLS)
        damaged = corrupt(messages[3], field, kind, pick)
        check_against_oracle(messages, damaged)


def test_empty_run():
    assert Report.from_payloads([]) == ([], None)


def test_error_follows_the_valid_prefix():
    messages = messages_for(1, 5, N_CELLS)
    del messages[3]["distance_km"]
    messages[4]["ue"] = "x"  # never reached
    reports, error = Report.from_payloads(messages)
    assert [r.ue for r in reports] == [m["ue"] for m in messages[:3]]
    assert str(error) == "invalid report payload: 'distance_km'"


def test_a_held_report_does_not_pin_its_block():
    service = DecisionService(silent_after=1, silent_policy="hold")
    for ue in (0, 1):
        service.subscribe(ue)
    messages = messages_for(2, 2, N_CELLS)
    for ue, message in enumerate(messages):
        message.update(ue=ue, epoch=0)
    reports, error = Report.from_payloads(messages)
    assert error is None
    block = weakref.ref(reports[0].power_dbw.base)
    for report in reports:
        service.submit(report)  # the second closes epoch 0
    assert service.stats.epochs_closed == 1
    del reports, report
    gc.collect()
    assert block() is None
    # the held copies still stand in for the silent UE
    service.submit(Report.from_payload({**messages[0], "epoch": 1}))
    service.force_close()
    assert service.stats.reports_held == 1
