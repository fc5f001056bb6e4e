"""The compiled row plan against the per-feature oracle, bit for bit.

``FeatureView.transform_row`` runs each group of like features through
its batch kernel in one call.  ``_row_oracle`` keeps the per-feature
form it replaced (one kernel call on a one-value array per feature).
Here the two must agree -- ``tobytes()``-equal vectors on every valid
row, the same exception class on every malformed one -- for all fifteen
combinations of the Table-6 groups, plus the plan's own promises: one
cyclic encoding per source and one history check per row.
"""

import itertools
import math

import numpy as np
import pytest

from repro.fstore import (
    PAST_THROUGHPUT_FIELD,
    PRIMARY_GROUPS,
    combination_view,
)
from repro.fstore import ops
from repro.radio.signal import UNAVAILABLE

from _fstore_helpers import edge_case_table, online_rows
from _row_oracle import transform_row as oracle_row

#: All 15 non-empty combinations of the four primary groups, in order.
ALL_COMBINATIONS = tuple(
    "+".join(groups)
    for k in range(1, len(PRIMARY_GROUPS) + 1)
    for groups in itertools.combinations(PRIMARY_GROUPS, k)
)
LAGS = 5

#: A request row as JSON decodes it: Python floats, ints, str, lists.
BASE_ROW = {
    "pixel_x": 12.0, "pixel_y": -3.5,
    "moving_speed_mps": 1.4, "compass_direction_deg": 359.9999,
    "ue_panel_distance_m": 42.0, "positional_angle_deg": 15.0,
    "mobility_angle_deg": 90.0,
    "throughput_mbps": 512.0, "run_id": 3, "radio_type": "5G",
    "lte_rsrp": -85.0, "lte_rsrq": -10.5, "lte_rssi": -60.0,
    "nr_ss_rsrp": -95.0, "nr_ss_rsrq": -11.0, "nr_ss_rssi": -70.0,
    "horizontal_handoff": 0, "vertical_handoff": 1,
    PAST_THROUGHPUT_FIELD: [500.0, 480.5, 470.0, 460.25, 450.0, 440.0],
}
ANGLES = ("compass_direction_deg", "positional_angle_deg",
          "mobility_angle_deg")
SIGNALS = ("lte_rsrp", "lte_rsrq", "lte_rssi",
           "nr_ss_rsrp", "nr_ss_rsrq", "nr_ss_rssi")
CYCLIC_SOURCES = ("compass_direction_deg", "mobility_angle_deg")

#: Overrides of BASE_ROW covering every documented hazard.
EDGE_OVERRIDES = [
    {},
    # NaN readings everywhere a float is read
    {name: math.nan for name in ("pixel_x", "moving_speed_mps",
                                 "ue_panel_distance_m", *ANGLES,
                                 *SIGNALS)},
    # the UNAVAILABLE sentinel, at, below and just above the threshold
    {"lte_rsrp": UNAVAILABLE, "lte_rsrq": UNAVAILABLE - 5.0,
     "nr_ss_rsrp": UNAVAILABLE + 1.0, "nr_ss_rssi": UNAVAILABLE + 1.5},
    # wraparound, negative and coterminal angles
    {"compass_direction_deg": 0.0, "mobility_angle_deg": 360.0,
     "positional_angle_deg": -90.0},
    {"compass_direction_deg": -1e-69, "mobility_angle_deg": -360.0,
     "positional_angle_deg": 720.5},
    {"compass_direction_deg": -0.0, "mobility_angle_deg": 1080.0},
    # histories shorter than, equal to and empty against the lag depth
    {PAST_THROUGHPUT_FIELD: []},
    {PAST_THROUGHPUT_FIELD: [333.0]},
    {PAST_THROUGHPUT_FIELD: [333.0, 222.0]},
    {PAST_THROUGHPUT_FIELD: [1.0, 2.0, 3.0, 4.0, 5.0]},
    {PAST_THROUGHPUT_FIELD: None},
    {PAST_THROUGHPUT_FIELD: (7.5, 8.5, 9.5)},
    {PAST_THROUGHPUT_FIELD: np.asarray([7.5])},
    # numeric strings, in fields and in the history
    {"pixel_x": "12.25", "moving_speed_mps": " 3 ", "lte_rsrp": "-85.5",
     "compass_direction_deg": "1e2", "mobility_angle_deg": "nan",
     "horizontal_handoff": "1"},
    {PAST_THROUGHPUT_FIELD: ["410.5", "400"]},
    # None reads as NaN
    {"pixel_y": None, "positional_angle_deg": None,
     "compass_direction_deg": None, "nr_ss_rsrq": None,
     "radio_type": None},
    # bools and ints where floats are expected
    {"pixel_x": True, "pixel_y": False, "horizontal_handoff": True,
     "vertical_handoff": False, "compass_direction_deg": True,
     "lte_rssi": 7, "radio_type": True},
    {"radio_type": "LTE", "run_id": "7", "throughput_mbps": 0},
    {"radio_type": 5, "pixel_x": 2**70, "moving_speed_mps": -0.0},
    # numpy scalars, as rows built from a column table carry them
    {"pixel_x": np.float32(0.1), "lte_rsrp": np.int64(-85),
     "radio_type": np.str_("5G"), "mobility_angle_deg": np.float64(270)},
]

#: Malformed field values: each raises in the oracle and in the plan.
MALFORMED = [
    ("missing", None),
    ("non-numeric string", "fast"),
    ("dict", {"value": 1.0}),
    ("nested list", [1.0, 2.0]),
    ("one-element list", [1.0]),
    ("empty list", []),
]
MALFORMED_HISTORY = [
    ("string", "500.0"),
    ("dict", {"t-1": 500.0}),
    ("None entry", [500.0, None]),
    ("non-numeric entry", ["fast"]),
    ("nested entry", [[500.0]]),
    # Both read the history with `or ()`, which has no truth value for
    # a numpy array of two or more samples (ValueError).
    ("numpy array", np.asarray([500.0, 480.0])),
]


def edge_rows() -> list[dict]:
    rows = [dict(BASE_ROW, **override) for override in EDGE_OVERRIDES]
    return rows + online_rows(edge_case_table())


def outcome(fn, view, row):
    """('ok', vector bytes) or ('raise', exception class)."""
    try:
        return "ok", fn(view, row).tobytes()
    except Exception as exc:  # the class is what is compared
        return "raise", type(exc)


def plan_row(view, row):
    return view.transform_row(row)


@pytest.mark.parametrize("spec", ALL_COMBINATIONS)
def test_plan_matches_oracle_on_edge_rows(spec):
    view = combination_view(spec, past_throughput_lags=LAGS)
    for i, row in enumerate(edge_rows()):
        got = view.transform_row(row)
        want = oracle_row(view, row)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (spec, i)


@pytest.mark.parametrize("spec", ALL_COMBINATIONS)
@pytest.mark.parametrize("label,bad", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_malformed_field_raises_like_oracle(spec, label, bad):
    view = combination_view(spec, past_throughput_lags=LAGS)
    for field in view.source_columns():
        row = dict(BASE_ROW, **{PAST_THROUGHPUT_FIELD: []})
        if label == "missing":
            del row[field]
        else:
            row[field] = bad
        got = outcome(plan_row, view, row)
        want = outcome(oracle_row, view, row)
        if isinstance(bad, list) and field in CYCLIC_SOURCES:
            # Deliberate difference: the oracle fed a list into the
            # angle encoder as a 2-D array and either returned the
            # encoding of its first element or raised IndexError (the
            # empty list).  The plan rejects any sequence where a
            # scalar reading belongs.
            assert got == ("raise", TypeError), (spec, field)
            continue
        assert want[0] == "raise" or field in ("run_id", "radio_type"), (
            spec, field, label, want)
        assert got == want, (spec, field, label)


@pytest.mark.parametrize("label,bad", MALFORMED_HISTORY,
                         ids=[m[0] for m in MALFORMED_HISTORY])
def test_malformed_history_raises_like_oracle(label, bad):
    view = combination_view("L+M+C", past_throughput_lags=LAGS)
    row = dict(BASE_ROW, **{PAST_THROUGHPUT_FIELD: bad})
    want = outcome(oracle_row, view, row)
    assert want[0] == "raise"
    assert outcome(plan_row, view, row) == want


def test_non_mapping_row_raises_like_oracle():
    view = combination_view("L+M+C", past_throughput_lags=LAGS)
    for row in ([1.0, 2.0], "row", None):
        assert outcome(plan_row, view, row) == \
            outcome(oracle_row, view, row)


def test_cyclic_encode_runs_once_per_source(monkeypatch):
    """Sin and cos of one angle come from one encoding of it."""
    encoded = []
    real = ops.cyclic_encode

    def counting(values):
        encoded.extend(np.asarray(values, dtype=float).tolist())
        return real(values)

    monkeypatch.setattr(ops, "cyclic_encode", counting)
    view = combination_view("T+M+C", past_throughput_lags=LAGS)
    row = dict(BASE_ROW, compass_direction_deg=12.5,
               mobility_angle_deg=250.0)
    view.transform_row(row)
    assert sorted(encoded) == [12.5, 250.0]
    encoded.clear()
    view.transform_row(row)  # the compiled plan, reused
    assert sorted(encoded) == [12.5, 250.0]


def test_history_is_read_once_per_row():
    """Five lag features validate one row's history once, not five times."""

    class CountingRow(dict):
        reads = 0

        def get(self, key, default=None):
            if key == PAST_THROUGHPUT_FIELD:
                CountingRow.reads += 1
            return super().get(key, default)

    view = combination_view("L+M+C", past_throughput_lags=LAGS)
    row = CountingRow(BASE_ROW)
    assert view.transform_row(row).tobytes() == \
        oracle_row(view, dict(BASE_ROW)).tobytes()
    assert CountingRow.reads == 1
