"""Correctness checks and the result's metrics."""

import pytest

from harness import CheckFailed, Metrics, check


def test_check_raises_and_metrics_reject_duplicates_and_nan():
    with pytest.raises(CheckFailed, match="boom"):
        check(False, "boom")
    check(True, "fine")
    m = Metrics()
    m.add("wall_s", 1.5, "s")
    assert m.values == {"wall_s": {"value": 1.5, "unit": "s"}}
    with pytest.raises(ValueError):
        m.add("wall_s", 2.0, "s")
    with pytest.raises(CheckFailed):
        m.add("rows_per_s", float("nan"), "rows/s")
