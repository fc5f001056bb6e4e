"""The headline guarantee: offline and online features are bit-identical.

Every test here compares float64 buffers with ``tobytes()`` -- exact bit
equality, not ``allclose`` -- across the three execution paths of one
view definition:

* :meth:`FeatureView.transform_table` (the in-memory batch path),
* :meth:`OfflineMaterializer.materialize_store` (chunk by chunk over a
  columnar store, on cache miss and cache hit),
* :meth:`FeatureView.transform_row` / :class:`OnlineFeatureServer`
  (the single-row serving path),

over the deterministic edge-case table (wraparound angles, sentinel and
NaN signals, zero speed, short runs) and property-generated tables, for
all five Table-6 combinations, at any store chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.colstore import ChunkReader, ShardWriter
from repro.datasets.frame import Table
from repro.fstore import (
    COMBINATIONS,
    OfflineMaterializer,
    OnlineFeatureServer,
    combination_view,
)
from repro.radio.signal import UNAVAILABLE

from _fstore_helpers import edge_case_table, online_rows


def _online_matrix(view, rows) -> np.ndarray:
    out = np.vstack([view.transform_row(r) for r in rows])
    assert out.dtype == np.float64
    return out


class TestTransformParity:
    @pytest.mark.parametrize("spec", COMBINATIONS)
    def test_edge_cases_bit_identical(self, spec):
        t = edge_case_table()
        view = combination_view(spec, past_throughput_lags=5)
        offline = view.transform_table(t)
        online = _online_matrix(view, online_rows(t))
        assert offline.X.dtype == np.float64
        assert offline.X.tobytes() == online.tobytes()

    @pytest.mark.parametrize("lags", [1, 3, 7])
    def test_parity_holds_at_any_lag_depth(self, lags):
        t = edge_case_table()
        view = combination_view("T+M+C", past_throughput_lags=lags)
        offline = view.transform_table(t)
        online = _online_matrix(view, online_rows(t))
        assert offline.X.tobytes() == online.tobytes()

    # -- property-generated rows ------------------------------------------- #

    angles = st.one_of(st.just(float("nan")),
                       st.floats(-720.0, 1080.0, allow_nan=False))
    signals = st.one_of(
        st.just(UNAVAILABLE), st.just(UNAVAILABLE - 10.0),
        st.just(float("nan")),
        st.floats(-140.0, -40.0, allow_nan=False),
    )
    throughputs = st.floats(0.0, 2000.0, allow_nan=False)

    @st.composite
    def tables(draw):
        n = draw(st.integers(min_value=1, max_value=16))
        col = lambda strat: draw(
            st.lists(strat, min_size=n, max_size=n)
        )
        angle = TestTransformParity.angles
        signal = TestTransformParity.signals
        return Table({
            "pixel_x": col(st.floats(-100, 100, allow_nan=False)),
            "pixel_y": col(st.floats(-100, 100, allow_nan=False)),
            "moving_speed_mps": col(st.one_of(
                st.just(0.0), st.floats(0, 40, allow_nan=False))),
            "compass_direction_deg": col(angle),
            "ue_panel_distance_m": col(st.floats(allow_nan=True,
                                                 allow_infinity=False,
                                                 width=64)),
            "positional_angle_deg": col(angle),
            "mobility_angle_deg": col(angle),
            "throughput_mbps": col(TestTransformParity.throughputs),
            "run_id": col(st.integers(min_value=0, max_value=3)),
            "radio_type": np.asarray(
                col(st.sampled_from(["5G", "LTE"])), dtype=object),
            "lte_rsrp": col(signal), "lte_rsrq": col(signal),
            "lte_rssi": col(signal), "nr_ss_rsrp": col(signal),
            "nr_ss_rsrq": col(signal), "nr_ss_rssi": col(signal),
            "horizontal_handoff": col(st.sampled_from([0.0, 1.0])),
            "vertical_handoff": col(st.sampled_from([0.0, 1.0])),
        })

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_property_generated_rows_bit_identical(self, table):
        for spec in COMBINATIONS:
            view = combination_view(spec, past_throughput_lags=4)
            offline = view.transform_table(table)
            online = _online_matrix(view, online_rows(table))
            assert offline.X.tobytes() == online.tobytes(), spec


def _store(root, table, chunk_rows):
    with ShardWriter(root, chunk_rows=chunk_rows) as writer:
        writer.append({n: table[n] for n in table.column_names})
    return ChunkReader(root)


def _store_matrix(features, view) -> np.ndarray:
    got = features.read_table()
    return np.column_stack([np.asarray(got[n]) for n in view.names])


class TestOfflineParity:
    @pytest.mark.parametrize("spec", COMBINATIONS)
    def test_materializer_matches_reference(self, spec, tmp_path):
        t = edge_case_table()
        view = combination_view(spec, past_throughput_lags=5)
        reference = view.transform_table(t).X
        reader = _store(tmp_path / "raw", t, chunk_rows=3)
        mat = OfflineMaterializer(view)

        obs.set_enabled(True)
        registry = obs.get_registry()
        hits = registry.counter("fstore.cache_hits_total")
        misses = registry.counter("fstore.cache_misses_total")
        h0, m0 = hits.value, misses.value

        missed = mat.materialize_store(reader, tmp_path / "f")
        assert misses.value == m0 + 1 and hits.value == h0
        hit = mat.materialize_store(reader, tmp_path / "f")
        assert hits.value == h0 + 1

        assert _store_matrix(missed, view).tobytes() == reference.tobytes()
        assert _store_matrix(hit, view).tobytes() == reference.tobytes()
        assert missed.column_names == list(view.names) \
            == hit.column_names

    def test_chunking_invariant(self, tmp_path):
        t = edge_case_table()
        view = combination_view("T+M+C", past_throughput_lags=5)
        reference = view.transform_table(t).X
        for chunk_rows in (1, 3, 5, 1000):
            reader = _store(tmp_path / f"raw{chunk_rows}", t, chunk_rows)
            out = OfflineMaterializer(view).materialize_store(
                reader, tmp_path / f"f{chunk_rows}")
            assert _store_matrix(out, view).tobytes() == \
                reference.tobytes(), chunk_rows


class TestOnlineParity:
    def test_server_matches_offline(self):
        t = edge_case_table()
        view = combination_view("T+M+C", past_throughput_lags=5)
        reference = view.transform_table(t).X
        server = OnlineFeatureServer(view)
        for i, row in enumerate(online_rows(t)):
            assert server.vector(row).tobytes() == reference[i].tobytes()
