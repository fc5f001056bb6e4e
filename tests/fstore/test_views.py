"""View definitions: canonical forms, fingerprints, the model handshake."""

import numpy as np
import pytest

from repro.fstore import (
    FSTORE_SCHEMA_VERSION,
    FeatureSpec,
    FeatureView,
    attach_view,
    combination_view,
    group_view,
    parse_combination,
    view_from_dict,
    view_of,
)
from repro.ml.gbdt import GBDTRegressor
from repro.ml.preprocessing import PredictionPipeline
from repro.ml.serialize import model_from_dict, model_to_dict

from _fstore_helpers import edge_case_table, online_rows


def _fitted_regressor(view, table):
    fm = view.transform_table(table)
    y = np.asarray(table["throughput_mbps"], dtype=float)
    model = GBDTRegressor(n_estimators=3, max_depth=2, random_state=0)
    model.fit(fm.X, y)
    return model


class TestCanonicalRoundTrip:
    @pytest.mark.parametrize("spec", ["L", "T+M", "T+M+C"])
    def test_view_survives_canonical_form(self, spec):
        view = combination_view(spec, past_throughput_lags=5)
        back = view_from_dict(view.canonical())
        assert back == view
        assert back.fingerprint() == view.fingerprint()

    def test_rebuilt_view_transforms_identically(self):
        t = edge_case_table()
        view = combination_view("T+M+C", 5)
        back = view_from_dict(view.canonical())
        assert back.transform_table(t).X.tobytes() == \
            view.transform_table(t).X.tobytes()
        row = online_rows(t)[3]
        assert back.transform_row(row).tobytes() == \
            view.transform_row(row).tobytes()

    def test_unknown_schema_version_rejected(self):
        data = combination_view("L", 5).canonical()
        data["fstore_schema"] = FSTORE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            view_from_dict(data)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            FeatureSpec.make("x", "no_such_op", "col")

    def test_duplicate_feature_names_rejected(self):
        spec = FeatureSpec.make("x", "cast", "a")
        with pytest.raises(ValueError, match="duplicate"):
            FeatureView(name="v", version="1", features=(spec, spec))


class TestParseCombination:
    def test_valid(self):
        assert parse_combination("L+M+C") == ["L", "M", "C"]

    @pytest.mark.parametrize("bad", ["", "Q", "L+L", "L+Q"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_combination(bad)


class TestMissingAndMalformedRows:
    def test_missing_field_raises_keyerror(self):
        view = group_view("L")
        with pytest.raises(KeyError):
            view.transform_row({"pixel_x": 1.0})  # no pixel_y

    def test_malformed_history_raises_typeerror(self):
        view = combination_view("T+M+C", 2)
        row = online_rows(edge_case_table())[0]
        row["past_throughput"] = "not-a-sequence"
        with pytest.raises(TypeError):
            view.transform_row(row)


class TestModelHandshake:
    def test_attach_and_read_stamp(self):
        view = combination_view("T+M", 5)
        model = _fitted_regressor(view, edge_case_table())
        assert view_of(model) is None
        attach_view(model, view)
        stamp = view_of(model)
        assert stamp["name"] == "T+M"
        assert stamp["version"] == "T=1,M=1"
        assert stamp["fingerprint"] == view.fingerprint()
        assert tuple(stamp["names"]) == view.names
        assert view_from_dict(stamp["view"]) == view

    def test_stamp_survives_serialization(self):
        view = combination_view("L+M", 5)
        model = _fitted_regressor(view, edge_case_table())
        attach_view(model, view)
        back = model_from_dict(model_to_dict(model))
        assert view_of(back) == view_of(model)

    def test_pipeline_stamp_survives_serialization(self):
        view = combination_view("L+M", 5)
        pipe = PredictionPipeline(
            _fitted_regressor(view, edge_case_table()))
        attach_view(pipe, view)
        back = model_from_dict(model_to_dict(pipe))
        assert view_of(back) == view_of(pipe)

    def test_predict_row_matches_batch_predict(self):
        t = edge_case_table()
        view = combination_view("T+M+C", 5)
        model = _fitted_regressor(view, t)
        pipe = PredictionPipeline(model)
        attach_view(pipe, view)
        batch = pipe.predict(view.transform_table(t).X)
        for i, row in enumerate(online_rows(t)):
            assert pipe.predict_row(row) == batch[i]

    def test_predict_row_builds_its_view_once_per_stamp(self,
                                                        monkeypatch):
        import repro.fstore

        built = []
        real = repro.fstore.view_from_dict

        def counting(data):
            built.append(data["name"])
            return real(data)

        monkeypatch.setattr(repro.fstore, "view_from_dict", counting)
        t = edge_case_table()
        view = combination_view("L+M", 5)
        pipe = PredictionPipeline(_fitted_regressor(view, t))
        attach_view(pipe, view)
        row = online_rows(t)[0]
        first = pipe.predict_row(row)
        for _ in range(99):
            assert pipe.predict_row(row) == first
        assert len(built) == 1
        # A new stamp is a new view: rebuilt once, then kept again.
        attach_view(pipe, combination_view("L", 5))
        pipe.model = _fitted_regressor(combination_view("L", 5), t)
        pipe.predict_row(row)
        pipe.predict_row(row)
        assert len(built) == 2

    def test_predict_row_needs_a_stamp(self):
        pipe = PredictionPipeline(
            _fitted_regressor(combination_view("L", 5), edge_case_table()))
        with pytest.raises(RuntimeError, match="feature_view_"):
            pipe.predict_row({"pixel_x": 1.0, "pixel_y": 2.0})
