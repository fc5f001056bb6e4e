"""Deterministic fault injection: spec parsing, scheduling, activation."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.resil import faults
from repro.resil.faults import (
    DEFAULT_SEED,
    FaultError,
    FaultInjector,
    parse_spec,
    unit_hash,
)


class TestParseSpec:
    def test_basic_pairs(self):
        assert parse_spec("a:0.1,b:0.05") == {"a": 0.1, "b": 0.05}

    def test_whitespace_and_trailing_comma(self):
        assert parse_spec(" a : 0.5 , ") == {"a": 0.5}

    def test_empty_string_is_empty_schedule(self):
        assert parse_spec("") == {}

    def test_dotted_point_names(self):
        spec = parse_spec("par.worker_crash:0.1,serve.model_load:1")
        assert spec == {"par.worker_crash": 0.1, "serve.model_load": 1.0}

    @pytest.mark.parametrize("bad", [
        "a", "a:", "a:x", ":0.5", "a:1.5", "a:-0.1",
    ])
    def test_malformed_tokens_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


class TestUnitHash:
    def test_in_unit_interval(self):
        for i in range(200):
            u = unit_hash(7, "point", i)
            assert 0.0 <= u < 1.0

    def test_deterministic(self):
        assert unit_hash(3, "a", (1, 2)) == unit_hash(3, "a", (1, 2))

    def test_sensitive_to_every_part(self):
        base = unit_hash(3, "a", 1, 0)
        assert unit_hash(4, "a", 1, 0) != base
        assert unit_hash(3, "b", 1, 0) != base
        assert unit_hash(3, "a", 2, 0) != base
        assert unit_hash(3, "a", 1, 1) != base

    def test_roughly_uniform(self):
        draws = [unit_hash(0, "u", i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestInjectorSchedule:
    def test_same_seed_same_decisions(self):
        keys = [(i, a) for i in range(40) for a in range(2)]
        a = FaultInjector({"p": 0.3}, seed=11)
        b = FaultInjector({"p": 0.3}, seed=11)
        assert [a.should_fire("p", k) for k in keys] \
            == [b.should_fire("p", k) for k in keys]

    def test_different_seed_differs(self):
        keys = list(range(64))
        a = FaultInjector({"p": 0.3}, seed=1)
        b = FaultInjector({"p": 0.3}, seed=2)
        assert [a.should_fire("p", k) for k in keys] \
            != [b.should_fire("p", k) for k in keys]

    def test_key_order_invisible(self):
        """Decisions keyed by task index cannot depend on query order --
        the property that makes the schedule worker-count invariant."""
        keys = list(range(50))
        forward = FaultInjector({"p": 0.4}, seed=5)
        backward = FaultInjector({"p": 0.4}, seed=5)
        by_key_fwd = {k: forward.should_fire("p", k) for k in keys}
        by_key_bwd = {k: backward.should_fire("p", k)
                      for k in reversed(keys)}
        assert by_key_fwd == by_key_bwd

    def test_occurrence_rerolls_retries(self):
        """Repeat queries of one (point, key) draw fresh -- but still
        reproducible -- decisions, so a retry isn't doomed to repeat."""
        a = FaultInjector({"p": 0.5}, seed=9)
        b = FaultInjector({"p": 0.5}, seed=9)
        seq_a = [a.should_fire("p", "k") for _ in range(32)]
        seq_b = [b.should_fire("p", "k") for _ in range(32)]
        assert seq_a == seq_b
        assert True in seq_a and False in seq_a  # actually re-rolls

    def test_rate_one_always_fires_rate_zero_never(self):
        inj = FaultInjector({"hot": 1.0, "cold": 0.0}, seed=0)
        assert all(inj.should_fire("hot", i) for i in range(20))
        assert not any(inj.should_fire("cold", i) for i in range(20))

    def test_unknown_point_never_fires(self):
        assert not FaultInjector({"p": 1.0}).should_fire("other")

    def test_armed(self):
        assert FaultInjector({"p": 0.1}).armed
        assert not FaultInjector({"p": 0.0}).armed
        assert not FaultInjector().armed

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector({"p": 1.5})

    def test_reset_schedule_replays(self):
        inj = FaultInjector({"p": 0.5}, seed=9)
        first = [inj.should_fire("p", "k") for _ in range(8)]
        inj.reset_schedule()
        assert [inj.should_fire("p", "k") for _ in range(8)] == first


class TestActivation:
    def test_unset_env_is_a_noop(self):
        faults.inject("par.worker_crash", key=0)  # must not raise
        assert faults.corrupt("cache.corrupt", key="k") is False
        assert not faults.active_injector().armed

    def test_env_spec_drives_the_injector(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "par.worker_crash:1.0")
        with pytest.raises(FaultError) as excinfo:
            faults.inject("par.worker_crash", key=(3, 0))
        assert excinfo.value.point == "par.worker_crash"
        assert excinfo.value.key == (3, 0)

    def test_env_change_rebuilds_injector(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "p:0.0")
        assert not faults.active_injector().armed
        monkeypatch.setenv(faults.FAULTS_ENV, "p:1.0")
        assert faults.active_injector().armed

    def test_env_seed_knob(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "p:0.5")
        assert faults.active_injector().seed == DEFAULT_SEED
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "7")
        assert faults.active_injector().seed == 7

    def test_configure_pins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "p:1.0")
        faults.configure(None)
        assert not faults.active_injector().armed
        faults.reset()
        assert faults.active_injector().armed

    def test_configure_accepts_spec_string(self):
        inj = faults.configure("a:0.25", seed=4)
        assert faults.active_injector() is inj
        assert inj.rates == {"a": 0.25}
        assert inj.seed == 4

    def test_injections_counted(self):
        obs.set_enabled(True)
        registry = obs.get_registry()
        before = registry.counter("resil.faults.injected_total").value
        faults.configure("par.worker_crash:1.0")
        with pytest.raises(FaultError):
            faults.inject("par.worker_crash", key=1)
        assert registry.counter("resil.faults.injected_total").value \
            == before + 1
        assert registry.counter(
            "resil.fault.par.worker_crash_total").value >= 1


class TestCatalog:
    def test_core_seams_registered(self):
        points = faults.registered_points()
        for point in (
            "par.worker_crash", "cache.corrupt", "serve.model_load",
            "serve.predict", "sim.pass_crash", "datasets.area_crash",
        ):
            assert point in points, point
            assert points[point]  # described

    def test_docs_table_names_every_registered_point(self):
        """docs/robustness.md's "Registered points" table lists exactly
        the catalog, once every module that registers a seam is loaded."""
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "robustness.md").read_text()
        table = doc.split("Registered points", 1)[1].split("\n\n", 2)[1]
        documented = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
        assert len(documented) == len(set(documented))
        assert set(documented) == set(faults.registered_points())

    def test_register_point_idempotent(self):
        faults.register_point("par.worker_crash", "should not overwrite")
        assert "should not overwrite" \
            not in faults.registered_points()["par.worker_crash"]
