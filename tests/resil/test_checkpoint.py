"""Checkpoint store round-trips and crash-safe campaign resume."""

import numpy as np
import pytest

from repro import obs
from repro.env.areas import build_area
from repro.resil.checkpoint import CHECKPOINT_ENV, CheckpointStore, resolve_dir
from repro.sim import collection
from repro.sim.collection import (
    CampaignConfig,
    _campaign_fingerprint,
    run_area_campaign,
)

from _resil_helpers import assert_tables_equal

FP = "a" * 64  # any non-empty digest works as a store address


def _cfg(seed: int = 5) -> CampaignConfig:
    return CampaignConfig(
        passes_per_trajectory=1, driving_passes=1, stationary_runs=1,
        stationary_duration_s=10, seed=seed,
    )


class TestResolveDir:
    def test_disabled_when_nothing_set(self):
        assert resolve_dir(None) is None

    def test_explicit_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path / "env"))
        assert resolve_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path))
        assert resolve_dir(None) == tmp_path


class TestCheckpointStore:
    def test_round_trip_mixed_dtypes(self, tmp_path):
        store = CheckpointStore(tmp_path, FP)
        columns = {
            "f": np.asarray([1.5, float("nan"), -0.0]),
            "i": np.asarray([1, 2, 3]),
            "s": np.asarray(["walking", "driving", "walking"]),
        }
        store.save(4, columns)
        back = store.load(4)
        assert list(back) == ["f", "i", "s"]
        assert np.array_equal(back["f"], columns["f"], equal_nan=True)
        assert np.array_equal(back["i"], columns["i"])
        assert back["s"].tolist() == ["walking", "driving", "walking"]

    def test_miss_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, FP).load(0) is None

    def test_completed_and_clear(self, tmp_path):
        store = CheckpointStore(tmp_path, FP)
        for i in (0, 2):
            store.save(i, {"x": np.arange(3.0)})
        assert store.completed(4) == [0, 2]
        assert store.clear() == 2
        assert store.completed(4) == []

    def test_fingerprints_do_not_collide(self, tmp_path):
        a = CheckpointStore(tmp_path, "a" * 64)
        b = CheckpointStore(tmp_path, "b" * 64)
        a.save(0, {"x": np.arange(2.0)})
        assert b.load(0) is None

    def test_empty_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, "")


class TestCampaignFingerprint:
    def test_config_changes_move_the_bucket(self):
        env = build_area("Airport")
        assert _campaign_fingerprint(env, _cfg(5)) \
            == _campaign_fingerprint(env, _cfg(5))
        assert _campaign_fingerprint(env, _cfg(5)) \
            != _campaign_fingerprint(env, _cfg(6))

    def test_area_changes_move_the_bucket(self):
        cfg = _cfg()
        assert _campaign_fingerprint(build_area("Airport"), cfg) \
            != _campaign_fingerprint(build_area("Loop"), cfg)


class TestCampaignResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        env = build_area("Airport")
        cfg = _cfg()
        plain = run_area_campaign(env, cfg)
        checkpointed = run_area_campaign(env, cfg, checkpoint_dir=tmp_path)
        assert_tables_equal(plain, checkpointed, "plain vs checkpointed")
        fp = _campaign_fingerprint(env, cfg)
        assert CheckpointStore(tmp_path, fp).completed(4) == [0, 1, 2, 3]

    def test_second_run_resumes_every_pass(self, tmp_path):
        env = build_area("Airport")
        cfg = _cfg()
        first = run_area_campaign(env, cfg, checkpoint_dir=tmp_path)
        obs.set_enabled(True)
        registry = obs.get_registry()
        resumed0 = registry.counter(
            "resil.checkpoint.passes_resumed_total").value
        second = run_area_campaign(env, cfg, checkpoint_dir=tmp_path)
        assert_tables_equal(first, second, "fresh vs resumed")
        assert registry.counter(
            "resil.checkpoint.passes_resumed_total").value == resumed0 + 4

    def test_interrupted_campaign_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance-criteria scenario: kill a campaign partway,
        re-run with the same checkpoint dir, get the identical Table."""
        env = build_area("Airport")
        cfg = _cfg()
        uninterrupted = run_area_campaign(env, cfg)

        real = collection._simulate_pass_task

        def dying(env_, config_, checkpoint_, item):
            _, task, _ = item
            if task.run_id >= 2:
                raise RuntimeError("process killed")
            return real(env_, config_, checkpoint_, item)

        monkeypatch.setattr(collection, "_simulate_pass_task", dying)
        with pytest.raises(RuntimeError):
            run_area_campaign(env, cfg, checkpoint_dir=tmp_path)
        fp = _campaign_fingerprint(env, cfg)
        assert CheckpointStore(tmp_path, fp).completed(4) == [0, 1]

        monkeypatch.setattr(collection, "_simulate_pass_task", real)
        obs.set_enabled(True)
        registry = obs.get_registry()
        resumed0 = registry.counter(
            "resil.checkpoint.passes_resumed_total").value
        resumed = run_area_campaign(env, cfg, checkpoint_dir=tmp_path)
        assert_tables_equal(uninterrupted, resumed,
                            "uninterrupted vs resumed")
        assert registry.counter(
            "resil.checkpoint.passes_resumed_total").value == resumed0 + 2

    def test_config_change_ignores_stale_checkpoints(self, tmp_path):
        env = build_area("Airport")
        run_area_campaign(env, _cfg(5), checkpoint_dir=tmp_path)
        changed = run_area_campaign(env, _cfg(6), checkpoint_dir=tmp_path)
        fresh = run_area_campaign(env, _cfg(6))
        assert_tables_equal(fresh, changed, "seed-6 fresh vs checkpointed")
        assert len({p.name for p in tmp_path.iterdir()}) == 2  # two buckets

    def test_env_knob_enables_checkpointing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path))
        env = build_area("Airport")
        run_area_campaign(env, _cfg())
        parts = list(tmp_path.rglob("part*.npz"))
        assert len(parts) == 4
