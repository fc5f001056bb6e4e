"""The continuous-learning loop end to end, over seeded seasonal drift.

Three full runs of :func:`repro.rollout.run_drifting_campaign` back the
acceptance claims (docs/continuous_learning.md):

* **happy path** -- the foliage step drifts live predictions off the
  serving model's frozen baseline; the warm-start candidate survives
  shadow and canary and is promoted to the pinned serving version;
* **determinism** -- an independent rerun at a different worker count
  reproduces the summary bit for bit (response digests included);
* **poisoned refit** (``REPRO_FAULTS=rollout.refit_poison:1.0``) -- the
  corrupted candidate trips the shadow divergence gate, the registry
  rolls back to the pinned version, ``rollout_rolled_back`` fires
  exactly once, and clients never see a candidate prediction.
"""

import dataclasses

import pytest

from repro.obs.telemetry import TelemetryPlane
from repro.resil import faults
from repro.rollout import DriftCampaignConfig, run_drifting_campaign

CFG = DriftCampaignConfig(
    phases=1, foliage_step_db=12.0, passes_per_trajectory=1,
    driving_passes=1, stationary_runs=1, stationary_duration_s=20,
    seed=2020, workers=1, shards=2,
)


@pytest.fixture(scope="module")
def happy(tmp_path_factory):
    return run_drifting_campaign(tmp_path_factory.mktemp("happy"),
                                 config=CFG)


@pytest.fixture(scope="module")
def poisoned(tmp_path_factory):
    """The same campaign with every refit poisoned at the fault seam."""
    mp = pytest.MonkeyPatch()
    mp.setenv(faults.FAULTS_ENV, "rollout.refit_poison:1.0")
    faults.reset()
    try:
        return run_drifting_campaign(tmp_path_factory.mktemp("poison"),
                                     config=CFG)
    finally:
        mp.undo()
        faults.reset()


class TestHappyPath:
    def test_drift_detected_then_promoted(self, happy):
        phase = happy["phases"][0]
        assert phase["drift"]["drifted"] is True
        rollout = phase["rollout"]
        assert rollout["outcome"] == "promoted"
        assert rollout["candidate"] == 2
        assert happy["serving"] == 2
        assert happy["versions"] == [1, 2]

    def test_both_gates_passed_on_evidence(self, happy):
        verdicts = happy["phases"][0]["rollout"]["verdicts"]
        assert [v["stage"] for v in verdicts] == ["shadow", "canary"]
        assert all(v["passed"] for v in verdicts)
        shadow = verdicts[0]["metrics"]
        assert shadow["n"] >= 20
        assert shadow["mean_divergence_mbps"] < 150.0
        canary = verdicts[1]["metrics"]
        assert "candidate_mae_mbps" in canary
        assert "serving_mae_mbps" in canary

    def test_lifecycle_events_edge_triggered(self, happy):
        kinds = [e["event"] for e in happy["events"]]
        assert "drift_detected" in kinds
        rollout_kinds = [k for k in kinds if k.startswith("rollout_")]
        assert rollout_kinds == ["rollout_started", "rollout_shadow",
                                 "rollout_canary", "rollout_promoted"]

    def test_refit_was_warm_not_escalated(self, happy):
        assert happy["phases"][0]["rollout"]["escalated"] is False


class TestDeterminism:
    def test_summary_bit_identical_across_worker_counts(
            self, happy, tmp_path_factory):
        """Rerun + worker-count invariance in one: a fresh campaign at
        workers=4 must reproduce the workers=1 summary exactly --
        stores, training, replay digests, verdict metrics and all."""
        rerun = run_drifting_campaign(
            tmp_path_factory.mktemp("rerun4"),
            config=dataclasses.replace(CFG, workers=4),
        )
        assert rerun == happy

    def test_summary_independent_of_wall_clock(
            self, happy, tmp_path_factory, monkeypatch):
        """A wall clock that leaps a whole window bucket on every read
        -- every replay straddles bucket boundaries, windows roll over
        mid-phase -- leaves the summary as it was: the campaign's
        telemetry never reads the wall clock."""
        now = [0.0]

        def leaping_clock() -> float:
            now[0] += 10.0
            return now[0]

        # Every telemetry plane built on the default clock reads it.
        monkeypatch.setitem(TelemetryPlane.__init__.__kwdefaults__,
                            "clock", leaping_clock)
        rerun = run_drifting_campaign(tmp_path_factory.mktemp("leap"),
                                      config=CFG)
        assert rerun == happy


class TestPoisonedRefit:
    def test_rejected_in_shadow(self, poisoned):
        rollout = poisoned["phases"][0]["rollout"]
        assert rollout["outcome"] == "rolled_back"
        verdicts = rollout["verdicts"]
        assert [v["stage"] for v in verdicts] == ["shadow"]
        assert not verdicts[0]["passed"]
        assert any(r.startswith("divergence")
                   for r in verdicts[0]["reasons"])
        assert verdicts[0]["metrics"]["mean_divergence_mbps"] > 150.0

    def test_registry_rolled_back_to_pinned_version(self, poisoned):
        assert poisoned["serving"] == poisoned["baseline_version"] == 1
        # The candidate was quarantined, not kept around as latest.
        assert poisoned["versions"] == [1]

    def test_rolled_back_event_fires_exactly_once(self, poisoned):
        kinds = [e["event"] for e in poisoned["events"]]
        assert kinds.count("rollout_rolled_back") == 1
        assert "rollout_promoted" not in kinds
        assert "rollout_canary" not in kinds
        rolled = [e for e in poisoned["events"]
                  if e["event"] == "rollout_rolled_back"][0]
        assert rolled["reason"].startswith("shadow:")
        assert rolled["serving"] == 1

    def test_clients_never_saw_candidate_predictions(self, happy,
                                                     poisoned):
        """The poisoned run's client-visible responses are bit-identical
        to the healthy run's serving-model responses: the candidate only
        ever lived on the mirror shard."""
        assert poisoned["phases"][0]["digest"] == \
            happy["phases"][0]["digest"]
