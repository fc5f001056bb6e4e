"""The drifting-campaign harness: the continuous-learning loop, end to end.

:func:`run_drifting_campaign` stitches every rollout piece together
over seeded synthetic drift (docs/continuous_learning.md):

1. a baseline campaign is simulated, streamed into a column store, and
   a model trained out of core (:func:`~repro.colstore.pipeline.
   train_from_store`) -- it ships with its streamed drift baseline,
   gets registered and **pinned** as the serving version;
2. each subsequent *phase* re-runs the campaign with
   ``SimulationConfig.seasonal_foliage_db`` stepped up -- the seasonal
   LoS/foliage shift of the paper's measurement narrative -- and
   replays the phase's traffic through a sharded
   :class:`~repro.gateway.AsyncGateway`;
3. the gateway's :class:`~repro.obs.telemetry.DriftMonitor` compares
   live predictions against the serving model's frozen baseline; a
   ``drift_detected`` event triggers candidate construction
   (:func:`~repro.rollout.refit.build_candidate` -- warm-start refit
   streamed through the store, cold-retrain escalation);
4. a :class:`~repro.rollout.controller.RolloutController` walks the
   candidate through shadow mirroring and a deterministic canary slice,
   promoting or rolling back on the guard's verdict.

Everything is seeded: same config -> bit-identical phase stores,
responses, verdicts and registry end state, at any worker count.  The
per-phase response digest in the summary is what the determinism suite
compares.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.colstore import ChunkReader
from repro.colstore.pipeline import train_from_store
from repro.core.pipeline import ModelConfig
from repro.datasets.cleaning import clean
from repro.env.areas import build_area
from repro.fstore.views import combination_view
from repro.gateway import AsyncGateway, GatewayConfig
from repro.obs.telemetry import ManualClock, TelemetryPlane, baseline_of
from repro.resil import CheckpointStore
from repro.rollout.controller import RolloutController
from repro.rollout.guard import GuardConfig
from repro.rollout.refit import RefitConfig, build_candidate
from repro.serve import ModelRegistry
from repro.sim.collection import CampaignConfig, run_area_campaign
from repro.sim.simulator import SimulationConfig

__all__ = ["DriftCampaignConfig", "run_drifting_campaign"]


@dataclass(frozen=True)
class DriftCampaignConfig:
    """One knob set for the whole loop (CLI: ``repro rollout``)."""

    area: str = "Airport"
    #: Drift phases after the baseline campaign.
    phases: int = 1
    #: Extra foliage/LoS penetration loss added per phase (dB).
    foliage_step_db: float = 10.0
    passes_per_trajectory: int = 2
    driving_passes: int = 1
    stationary_runs: int = 1
    stationary_duration_s: int = 20
    seed: int = 2020
    workers: int | None = None
    chunk_rows: int = 512
    shards: int = 2
    canary_fraction: float = 0.5
    name: str = "lumos5g"
    spec: str = "L+M+T+C"
    model: ModelConfig = field(default_factory=ModelConfig.fast)
    refit: RefitConfig = field(default_factory=RefitConfig)
    guard: GuardConfig = field(default_factory=GuardConfig)


def _campaign_config(cfg: DriftCampaignConfig, phase: int) -> CampaignConfig:
    """Per-phase campaign: fresh seed, foliage stepped with the phase."""
    return CampaignConfig(
        passes_per_trajectory=cfg.passes_per_trajectory,
        driving_passes=cfg.driving_passes,
        stationary_runs=cfg.stationary_runs,
        stationary_duration_s=cfg.stationary_duration_s,
        seed=cfg.seed + phase,
        simulation=SimulationConfig(
            seasonal_foliage_db=cfg.foliage_step_db * phase,
        ),
    )


def _replay_set(store_dir, cfg: DriftCampaignConfig, phase: int):
    """(request lines, labels by id, canary keys by id) for one store."""
    table, _ = clean(ChunkReader(store_dir).read_table())
    view = combination_view(
        cfg.spec, past_throughput_lags=cfg.model.past_throughput_lags
    )
    X = view.transform_table(table).X
    y = np.asarray(table["throughput_mbps"], dtype=float)
    runs = np.asarray(table["run_id"]).astype(int)
    lines, labels, keys = [], {}, {}
    for n in range(len(y)):
        rid = f"p{phase}-{n}"
        key = f"run-{runs[n]}"
        lines.append(json.dumps(
            {"id": rid, "key": key, "features": X[n].tolist()},
            sort_keys=True,
        ))
        labels[rid] = float(y[n])
        keys[rid] = key
    return lines, labels, keys


def _replay(gateway: AsyncGateway, lines) -> dict[str, dict]:
    """Responses by request id (connection write order is not stable).

    Lines go through in connection-sized chunks no larger than one
    shard's admission window, so a replay can never shed at admission:
    sheds are timing-dependent, and the loop's acceptance bar is
    bit-identical responses across reruns and worker counts.
    """
    chunk = max(1, gateway.config.queue_depth)
    responses = {}
    for start in range(0, len(lines), chunk):
        out = io.StringIO()
        gateway.run_jsonl(iter(lines[start:start + chunk]), out)
        for text in out.getvalue().splitlines():
            resp = json.loads(text)
            if "id" in resp:
                responses[resp["id"]] = resp
    return responses


def _digest(responses: dict[str, dict]) -> str:
    """Order-independent digest over (id, prediction, model_version)."""
    h = hashlib.sha256()
    for rid in sorted(responses):
        resp = responses[rid]
        h.update(json.dumps(
            [rid, resp.get("prediction"), resp.get("model_version"),
             resp.get("error")],
            sort_keys=True,
        ).encode())
    return h.hexdigest()


def run_drifting_campaign(work_dir, *,
                          config: DriftCampaignConfig | None = None,
                          registry_dir=None, events_out=None) -> dict:
    """Drive the loop over seeded seasonal drift; JSON-safe summary."""
    cfg = config or DriftCampaignConfig()
    work = str(work_dir)
    env = build_area(cfg.area)
    registry = ModelRegistry(registry_dir or os.path.join(work, "registry"))

    with obs.span("rollout.drifting_campaign", area=cfg.area,
                  phases=cfg.phases):
        # -- phase 0: baseline campaign, out-of-core fit, pin ------------ #
        base_store = os.path.join(work, "store0")
        run_area_campaign(env, _campaign_config(cfg, 0),
                          workers=cfg.workers, store_dir=base_store,
                          chunk_rows=cfg.chunk_rows)
        serving_model, base_info = train_from_store(
            base_store, os.path.join(work, "train0"), spec=cfg.spec,
            config=cfg.model, seed=cfg.seed,
        )
        serving_version = registry.save(cfg.name, serving_model)
        registry.pin_serving(cfg.name, serving_version)

        # Telemetry on a clock that never moves: the whole campaign
        # shares one window bucket and no evaluation is time-triggered.
        # On the wall clock a replay straddling a bucket boundary sums
        # the drift window in two parts, and the windowed mean (so the
        # summary) differs in the last ulp from a run that did not.
        gw_config = GatewayConfig(shards=cfg.shards, routing_seed=cfg.seed)
        gateway = AsyncGateway(
            serving_model, version=serving_version, config=gw_config,
            telemetry=TelemetryPlane(
                window_s=gw_config.window_s,
                slow_window_s=gw_config.slow_window_s,
                slos=AsyncGateway.default_slos(gw_config),
                baseline=baseline_of(serving_model),
                clock=ManualClock(),
            ),
        )
        events = gateway.telemetry.events
        phases: list[dict] = []
        try:
            for phase in range(1, cfg.phases + 1):
                phases.append(_run_phase(cfg, work, env, registry,
                                         gateway, phase))
                # The gateway object tracks whatever the registry now
                # pins; a promotion inside the phase already swapped it.
        finally:
            stats = gateway.collect_stats()
            gateway.close()

    summary = {
        "area": cfg.area,
        "name": cfg.name,
        "baseline_version": serving_version,
        "serving": registry.resolve_serving(cfg.name),
        "versions": registry.versions(cfg.name),
        "phases": phases,
        "events": [
            {k: v for k, v in e.items() if k != "t_s"}
            for e in events
            if e["event"].startswith(("rollout_", "drift_"))
        ],
        "requests": stats.requests,
        "digest": hashlib.sha256(json.dumps(
            [p["digest"] for p in phases], sort_keys=True,
        ).encode()).hexdigest(),
    }
    if events_out is not None:
        with open(events_out, "w") as fh:
            for event in events:
                fh.write(json.dumps(
                    {k: v for k, v in event.items() if k != "t_s"},
                    sort_keys=True) + "\n")
    return summary


def _run_phase(cfg: DriftCampaignConfig, work, env, registry,
               gateway: AsyncGateway, phase: int) -> dict:
    """One drift phase: campaign -> replay -> detect -> rollout."""
    store_dir = os.path.join(work, f"store{phase}")
    run_area_campaign(env, _campaign_config(cfg, phase),
                      workers=cfg.workers, store_dir=store_dir,
                      chunk_rows=cfg.chunk_rows)
    lines, labels, _ = _replay_set(store_dir, cfg, phase)

    # Live traffic against the serving model: the drift monitor sees
    # every prediction and compares against the frozen baseline.
    responses = _replay(gateway, lines)
    verdict = gateway.telemetry.evaluate()
    drift = verdict.get("drift") or {}
    record = {
        "phase": phase,
        "foliage_db": cfg.foliage_step_db * phase,
        "requests": len(lines),
        "drift": drift,
        "rollout": None,
        "digest": _digest(responses),
    }
    if not drift.get("drifted"):
        return record

    # -- drift detected: refit, then shadow -> canary -> verdict -------- #
    serving_version = registry.resolve_serving(cfg.name)
    serving_model = registry.load(cfg.name, serving_version)
    candidate_tag = f"{cfg.name}:phase{phase}"
    candidate, info = build_candidate(
        serving_model, store_dir, os.path.join(work, f"refit{phase}"),
        refit=replace(cfg.refit, spec=cfg.spec),
        model_config=cfg.model, seed=cfg.seed + phase,
        candidate=candidate_tag,
    )
    checkpoints = CheckpointStore(
        os.path.join(work, "ckpt"), f"rollout-{cfg.name}-phase{phase}"
    )
    controller = RolloutController(
        registry, gateway, cfg.name, guard_config=cfg.guard,
        canary_fraction=cfg.canary_fraction, checkpoints=checkpoints,
    )

    def shadow_traffic(ctl) -> None:
        # Mirrored replay: clients still get serving predictions; the
        # shadow shard sees the same features and the comparisons land
        # in the gateway's shadow report.
        _replay(gateway, lines)

    def canary_traffic(ctl) -> None:
        canary_responses = _replay(gateway, lines)
        for rid, resp in sorted(canary_responses.items()):
            if rid not in labels or "prediction" not in resp:
                continue
            ctl.record_canary(
                prediction=float(resp["prediction"]),
                label=labels[rid],
                is_canary=resp.get("model_version")
                == ctl.candidate_version,
                failed=False,
            )

    summary = controller.run(candidate, info,
                             shadow_traffic=shadow_traffic,
                             canary_traffic=canary_traffic)
    summary["escalated"] = bool(info.get("escalated"))
    record["rollout"] = summary
    return record
