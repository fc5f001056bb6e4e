"""Measurement campaigns: repeated passes, special experiments.

``run_campaign`` mirrors the paper's methodology (Sec. 3.2): every
trajectory in an area is traversed repeatedly (the paper does >= 30 passes;
the default here is configurable so tests stay fast), on "different dates"
(fresh random state per pass), walking everywhere plus driving at the Loop.

Two appendix experiments get dedicated drivers:

* :func:`run_congestion_experiment` (A.1.4) -- four UEs side by side on one
  panel with staggered iPerf sessions;
* :func:`run_side_by_side_4g5g` (A.4) -- one UE pinned to LTE and one on 5G
  walking the Loop together.

Crash safety (docs/robustness.md): pass ``checkpoint_dir`` (or set
``REPRO_CHECKPOINT_DIR``) and every completed pass is persisted under a
content-addressed campaign fingerprint; re-running after an interruption
loads the finished passes and simulates only the rest, bit-identical to
an uninterrupted run because each pass owns an index-keyed seed.  The
``sim.pass_crash`` fault seam fires at the top of each pass.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from repro import obs
from repro.par import fingerprint, pmap_stream, root_sequence, spawn_seeds
from repro.resil import faults
from repro.resil.checkpoint import CheckpointStore, resolve_dir
from repro.env.areas import build_area
from repro.env.environment import Environment
from repro.mobility.models import (
    DrivingModel,
    MobilityModel,
    StationaryModel,
    WalkingModel,
)
from repro.datasets.frame import Table
from repro.geo.geometry import distance
from repro.net.scheduler import PanelScheduler
from repro.net.tcp import BulkTransferModel
from repro.radio.handoff import RadioType
from repro.sim.simulator import LinkSimulator, SimulationConfig, simulate_pass
from repro.ue.telemetry import (
    MODE_DRIVING,
    MODE_STATIONARY,
    MODE_WALKING,
    TelemetryRecord,
)

faults.register_point(
    "sim.pass_crash",
    "raise at the top of one campaign pass (keyed by run_id)",
)


@dataclass
class CampaignConfig:
    """How much data to collect and under which physics."""

    passes_per_trajectory: int = 30
    driving_passes: int = 30  # Loop only
    stationary_runs: int = 4
    stationary_duration_s: int = 120
    seed: int = 2020
    simulation: SimulationConfig = field(default_factory=SimulationConfig)

    def scaled(self, factor: float) -> "CampaignConfig":
        """A proportionally smaller campaign (for tests/benchmarks)."""
        return CampaignConfig(
            passes_per_trajectory=max(1, int(self.passes_per_trajectory * factor)),
            driving_passes=max(1, int(self.driving_passes * factor)),
            stationary_runs=max(1, int(self.stationary_runs * factor)),
            stationary_duration_s=self.stationary_duration_s,
            seed=self.seed,
            simulation=self.simulation,
        )


def _records_to_table(records: list[TelemetryRecord]) -> Table:
    return Table.from_records(records, TelemetryRecord.field_names())


def _corner_arclengths(trajectory) -> tuple[float, ...]:
    """Arclength positions of a polyline's interior corners (waypoints)."""
    out, s = [0.0], 0.0
    for (a, b) in trajectory.segments:
        s += ((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2) ** 0.5
        out.append(s)
    return tuple(out[:-1])


def run_area_campaign(
    env: Environment,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    store_dir: str | os.PathLike | None = None,
    chunk_rows: int | None = None,
):
    """Collect the full campaign for one area and return the raw log.

    Every pass comes from one stream (:func:`_pass_stream`) in run
    order; this function only chooses the sink the rows go to.

    ``workers`` fans the per-pass simulations out over a process pool
    (``None`` defers to ``REPRO_WORKERS``; <=1 runs serially).  Every
    pass draws from its own index-keyed seed, so the result is
    bit-identical at any worker count.

    ``checkpoint_dir`` (``None`` defers to ``REPRO_CHECKPOINT_DIR``;
    unset disables checkpointing) persists each completed pass so an
    interrupted campaign resumes from where it died -- bit-identical,
    since resumed passes are the very arrays the original run produced
    and fresh passes re-derive the same per-index seeds.  Resume
    behaves the same for both sinks.

    Without ``store_dir`` the per-pass tables are concatenated into one
    in-memory Table.  With it, each pass's columns are appended to a
    :class:`repro.colstore.ShardWriter` as they arrive (a bounded
    ``pmap_stream`` window keeps only in-flight passes in RAM) and a
    :class:`repro.colstore.ChunkReader` over the finished store is
    returned.  Column values are identical to the in-memory path
    (``docs/colstore.md``); ``chunk_rows`` sets the shard size.
    """
    config = config or CampaignConfig()
    with obs.span("sim.campaign", area=env.name,
                  passes=config.passes_per_trajectory):
        passes = _pass_stream(env, config, workers, checkpoint_dir)
        if store_dir is None:
            # Per-pass dtypes, promoted by concat -- not the store's
            # canonical casts, which would make the int64 lte_* float64.
            # The empty telemetry table leads so that a plan with no
            # rows keeps the schema; it takes no part in the promotion.
            result = Table.concat([_records_to_table([]), *passes])
        else:
            result = _store_sink(env, config, passes, store_dir, chunk_rows)
    obs.get_logger("sim").info(
        "campaign", area=env.name, rows=len(result),
        passes=config.passes_per_trajectory,
    )
    return result


def _store_sink(
    env: Environment,
    config: CampaignConfig,
    passes: Iterator[Table],
    store_dir: str | os.PathLike,
    chunk_rows: int | None,
):
    """Append each pass to a columnar store; return a reader over it.

    Peak memory is the stream's in-flight window plus one open chunk,
    never the whole campaign.  The store is always rewritten from
    scratch: resume applies to the *pass* checkpoints, which remain the
    unit of crash safety.
    """
    from repro.colstore import ChunkReader, DEFAULT_CHUNK_ROWS, ShardWriter

    with ShardWriter(
        store_dir,
        chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
        meta={
            "kind": "campaign_raw",
            "area": env.name,
            "campaign_fingerprint": _campaign_fingerprint(env, config),
        },
    ) as writer:
        for table in passes:
            writer.append(_canonical_columns(table))
    return ChunkReader(store_dir)


@dataclass(frozen=True)
class _PassTask:
    """One schedulable traversal of the campaign plan."""

    kind: str  # "walk" | "drive" | "stationary"
    trajectory: str
    run_id: int
    duration_s: int | None
    traffic_lights: tuple[float, ...] = ()


def _campaign_plan(env: Environment, config: CampaignConfig
                   ) -> list[_PassTask]:
    """The ordered pass list (run_id order, matching the paper's plan)."""
    tasks: list[_PassTask] = []
    run_id = 0
    for name in sorted(env.trajectories):
        trajectory = env.trajectories[name]
        # Closed loops never "arrive": size the pass to one full lap.
        walk_duration = (
            int(trajectory.length_m / 1.25) if trajectory.closed else None
        )
        for _ in range(config.passes_per_trajectory):
            tasks.append(_PassTask("walk", name, run_id, walk_duration))
            run_id += 1
        if env.name == "Loop":
            # Traffic lights / rail crossings sit at the loop's corners.
            lights = _corner_arclengths(trajectory)
            drive_duration = int(trajectory.length_m / 6.0)
            for _ in range(config.driving_passes):
                tasks.append(_PassTask("drive", name, run_id,
                                       drive_duration, lights))
                run_id += 1
    # A few stationary sessions at the start of each trajectory.
    for name in sorted(env.trajectories):
        for _ in range(config.stationary_runs):
            tasks.append(_PassTask("stationary", name, run_id,
                                   config.stationary_duration_s))
            run_id += 1
    return tasks


def _simulate_pass_task(
    env: Environment,
    config: SimulationConfig,
    checkpoint: tuple[str, str] | None,
    item: tuple[int, _PassTask, np.random.SeedSequence],
) -> Table:
    """Worker: one pass from its own seed (pmap task function).

    With ``checkpoint`` (``(root, fingerprint)``) set, the worker
    persists the pass's columns itself (atomically, via NpzCache) before
    returning, so a crash mid-campaign loses only the passes still in
    flight.
    """
    index, task, seed = item
    faults.inject("sim.pass_crash", key=task.run_id)
    rng = np.random.default_rng(seed)
    trajectory = env.trajectories[task.trajectory]
    if task.kind == "walk":
        mobility: MobilityModel = WalkingModel()
        mode = MODE_WALKING
    elif task.kind == "drive":
        mobility = DrivingModel(traffic_lights=task.traffic_lights)
        mode = MODE_DRIVING
    else:
        mobility = StationaryModel()
        mode = MODE_STATIONARY
    table = _records_to_table(simulate_pass(
        env, trajectory, mobility, run_id=task.run_id, rng=rng,
        config=config, mobility_mode=mode, duration_s=task.duration_s,
    ))
    if checkpoint is not None:
        CheckpointStore(*checkpoint).save(
            index, {f: table[f] for f in table.column_names})
    return table


def _pass_stream(
    env: Environment,
    config: CampaignConfig,
    workers: int | None,
    checkpoint_dir: str | os.PathLike | None,
) -> Iterator[Table]:
    """Every pass of the campaign as a Table, in run order.

    A pass whose checkpoint loads is resumed from it; the rest come
    from one bounded :func:`repro.par.pmap_stream` over the passes
    still to run.  A checkpoint that turns out corrupt or missing when
    the loop reaches it is simulated again, serially, from the pass's
    own index-keyed seed.
    """
    tasks = _campaign_plan(env, config)
    # One child seed per pass, keyed by (campaign seed, area, pass index):
    # execution order and worker count cannot change any draw.
    seeds = spawn_seeds(root_sequence(config.seed, env.name), len(tasks))
    items = list(zip(range(len(tasks)), tasks, seeds))
    root = resolve_dir(checkpoint_dir)
    checkpoint, store, resumable = None, None, set()
    if root is not None:
        checkpoint = (str(root), _campaign_fingerprint(env, config))
        store = CheckpointStore(*checkpoint)
        resumable = set(store.completed(len(tasks)))
    simulate = partial(_simulate_pass_task, env, config.simulation,
                       checkpoint)
    fresh = pmap_stream(
        simulate,
        [item for item in items if item[0] not in resumable],
        workers=workers,
        label="sim.campaign",
    )
    for item in items:
        if item[0] not in resumable:
            yield next(fresh)
            continue
        columns = store.load(item[0])
        if columns is None:
            yield simulate(item)
        else:
            obs.inc("resil.checkpoint.passes_resumed_total")
            yield Table(columns)
    # Run the exhausted stream to its end so its pool shuts down now.
    next(fresh, None)


def _canonical_columns(table: Table) -> dict[str, np.ndarray]:
    """Pass columns cast to the store's canonical schema.

    Per-pass dtypes are data-dependent (an all-LTE pass yields integer
    ``nr_ss_*`` sentinels where a mixed campaign promotes to float64),
    so the out-of-core path pins every column to its
    :class:`TelemetryRecord` annotation: int -> int64, float -> float64,
    str -> unicode.  Values are unchanged -- telemetry ints are exactly
    representable in float64 -- so the store read back equals the
    in-memory Table column for column.
    """
    out = {}
    for f in fields(TelemetryRecord):
        arr = table[f.name]
        if f.type == "int":
            out[f.name] = arr.astype(np.int64)
        elif f.type == "float":
            out[f.name] = arr.astype(np.float64)
        else:
            out[f.name] = arr.astype(str)
    return out


def _campaign_fingerprint(env: Environment, config: CampaignConfig) -> str:
    """Content address of one area campaign's checkpoint bucket.

    Any change to the campaign config, the area, or the telemetry
    schema lands in a fresh bucket, so stale checkpoints can never leak
    into a differently-configured run.
    """
    return fingerprint({
        "version": 1,
        "area": env.name,
        "schema": TelemetryRecord.field_names(),
        "campaign": config,
    })


def run_campaign(
    areas: list[str] | None = None,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    store_dir: str | os.PathLike | None = None,
    chunk_rows: int | None = None,
) -> dict:
    """Run campaigns for several areas; returns ``{area_name: raw_table}``.

    ``workers`` and ``checkpoint_dir`` are forwarded to
    :func:`run_area_campaign` (per-pass fan-out / crash-safe resume
    within each area); per-area seeding keeps the result independent of
    how the passes were executed.

    ``store_dir`` switches every area to the out-of-core path: area
    ``name`` lands in ``<store_dir>/<name>/`` and the dict values are
    :class:`repro.colstore.ChunkReader` handles instead of Tables.
    """
    areas = areas or ["Airport", "Intersection", "Loop"]
    out = {}
    for name in areas:
        area_store = (
            None if store_dir is None else os.path.join(str(store_dir), name)
        )
        out[name] = run_area_campaign(
            build_area(name), config, workers=workers,
            checkpoint_dir=checkpoint_dir,
            store_dir=area_store, chunk_rows=chunk_rows,
        )
    return out


# --------------------------------------------------------------------------- #
# Appendix A.1.4: multi-UE congestion
# --------------------------------------------------------------------------- #


def run_congestion_experiment(
    n_ues: int = 4,
    stagger_s: int = 60,
    tail_s: int = 60,
    seed: int = 7,
    config: SimulationConfig | None = None,
) -> dict[str, list[float]]:
    """Staggered iPerf sessions on one Airport panel (Fig. 21).

    UE_k starts at ``k * stagger_s``; all sessions end together.  All UEs
    sit ~25 m in front of the south panel with clear LoS.  Returns the
    per-second throughput series (Mbps) per UE, NaN before a UE starts.
    """
    env = build_area("Airport")
    config = config or SimulationConfig()
    rng = np.random.default_rng(seed)
    position = (0.0, 25.0)  # 25 m in front of the south panel, on boresight
    panel = env.panels.get(101)

    sims = []
    for _ in range(n_ues):
        sim = LinkSimulator(env, config=config, rng=rng)
        sim.tcp = BulkTransferModel()
        sims.append(sim)

    total_s = stagger_s * (n_ues - 1) + tail_s
    series: dict[str, list[float]] = {f"UE{k + 1}": [] for k in range(n_ues)}
    scheduler = PanelScheduler(panel_id=panel.panel_id)

    for t in range(total_s):
        active = [k for k in range(n_ues) if t >= k * stagger_s]
        scheduler.clear()
        phy_rates: dict[int, float] = {}
        for k in active:
            sim = sims[k]
            # Evaluate the solo PHY rate at full airtime, then let the PF
            # scheduler split airtime among the active sessions.
            result = sim.step(
                position, heading_deg=180.0, speed_mps=0.0,
                in_vehicle=False, airtime_share=1.0,
            )
            if result.radio_type is RadioType.NR:
                phy_rates[k] = result.throughput_mbps
                scheduler.register(f"UE{k + 1}", result.throughput_mbps)
            else:
                phy_rates[k] = result.throughput_mbps
        alloc = scheduler.allocate()
        for k in range(n_ues):
            if k not in active:
                series[f"UE{k + 1}"].append(float("nan"))
            else:
                shared = alloc.get(f"UE{k + 1}", phy_rates.get(k, 0.0))
                series[f"UE{k + 1}"].append(shared)
    return series


# --------------------------------------------------------------------------- #
# Appendix A.4: side-by-side 4G vs 5G walk
# --------------------------------------------------------------------------- #


def run_side_by_side_4g5g(
    passes: int = 30,
    seed: int = 11,
    config: SimulationConfig | None = None,
) -> tuple[Table, Table]:
    """Two phones walking the Loop together: one on 5G, one locked to LTE.

    Returns ``(table_5g, table_4g)`` raw logs.  The 4G phone experiences
    the omnidirectional macro link, whose throughput is far less sensitive
    to micro-location -- the property A.4 quantifies.
    """
    env = build_area("Loop")
    config = config or SimulationConfig()
    rng = np.random.default_rng(seed)
    records_5g: list[TelemetryRecord] = []
    records_4g: list[TelemetryRecord] = []
    trajectory = env.trajectories["LOOP-CW"]

    for run in range(passes):
        recs = simulate_pass(
            env, trajectory, WalkingModel(), run_id=run, rng=rng,
            config=config, mobility_mode=MODE_WALKING, duration_s=600,
        )
        records_5g.extend(recs)
        # The LTE phone walks the identical ground truth; reuse positions.
        lte_rng = np.random.default_rng(seed * 1000 + run)
        for rec in recs:
            d = min(
                distance(p.position, (rec.true_x_m, rec.true_y_m))
                for p in env.panels.panels
            )
            lte_tput = config.lte.throughput_mbps(d, lte_rng)
            records_4g.append(replace(
                rec, radio_type=RadioType.LTE.value,
                throughput_mbps=lte_tput, cell_id=9999,
            ))
    return _records_to_table(records_5g), _records_to_table(records_4g)
