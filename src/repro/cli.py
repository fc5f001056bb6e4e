"""Command-line interface: simulate, evaluate, map, serve.

Examples::

    python -m repro generate --area Airport --passes 10 --out airport.csv
    python -m repro evaluate --area Airport --features T+M --model gdbt \
        --verbose --metrics-out metrics.json
    python -m repro map --area Airport --cell-size 2
    python -m repro areas
    python -m repro serve --model model.json < requests.jsonl

``--verbose`` turns on observability (structured logs, metrics, span
tracing; see docs/observability.md) and prints the span tree plus a
metrics snapshot after the command; ``--metrics-out FILE`` dumps the
snapshot and trace as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from repro import __version__, obs
from repro.core.maps import coverage_map, throughput_map
from repro.core.pipeline import ALL_MODELS, Lumos5G, ModelConfig
from repro.datasets.generate import generate_datasets
from repro.datasets.schema import to_public_csv_table
from repro.env.areas import AREA_BUILDERS, build_area


def _add_common_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--area", default="Airport",
                        choices=sorted(AREA_BUILDERS))
    parser.add_argument("--passes", type=int, default=10,
                        help="walking passes per trajectory")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="process-pool size for the simulation "
                             "(default: $REPRO_WORKERS, else serial; "
                             "N<=1 runs serially; results are identical "
                             "at any worker count)")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="enable telemetry; print span tree + metrics")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write a JSON metrics/trace snapshot to FILE")


def _dataset(args):
    data = generate_datasets(
        areas=(args.area,), passes_per_trajectory=args.passes,
        seed=args.seed, include_global=False, use_cache=False,
        workers=args.workers,
    )
    return data


def cmd_areas(_args) -> int:
    for name in sorted(AREA_BUILDERS):
        print(build_area(name).describe())
    return 0


def cmd_generate(args) -> int:
    if (args.out is None) == (args.store_dir is None):
        print("generate: give exactly one of --out or --store-dir",
              file=sys.stderr)
        return 2
    if args.store_dir:
        # Out-of-core path: raw telemetry straight to a chunked columnar
        # store (docs/colstore.md); cleaning happens at training time.
        from repro.sim.collection import CampaignConfig, run_area_campaign

        cfg = CampaignConfig(passes_per_trajectory=args.passes,
                             driving_passes=args.passes, seed=args.seed)
        reader = run_area_campaign(
            build_area(args.area), cfg, workers=args.workers,
            store_dir=args.store_dir, chunk_rows=args.chunk_rows,
        )
        print(f"wrote {len(reader)} rows to {args.store_dir} "
              f"({reader.n_chunks} chunks, area={args.area} "
              f"seed={args.seed} passes={args.passes})")
        return 0
    data = _dataset(args)
    table = data[args.area]
    if args.public_schema:
        table = to_public_csv_table(table)
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows to {args.out} "
          f"(area={args.area} seed={args.seed} passes={args.passes})")
    return 0


def cmd_fit(args) -> int:
    from repro.colstore.pipeline import train_from_store
    from repro.core.pipeline import ModelConfig
    from repro.ml.serialize import model_to_json

    work_dir = args.work_dir or os.path.join(args.from_store, "_work")
    config = ModelConfig.fast() if args.fast else ModelConfig()
    try:
        estimator, info = train_from_store(
            args.from_store, work_dir,
            spec=args.features, model=args.model, task=args.task,
            config=config, seed=args.seed, max_bins=args.max_bins,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"fit: {exc}", file=sys.stderr)
        return 2
    report = info["cleaning_report"]
    print(f"trained {args.model} ({args.task}) on {info['train_rows']} "
          f"rows / {info['n_chunks']} chunks from {args.from_store}")
    print(f"  cleaning: kept {report.output_rows}/{report.input_rows} rows "
          f"({report.retention:.1%}), dropped {report.runs_dropped_gps} "
          "runs for GPS error")
    print(f"  features: {info['view']} "
          f"(fingerprint {info['view_fingerprint'][:12]}...)")
    baseline = info.get("drift_baseline")
    if baseline:
        print(f"  drift baseline: {baseline['stat']} "
              f"mean {baseline['mean']:.1f} p50 {baseline['p50']:.1f} "
              f"(n={baseline['count']})")
    print(f"  {_telemetry_fit_summary(info['fit_telemetry'])}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(model_to_json(estimator))
        print(f"  model written to {args.out}")
    return 0


def _telemetry_fit_summary(tel: dict | None) -> str:
    if not tel:
        return "fit telemetry unavailable"
    parts = [f"fit: {tel.get('fit_wall_s', 0.0):.1f}s"]
    if "rounds_completed" in tel:
        parts.append(f"{tel['rounds_completed']} rounds")
    if "n_trees" in tel:
        parts.append(f"{tel['n_trees']} trees")
    if "final_train_loss" in tel:
        parts.append(f"train loss {tel['final_train_loss']:.2f}")
    if tel.get("out_of_core"):
        parts.append("out-of-core")
    return ", ".join(parts)


def cmd_evaluate(args) -> int:
    data = _dataset(args)
    framework = Lumos5G(data, config=ModelConfig(), seed=args.seed)
    if not framework.supports(args.area, args.features):
        print(f"{args.features} is unavailable for {args.area} "
              "(no panel survey)", file=sys.stderr)
        return 2
    reg = framework.evaluate_regression(args.area, args.features, args.model)
    clf = framework.evaluate_classification(args.area, args.features,
                                            args.model)
    print(f"{args.area} / {args.features} / {args.model}")
    print(f"  regression:      MAE={reg.mae:.1f}  RMSE={reg.rmse:.1f} Mbps")
    print(f"  classification:  weighted-F1={clf.weighted_f1:.3f}  "
          f"recall(low)={clf.recall_low:.3f}")
    return 0


def cmd_map(args) -> int:
    data = _dataset(args)
    table = data[args.area]
    tmap = throughput_map(table, cell_size=args.cell_size)
    cmap = coverage_map(table, cell_size=args.cell_size)
    values = np.asarray([c.value for c in tmap])
    coverage = np.asarray([c.value for c in cmap])
    print(f"{args.area}: {len(tmap)} cells at {args.cell_size:.0f}-px size")
    print(f"  throughput Mbps: min={values.min():.0f} "
          f"median={np.median(values):.0f} max={values.max():.0f}")
    print(f"  5G coverage:     median={np.median(coverage):.2f}")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["x", "y", "mean_throughput_mbps", "samples"])
            for c in tmap:
                writer.writerow([c.x, c.y, f"{c.value:.1f}", c.count])
        print(f"  cell table written to {args.csv}")
    return 0


def cmd_serve(args) -> int:
    from repro.ml.serialize import model_from_json
    from repro.resil import CircuitOpenError, FaultError, RetryExhausted
    from repro.serve import (
        InferenceService,
        ModelNotFound,
        ModelRegistry,
        RegistryError,
        ServeConfig,
    )

    if bool(args.model) == bool(args.registry):
        print("serve: pass exactly one of --model FILE or "
              "--registry DIR (with --name)", file=sys.stderr)
        return 2
    if args.registry and not args.name:
        print("serve: --registry needs --name", file=sys.stderr)
        return 2
    try:
        if args.model:
            with open(args.model) as f:
                model = model_from_json(f.read())
            if args.expect_view:
                stamp = getattr(model, "feature_view_", None) or {}
                actual = stamp.get("fingerprint")
                if actual != args.expect_view:
                    raise RegistryError(
                        f"model {args.model} was published against "
                        f"feature-view fingerprint {actual}, expected "
                        f"{args.expect_view}"
                    )
        else:
            # Resilient load: retries flaky reads, quarantines corrupt
            # version files and falls back to the newest good version.
            # --expect-view makes the registry verify the model's
            # feature-view stamp (FeatureViewMismatch is a
            # RegistryError: exit 1 below).
            model = ModelRegistry(args.registry).load_resilient(
                args.name, args.model_version,
                expect_view=args.expect_view or None,
            )
    except FileNotFoundError:
        print(f"serve: model file not found: {args.model}", file=sys.stderr)
        return 2
    except ModelNotFound as exc:
        print(f"serve: {exc.args[0]}", file=sys.stderr)
        return 2
    except (RetryExhausted, FaultError, CircuitOpenError) as exc:
        print(f"serve: model load failed: {exc}", file=sys.stderr)
        return 1
    except RegistryError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"serve: cannot load model: {exc}", file=sys.stderr)
        return 2

    events_stream = None
    if args.events_out:
        try:
            events_stream = open(args.events_out, "w")
        except OSError as exc:
            print(f"serve: cannot write {args.events_out}: {exc}",
                  file=sys.stderr)
            return 2
    if args.gateway:
        return _serve_gateway(args, model, events_stream)
    service = InferenceService(model, ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size,
        cache_quant_step=args.quant_step,
        request_deadline_ms=args.deadline_ms,
        telemetry=not args.no_telemetry,
        window_s=args.window_s,
        slow_window_s=max(args.slow_window_s, args.window_s),
        latency_slo_p99_ms=args.slo_p99_ms,
        latency_slo_p999_ms=args.slo_p999_ms,
        availability_target=args.availability_target,
    ), event_stream=events_stream)
    try:
        instream = sys.stdin if args.input == "-" else open(args.input)
    except OSError as exc:
        print(f"serve: cannot read {args.input}: {exc}", file=sys.stderr)
        if events_stream is not None:
            events_stream.close()
        return 2
    outstream = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        stats = service.run_jsonl(instream, outstream)
    finally:
        if instream is not sys.stdin:
            instream.close()
        if outstream is not sys.stdout:
            outstream.close()
        if events_stream is not None:
            events_stream.close()
    args._serve_telemetry = stats.telemetry  # picked up by --metrics-out
    hit_rate = (service.cache.hit_rate if service.cache is not None else 0.0)
    failed = f", {stats.failures} failed" if stats.failures else ""
    print(f"served {stats.requests} requests "
          f"({stats.errors} malformed) in {stats.wall_s:.2f}s: "
          f"{stats.rows_per_s:.0f} rows/s, {stats.batches} batches, "
          f"cache hit rate {hit_rate:.2f}{failed}"
          f"{_telemetry_summary(stats.telemetry)}", file=sys.stderr)
    if args.strict and (stats.errors or stats.budget_burned):
        return 1
    return 0


def _serve_gateway(args, model, events_stream) -> int:
    """The ``serve --gateway`` path: shard the request stream."""
    from repro.gateway import AsyncGateway, GatewayConfig
    from repro.serve import ModelRegistry

    version = 1
    if args.registry:
        version = (args.model_version
                   or ModelRegistry(args.registry).latest_version(args.name)
                   or 1)
    config = GatewayConfig(
        shards=args.shards,
        queue_depth=args.shard_queue,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        request_deadline_ms=args.deadline_ms,
        backend=args.gateway_backend,
        telemetry=not args.no_telemetry,
        window_s=args.window_s,
        slow_window_s=max(args.slow_window_s, args.window_s),
        latency_slo_p99_ms=args.slo_p99_ms,
        latency_slo_p999_ms=args.slo_p999_ms,
        availability_target=args.availability_target,
    )
    try:
        instream = sys.stdin if args.input == "-" else open(args.input)
    except OSError as exc:
        print(f"serve: cannot read {args.input}: {exc}", file=sys.stderr)
        if events_stream is not None:
            events_stream.close()
        return 2
    outstream = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        with AsyncGateway(model, version=version, config=config,
                          event_stream=events_stream) as gateway:
            stats = gateway.run_jsonl(instream, outstream)
    finally:
        if instream is not sys.stdin:
            instream.close()
        if outstream is not sys.stdout:
            outstream.close()
        if events_stream is not None:
            events_stream.close()
    args._serve_telemetry = stats.telemetry  # picked up by --metrics-out
    shed = f", {stats.shed} shed" if stats.shed else ""
    failed = f", {stats.failures} failed" if stats.failures else ""
    expired = (f", {stats.deadline_exceeded} expired"
               if stats.deadline_exceeded else "")
    per_shard = "/".join(str(s["submitted"]) for s in stats.per_shard)
    print(f"gateway served {stats.requests} requests "
          f"({stats.errors} malformed) over {len(stats.per_shard)} shards "
          f"[{per_shard}] in {stats.wall_s:.2f}s: "
          f"{stats.rows_per_s:.0f} rows/s, model v{version}"
          f"{shed}{failed}{expired}"
          f"{_telemetry_summary(stats.telemetry)}", file=sys.stderr)
    if args.strict and (stats.errors or stats.budget_burned):
        return 1
    return 0


def _telemetry_summary(telemetry: dict | None) -> str:
    """The windowed-quantile / SLO / drift tail of the serve summary."""
    if not telemetry:
        return ""
    parts = []
    hist = (telemetry.get("window", {}).get("histograms", {})
            .get("serve.request_latency_s"))
    if hist and hist.get("count"):
        parts.append(f"window p99={hist['p99'] * 1e3:.2f}ms "
                     f"p999={hist['p999'] * 1e3:.2f}ms")
    verdict = telemetry.get("last_evaluation") or {}
    slos = verdict.get("slos") or []
    if slos:
        if any(s.get("alerting") for s in slos):
            slo_flag = "ALERT"
        elif all(s.get("ok") for s in slos):
            slo_flag = "ok"
        else:
            slo_flag = "breach"
        parts.append(f"slo {slo_flag}")
        parts.append("budget BURNED" if verdict.get("budget_burned")
                     else "budget ok")
    drift = verdict.get("drift")
    if drift is not None:
        parts.append("drift DRIFT" if drift.get("drifted") else "drift ok")
    return f", {', '.join(parts)}" if parts else ""


def cmd_rollout(args) -> int:
    from repro.core.pipeline import ModelConfig
    from repro.rollout import (
        DriftCampaignConfig,
        GuardConfig,
        RefitConfig,
        run_drifting_campaign,
    )

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-rollout-")
    config = DriftCampaignConfig(
        area=args.area,
        phases=args.phases,
        foliage_step_db=args.foliage_step_db,
        passes_per_trajectory=args.passes,
        seed=args.seed,
        workers=args.workers,
        shards=args.shards,
        canary_fraction=args.canary_fraction,
        name=args.name,
        model=ModelConfig.fast() if args.fast else ModelConfig(),
        refit=RefitConfig(n_rounds=args.refit_rounds),
        guard=GuardConfig(),
    )
    try:
        summary = run_drifting_campaign(
            work_dir, config=config, registry_dir=args.registry,
            events_out=args.events_out,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"rollout: {exc}", file=sys.stderr)
        return 2
    print(f"rollout: {config.phases} drift phase(s) over {args.area} "
          f"({summary['requests']} requests served)")
    for phase in summary["phases"]:
        drift = phase["drift"] or {}
        line = (f"  phase {phase['phase']}: "
                f"+{phase['foliage_db']:.0f} dB foliage, "
                f"drift {'DETECTED' if drift.get('drifted') else 'ok'}")
        rollout = phase["rollout"]
        if rollout is not None:
            line += (f" -> candidate v{rollout['candidate']} "
                     f"{rollout['outcome']}")
            if rollout.get("escalated"):
                line += " (cold retrain)"
        print(line)
    print(f"  serving: v{summary['serving']} of versions "
          f"{summary['versions']} (registry pin)")
    print(f"  digest: {summary['digest'][:16]}...")
    if args.summary_out:
        with open(args.summary_out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True, default=str)
        print(f"  summary written to {args.summary_out}")
    if args.events_out:
        print(f"  events written to {args.events_out}")
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs.telemetry import render_report

    try:
        with open(args.metrics) as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"obs report: cannot read {args.metrics}: {exc}",
              file=sys.stderr)
        return 2
    events = None
    if args.events:
        try:
            with open(args.events) as f:
                events = [json.loads(line) for line in f if line.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            print(f"obs report: cannot read {args.events}: {exc}",
                  file=sys.stderr)
            return 2
    print(render_report(payload, events))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lumos5G reproduction: simulate campaigns, train and "
                    "evaluate 5G throughput predictors, build maps.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_areas = sub.add_parser("areas", help="list the measurement areas")
    p_areas.set_defaults(func=cmd_areas)

    p_gen = sub.add_parser(
        "generate",
        help="simulate a campaign to CSV or to a columnar store",
    )
    _add_common_dataset_args(p_gen)
    p_gen.add_argument("--out", help="output CSV path (cleaned dataset)")
    p_gen.add_argument("--store-dir", metavar="DIR",
                       help="write raw telemetry to a chunked columnar "
                            "store instead of CSV (docs/colstore.md); "
                            "train from it with 'fit --from-store'")
    p_gen.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                       help="rows per store chunk (default 262144); "
                            "results are identical at any value")
    p_gen.add_argument("--public-schema", action="store_true",
                       help="use the public Lumos5G dataset column names")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser(
        "fit",
        help="train a model out-of-core from a columnar store",
        description="Stream a raw campaign store through cleaning, "
                    "feature materialization and a bounded-memory model "
                    "fit (docs/colstore.md).  Intermediates land in "
                    "--work-dir and are reused across runs.",
    )
    p_fit.add_argument("--from-store", required=True, metavar="DIR",
                       help="raw campaign store ('generate --store-dir')")
    p_fit.add_argument("--work-dir", metavar="DIR",
                       help="where cleaned/feature stores go "
                            "(default: <store>/_work)")
    p_fit.add_argument("--features", default="L+M+T+C",
                       help="feature groups, e.g. L, L+M, T+M+C")
    p_fit.add_argument("--model", default="gdbt", choices=("gdbt", "rf"))
    p_fit.add_argument("--task", default="regression",
                       choices=("regression", "classification"))
    p_fit.add_argument("--seed", type=int, default=2020)
    p_fit.add_argument("--max-bins", type=int, default=256, metavar="N",
                       help="histogram bins per feature")
    p_fit.add_argument("--fast", action="store_true",
                       help="laptop-scale hyperparameters "
                            "(ModelConfig.fast())")
    p_fit.add_argument("--out", metavar="FILE",
                       help="write the fitted model as JSON")
    p_fit.add_argument("--verbose", "-v", action="store_true",
                       help="enable telemetry; print span tree + metrics")
    p_fit.add_argument("--metrics-out", metavar="FILE",
                       help="write a JSON metrics/trace snapshot to FILE")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="train + evaluate one model")
    _add_common_dataset_args(p_eval)
    p_eval.add_argument("--features", default="T+M",
                        help="feature groups, e.g. L, L+M, T+M+C")
    p_eval.add_argument("--model", default="gdbt", choices=ALL_MODELS)
    p_eval.set_defaults(func=cmd_evaluate)

    p_map = sub.add_parser("map", help="summarize throughput/coverage maps")
    _add_common_dataset_args(p_map)
    p_map.add_argument("--cell-size", type=float, default=2.0)
    p_map.add_argument("--csv", help="optionally dump map cells to CSV")
    p_map.set_defaults(func=cmd_map)

    p_serve = sub.add_parser(
        "serve",
        help="answer JSONL prediction requests from a saved model",
        description="Read one JSON request per line ({\"features\": [...]}), "
                    "micro-batch them through the model, write one JSON "
                    "response per line in input order (docs/serving.md).",
    )
    src = p_serve.add_argument_group("model source (exactly one)")
    src.add_argument("--model", metavar="FILE",
                     help="serialized model JSON (repro.ml.serialize)")
    src.add_argument("--registry", metavar="DIR",
                     help="model registry root (repro.serve.ModelRegistry)")
    src.add_argument("--name", help="registry model name")
    src.add_argument("--model-version", type=int, default=None, metavar="N",
                     help="registry version (default: latest)")
    src.add_argument("--expect-view", default=None, metavar="FINGERPRINT",
                     help="require the model's feature-view fingerprint "
                          "(repro.fstore) to match; mismatch refuses to "
                          "serve (exit 1)")
    p_serve.add_argument("--input", default="-", metavar="FILE",
                         help="JSONL request file (default: stdin)")
    p_serve.add_argument("--output", default="-", metavar="FILE",
                         help="JSONL response file (default: stdout)")
    p_serve.add_argument("--batch-size", type=int, default=64, metavar="N",
                         help="max rows per micro-batch (default 64)")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         metavar="MS",
                         help="max wait for a batch to fill (default 2)")
    p_serve.add_argument("--cache-size", type=int, default=4096, metavar="N",
                         help="LRU prediction cache entries; 0 disables")
    p_serve.add_argument("--quant-step", type=float, default=0.25,
                         metavar="STEP",
                         help="feature quantization step for cache keys")
    p_serve.add_argument("--deadline-ms", type=float, default=0.0,
                         metavar="MS",
                         help="per-request queue deadline; 0 = unbounded")
    p_serve.add_argument("--strict", action="store_true",
                         help="exit 1 if any request line was malformed "
                              "or the availability error budget burned")
    gw = p_serve.add_argument_group("sharded gateway (docs/serving.md)")
    gw.add_argument("--gateway", action="store_true",
                    help="route requests over N predictor shards "
                         "(repro.gateway; rendezvous-hashed by the "
                         "request's key/ue/id)")
    gw.add_argument("--shards", type=int, default=4, metavar="N",
                    help="predictor shard count (default 4)")
    gw.add_argument("--shard-queue", type=int, default=64, metavar="N",
                    help="per-shard in-flight admission window; beyond "
                         "it requests shed with 429-style responses "
                         "(default 64)")
    gw.add_argument("--gateway-backend", default="thread",
                    choices=("thread", "process"),
                    help="run shard models in-process or one worker "
                         "process per shard (default thread)")
    tel = p_serve.add_argument_group("telemetry (docs/observability.md)")
    tel.add_argument("--no-telemetry", action="store_true",
                     help="disable the windowed telemetry plane")
    tel.add_argument("--window-s", type=float, default=60.0, metavar="S",
                     help="fast SLO/drift window length (default 60)")
    tel.add_argument("--slow-window-s", type=float, default=600.0,
                     metavar="S",
                     help="slow burn-rate window length (default 600)")
    tel.add_argument("--slo-p99-ms", type=float, default=50.0, metavar="MS",
                     help="windowed p99 latency SLO threshold (default 50)")
    tel.add_argument("--slo-p999-ms", type=float, default=250.0,
                     metavar="MS",
                     help="windowed p999 latency SLO threshold (default 250)")
    tel.add_argument("--availability-target", type=float, default=0.999,
                     metavar="R",
                     help="availability SLO target ratio (default 0.999)")
    tel.add_argument("--events-out", metavar="FILE",
                     help="stream structured telemetry events as JSONL")
    p_serve.add_argument("--verbose", "-v", action="store_true",
                         help="enable telemetry; print span tree + metrics")
    p_serve.add_argument("--metrics-out", metavar="FILE",
                         help="write a JSON metrics/trace snapshot to FILE")
    p_serve.set_defaults(func=cmd_serve)

    p_rollout = sub.add_parser(
        "rollout",
        help="drive the continuous-learning loop over seeded drift",
        description="Simulate a drifting measurement campaign (seasonal "
                    "foliage loss stepped per phase), detect drift "
                    "against the serving model's baseline, warm-start "
                    "refit a candidate and roll it out through shadow "
                    "and canary stages (docs/continuous_learning.md).",
    )
    p_rollout.add_argument("--area", default="Airport",
                           help="measurement area (default Airport)")
    p_rollout.add_argument("--phases", type=int, default=1,
                           help="drift phases after the baseline campaign")
    p_rollout.add_argument("--foliage-step-db", type=float, default=10.0,
                           help="extra foliage loss per phase, dB")
    p_rollout.add_argument("--passes", type=int, default=2,
                           help="campaign passes per trajectory")
    p_rollout.add_argument("--seed", type=int, default=2020)
    p_rollout.add_argument("--workers", type=int, default=None,
                           help="campaign simulation workers")
    p_rollout.add_argument("--shards", type=int, default=2,
                           help="gateway predictor shards")
    p_rollout.add_argument("--canary-fraction", type=float, default=0.5,
                           help="UE-key slice served by the canary")
    p_rollout.add_argument("--refit-rounds", type=int, default=20,
                           help="boosting rounds appended per refit")
    p_rollout.add_argument("--name", default="lumos5g",
                           help="registry model name")
    p_rollout.add_argument("--registry", metavar="DIR", default=None,
                           help="model registry directory "
                                "(default: under --work-dir)")
    p_rollout.add_argument("--work-dir", metavar="DIR", default=None,
                           help="campaign stores + refit scratch "
                                "(default: a fresh temp dir)")
    p_rollout.add_argument("--fast", action="store_true",
                           help="smaller model config for quick runs")
    p_rollout.add_argument("--events-out", metavar="FILE", default=None,
                           help="write the rollout/drift event log as JSONL")
    p_rollout.add_argument("--summary-out", metavar="FILE", default=None,
                           help="write the JSON campaign summary")
    p_rollout.set_defaults(func=cmd_rollout)

    p_obs = sub.add_parser(
        "obs",
        help="observability utilities (docs/observability.md)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command")
    p_report = obs_sub.add_parser(
        "report",
        help="render a --metrics-out snapshot as an operator report",
        description="Print the windowed metrics, SLO statuses, drift "
                    "verdict and event tally recorded by a previous "
                    "--metrics-out / --events-out run.",
    )
    p_report.add_argument("--metrics", required=True, metavar="FILE",
                          help="JSON payload a --metrics-out run wrote")
    p_report.add_argument("--events", metavar="FILE",
                          help="JSONL event stream an --events-out run wrote")
    p_report.set_defaults(func=cmd_obs_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2

    verbose = getattr(args, "verbose", False)
    metrics_out = getattr(args, "metrics_out", None)
    if verbose or metrics_out:
        obs.set_enabled(True)
    if verbose:
        obs.configure_logging("info")
    if not obs.enabled():
        return args.func(args)

    # Fresh trace/metrics per invocation (matters when main() is called
    # repeatedly in one process, e.g. from the tests).
    obs.get_tracer().reset()
    obs.get_registry().reset()
    with obs.span(args.command):
        code = args.func(args)
    tracer = obs.get_tracer()
    registry_snapshot = obs.get_registry().snapshot()
    if verbose:
        print()
        print(tracer.render())
        print(obs.format_snapshot(registry_snapshot))
    if metrics_out:
        payload = {
            "command": args.command,
            "argv": list(argv) if argv is not None else sys.argv[1:],
            "metrics": registry_snapshot,
            "trace": tracer.to_dict(),
        }
        telemetry = getattr(args, "_serve_telemetry", None)
        if telemetry is not None:
            payload["telemetry"] = telemetry
        try:
            with open(metrics_out, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as exc:
            print(f"cannot write metrics snapshot: {exc}", file=sys.stderr)
            return code or 1
        print(f"metrics snapshot written to {metrics_out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
