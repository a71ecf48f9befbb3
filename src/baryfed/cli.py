"""Command-line entry point.

Subcommands:
  run                federated training + four-setting metrics
  sweep-lambda       personalization sweep, curve-shaped CSV
  compare-agg        aggregation-method matrix with signed-rank p-values
  incremental        two-task sequential training and barycentric merge
  validate-geometry  randomized property suite for the posterior geometry
  partition          dry-run shard manifests, no training

Exit codes: 0 success, 1 runtime or property failure, 2 configuration error.
Every CSV embeds the resolved semantic config and its sha256 as '#' comment
lines; JSON artifacts carry the same fields inline. Execution knobs (output
directory, thread count) are excluded from the embedded config so reruns and
sequential/parallel modes produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .checks import validate_geometry_suite
from .config import (
    NON_NEGATIVE,
    POSITIVE,
    ConfigError,
    ExperimentConfig,
    FederationCfg,
    load_config,
    parse_field,
    to_jsonable,
)
from .evaluation import compare_aggregations, summarize_metrics
from .federation import (
    ExperimentReport,
    RunError,
    build_data,
    failure_context,
    incremental_sweep,
    partition_both,
    run_experiment,
)
from .geometry import AggregationMethod

log = logging.getLogger(__name__)

METRICS_HEADER = (
    "setting",
    "method",
    "lambda",
    "client_id",
    "seed",
    "acc",
    "ece",
    "nll",
    "mc_samples",
    "bins",
)

SUMMARY_HEADER = (
    "seed",
    "setting",
    "method",
    "lambda",
    "n_clients",
    "acc_mean",
    "acc_std",
    "ece_mean",
    "ece_std",
    "nll_mean",
    "nll_std",
)


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip floats, 'inf', '' for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf"
    return repr(value)


def _config_blob(cfg: ExperimentConfig) -> tuple[str, str]:
    blob = json.dumps(
        cfg.to_json_dict(include_execution=False), sort_keys=True, separators=(",", ":")
    )
    return blob, hashlib.sha256(blob.encode()).hexdigest()


def _write_csv(path: str, cfg: ExperimentConfig, header, rows):
    blob, digest = _config_blob(cfg)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256: {digest}\n")
        fh.write(f"# resolved_config: {blob}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, cfg: ExperimentConfig, payload: dict):
    _, digest = _config_blob(cfg)
    doc = {
        "config_sha256": digest,
        "resolved_config": cfg.to_json_dict(include_execution=True),
    }
    doc.update(to_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, cfg: ExperimentConfig, command: str, artifacts: list[str]):
    blob, digest = _config_blob(cfg)
    doc = {
        "tool": f"baryfed {__version__}",
        "command": command,
        "config_sha256": digest,
        "resolved_config": json.loads(blob),
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metrics_rows(report: ExperimentReport):
    for m in report.metrics:
        yield (
            m.setting,
            m.method,
            m.lam,
            "global" if m.client_id is None else m.client_id,
            m.seed,
            m.accuracy,
            m.ece,
            m.nll,
            m.mc_samples,
            m.bins,
        )


def _summary_rows(report: ExperimentReport):
    for s in summarize_metrics(report.metrics):
        yield (
            report.seed,
            s.setting,
            s.method,
            s.lam,
            s.n_clients,
            s.acc_mean,
            s.acc_std,
            s.ece_mean,
            s.ece_std,
            s.nll_mean,
            s.nll_std,
        )


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        seeds = parse_field(ExperimentConfig, "seeds", [args.seed], "--seed")
        cfg = dataclasses.replace(cfg, seeds=seeds)
    if args.threads is not None:
        threads = parse_field(FederationCfg, "threads", args.threads, "--threads")
        cfg = dataclasses.replace(
            cfg, federation=dataclasses.replace(cfg.federation, threads=threads)
        )
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return cfg


def _prepare(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def cmd_run(args) -> int:
    cfg = _prepare(args)
    artifacts = []
    metric_rows = []
    summary_rows = []
    for seed in cfg.seeds:
        report = run_experiment(cfg, seed)
        metric_rows.extend(_metrics_rows(report))
        summary_rows.extend(_summary_rows(report))
        name = f"rounds_{seed}.json"
        _write_json(
            os.path.join(cfg.out_dir, name),
            cfg,
            {
                "seed": report.seed,
                "algorithm": report.algorithm,
                "aggregation": report.aggregation,
                "client_sizes": report.client_sizes,
                "client_label_counts": report.client_label_counts,
                "rounds": report.rounds,
                "wall_seconds": report.wall_seconds,
            },
        )
        artifacts.append(name)
    _write_csv(os.path.join(cfg.out_dir, "metrics.csv"), cfg, METRICS_HEADER, metric_rows)
    _write_csv(os.path.join(cfg.out_dir, "summary.csv"), cfg, SUMMARY_HEADER, summary_rows)
    artifacts += ["metrics.csv", "summary.csv"]
    _write_manifest(cfg.out_dir, cfg, "run", artifacts)
    return 0


SWEEP_HEADER = (
    "seed",
    "lambda",
    "scope",
    "acc_mean",
    "acc_std",
    "ece_mean",
    "ece_std",
    "nll_mean",
    "nll_std",
)


def cmd_sweep_lambda(args) -> int:
    cfg = _prepare(args)
    if cfg.federation.algorithm != "bayes":
        raise ConfigError(
            "federation.algorithm", "sweep-lambda needs 'bayes': fedavg has no lambda path"
        )
    rows = []
    artifacts = []
    for seed in cfg.seeds:
        report = run_experiment(cfg, seed)
        summaries = {
            (s.setting, s.lam): s for s in summarize_metrics(report.metrics)
        }
        for lam in cfg.personalization.lambdas:
            for setting, scope in (("PM-LD", "local"), ("PM-GD", "global")):
                s = summaries[(setting, lam)]
                rows.append(
                    (
                        seed,
                        lam,
                        scope,
                        s.acc_mean,
                        s.acc_std,
                        s.ece_mean,
                        s.ece_std,
                        s.nll_mean,
                        s.nll_std,
                    )
                )
    _write_csv(os.path.join(cfg.out_dir, "lambda_sweep.csv"), cfg, SWEEP_HEADER, rows)
    artifacts.append("lambda_sweep.csv")
    _write_manifest(cfg.out_dir, cfg, "sweep-lambda", artifacts)
    return 0


def cmd_compare_agg(args) -> int:
    cfg = _prepare(args)
    if len(cfg.compare.methods) < 2:
        raise ConfigError("compare.methods", "need at least two methods to compare")
    if len(set(cfg.compare.methods)) < len(cfg.compare.methods):
        log.warning("duplicate methods configured; their comparisons will be degenerate")
    if len(cfg.seeds) < 5:
        raise ConfigError("seeds", "compare-agg needs at least 5 seeds for a meaningful test")

    scores: dict[str, dict[str, list[float]]] = {
        metric: {} for metric in ("acc", "nll", "ece")
    }
    for method in cfg.compare.methods:
        run_cfg = dataclasses.replace(
            cfg,
            federation=dataclasses.replace(
                cfg.federation, aggregation=AggregationMethod(method.upper())
            ),
        )
        acc, nll, ece = [], [], []
        for seed in cfg.seeds:
            report = run_experiment(run_cfg, seed)
            gm_gd = [m for m in report.metrics if m.setting == "GM-GD"]
            acc.append(gm_gd[0].accuracy)
            nll.append(gm_gd[0].nll)
            ece.append(gm_gd[0].ece)
        scores["acc"][method], scores["nll"][method], scores["ece"][method] = acc, nll, ece

    rows = []
    details = []
    for metric in ("acc", "nll", "ece"):
        for comp in compare_aggregations(scores[metric]):
            rows.append(
                (
                    comp.method_a,
                    comp.method_b,
                    metric,
                    None if comp.degenerate else comp.p_two_sided,
                )
            )
            details.append(
                {
                    "metric": metric,
                    "method_a": comp.method_a,
                    "method_b": comp.method_b,
                    "statistic": comp.statistic,
                    "p": comp.p_two_sided,
                    "n_effective": comp.n_effective,
                    "degenerate": comp.degenerate,
                }
            )
    header = ("method_a", "method_b", "metric", "p")
    _write_csv(os.path.join(cfg.out_dir, "pvalues.csv"), cfg, header, rows)
    _write_json(
        os.path.join(cfg.out_dir, "compare_scores.json"),
        cfg,
        {
            "scores": scores,
            "methods": list(cfg.compare.methods),
            "comparisons": details,
        },
    )
    _write_manifest(cfg.out_dir, cfg, "compare-agg", ["pvalues.csv", "compare_scores.json"])
    return 0


INCREMENTAL_HEADER = (
    "seed",
    "w",
    "acc_a",
    "ece_a",
    "nll_a",
    "acc_b",
    "ece_b",
    "nll_b",
)


def cmd_incremental(args) -> int:
    cfg = _prepare(args)
    rows = []
    for seed in cfg.seeds:
        report = incremental_sweep(cfg, seed)
        for row in report.rows:
            rows.append(
                (
                    seed,
                    row.w,
                    row.task_a.accuracy,
                    row.task_a.ece,
                    row.task_a.nll,
                    row.task_b.accuracy,
                    row.task_b.ece,
                    row.task_b.nll,
                )
            )
    _write_csv(
        os.path.join(cfg.out_dir, "incremental_tradeoff.csv"), cfg, INCREMENTAL_HEADER, rows
    )
    _write_manifest(cfg.out_dir, cfg, "incremental", ["incremental_tradeoff.csv"])
    return 0


def cmd_partition(args) -> int:
    cfg = _prepare(args)
    artifacts = []
    for seed in cfg.seeds:
        with failure_context(0):
            train, test = build_data(cfg, seed)
            train_idx, test_idx = partition_both(cfg, train, test, seed)
        shards = []
        for k, (tr, te) in enumerate(zip(train_idx, test_idx)):
            shard = train.subset(tr)
            shards.append(
                {
                    "client": k,
                    "train_size": int(len(tr)),
                    "test_size": int(len(te)),
                    "label_counts": shard.label_counts().tolist(),
                    "train_indices": tr.tolist(),
                    "test_indices": te.tolist(),
                }
            )
        name = f"shards_{seed}.json"
        _write_json(
            os.path.join(cfg.out_dir, name),
            cfg,
            {"seed": seed, "n_train": train.n, "n_test": test.n, "shards": shards},
        )
        artifacts.append(name)
    _write_manifest(cfg.out_dir, cfg, "partition", artifacts)
    return 0


def cmd_validate_geometry(args) -> int:
    instances = POSITIVE(args.instances, "--instances")
    seed = NON_NEGATIVE(args.seed, "--seed")
    ok, lines = validate_geometry_suite(instances, seed)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baryfed",
        description="Federated learning over exchanged Gaussian posteriors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--threads", type=int, default=None, help="client-update threads")
        p.add_argument("--out-dir", default=None, help="override the output directory")

    for name, fn, descr in (
        ("run", cmd_run, "train, aggregate, personalize, and report metrics"),
        ("sweep-lambda", cmd_sweep_lambda, "personalization trade-off curve"),
        ("compare-agg", cmd_compare_agg, "pairwise signed-rank aggregation comparison"),
        ("incremental", cmd_incremental, "two-task barycentric merge demo"),
        ("partition", cmd_partition, "write shard manifests without training"),
    ):
        p = sub.add_parser(name, help=descr)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("validate-geometry", help="randomized geometry property suite")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_validate_geometry)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"run failed at {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
