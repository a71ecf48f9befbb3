"""Command-line entry point.

Subcommands:
  run                federated training + four-setting metrics
  sweep-lambda       personalization sweep, curve-shaped CSV
  compare-agg        aggregation-method matrix with signed-rank p-values
  incremental        two-task sequential training and barycentric merge
  validate-geometry  randomized property suite for the posterior geometry
  partition          dry-run shard manifests, no training

Exit codes: 0 success, 1 runtime or property failure, 2 configuration error.

A config command computes its results and writes nothing; ``main`` writes
them all when the command finishes, so a failed command leaves no artifact.
The semantic config is the resolved config without its execution knobs
(output directory, thread count); its sha256 is taken once per command.
Every artifact carries that sha256:
  - each CSV as two '#' lines, the sha256 and the semantic config, so reruns
    and sequential/parallel modes produce byte-identical CSVs;
  - each JSON artifact as ``config_sha256`` plus ``resolved_config``, which
    is the full config, execution knobs included;
  - ``manifest.json`` with the semantic config and the sorted list of the
    other files written.
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
from .evaluation import compare_aggregations, summarize
from .federation import RunError, incremental_sweep, run_experiment, setup
from .geometry import AggregationMethod


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


def cmd_run(cfg: ExperimentConfig) -> dict:
    rows = []
    artifacts = {}
    for seed in cfg.seeds:
        ((metrics, rounds),) = run_experiment(cfg, seed, (cfg.federation.aggregation,))
        rows += metrics
        artifacts[f"rounds_{seed}.json"] = rounds
    summary = summarize(rows, ("seed", "setting", "method", "lambda"))
    return {"metrics.csv": rows, "summary.csv": summary, **artifacts}


def cmd_sweep_lambda(cfg: ExperimentConfig) -> dict:
    scopes = {"PM-LD": "local", "PM-GD": "global"}
    rows = []
    for seed in cfg.seeds:
        ((metrics, _),) = run_experiment(cfg, seed, (cfg.federation.aggregation,))
        rows += [{**m, "scope": scopes[m["setting"]]} for m in metrics if m["setting"] in scopes]
    sweep = summarize(rows, ("seed", "lambda", "scope"))
    return {"lambda_sweep.csv": [{k: v for k, v in s.items() if k != "n_clients"} for s in sweep]}


def cmd_compare_agg(cfg: ExperimentConfig) -> dict:
    methods = cfg.compare.methods
    if len(methods) < 2 or len(set(methods)) < len(methods):
        raise ConfigError("compare.methods", "need at least two distinct methods")
    if len(cfg.seeds) < 5:
        raise ConfigError("seeds", "compare-agg needs at least 5 seeds for a meaningful test")

    # one call per seed trains round 1 once and forks the methods after it
    scores: dict[str, dict[str, list[float]]] = {
        metric: {method: [] for method in methods} for metric in ("acc", "nll", "ece")
    }
    aggregations = [AggregationMethod(method.upper()) for method in methods]
    for seed in cfg.seeds:
        for method, (metrics, _) in zip(methods, run_experiment(cfg, seed, aggregations)):
            gm_gd = next(m for m in metrics if m["setting"] == "GM-GD")
            for metric, by_method in scores.items():
                by_method[method].append(gm_gd[metric])

    comparisons = [
        {**comp, "metric": metric}
        for metric, by_method in scores.items()
        for comp in compare_aggregations(by_method)
    ]
    return {
        "pvalues.csv": [
            {key: comp[key] for key in ("method_a", "method_b", "metric", "p")}
            for comp in comparisons
        ],
        "compare_scores.json": {
            "scores": scores,
            "methods": list(methods),
            "comparisons": comparisons,
        },
    }


def cmd_incremental(cfg: ExperimentConfig) -> dict:
    rows = []
    for seed in cfg.seeds:
        rows += incremental_sweep(cfg, seed)
    return {"incremental_tradeoff.csv": rows}


def cmd_partition(cfg: ExperimentConfig) -> dict:
    artifacts = {}
    for seed in cfg.seeds:
        s = setup(cfg, seed)
        artifacts[f"shards_{seed}.json"] = {
            "seed": seed,
            "n_train": s.train.n,
            "n_test": s.test.n,
            "shards": [
                {**shard, "train_indices": tr.tolist(), "test_indices": te.tolist()}
                for shard, tr, te in zip(s.shards, s.train_idx, s.test_idx)
            ],
        }
    return artifacts


# name: (command, help, why a FedAvg config cannot run it, or None)
CONFIG_COMMANDS = {
    "run": (cmd_run, "train, aggregate, personalize, and report metrics", None),
    "sweep-lambda": (
        cmd_sweep_lambda,
        "personalization trade-off curve",
        "fedavg has no lambda path",
    ),
    "compare-agg": (
        cmd_compare_agg,
        "pairwise signed-rank aggregation comparison",
        "fedavg's shared frozen variance makes every aggregation the same mean",
    ),
    "incremental": (
        cmd_incremental,
        "two-task barycentric merge demo",
        "the merge fuses trained variances, which fedavg freezes",
    ),
    "partition": (cmd_partition, "write shard manifests without training", None),
}


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_artifacts(cfg: ExperimentConfig, command: str, artifacts: dict):
    """Write each artifact into ``cfg.out_dir``, then ``manifest.json``.

    A list of row dicts becomes a CSV whose header is the first row's keys;
    any other value becomes a JSON document.
    """
    semantic = cfg.to_json_dict(include_execution=False)
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    resolved = cfg.to_json_dict(include_execution=True)
    for name, value in artifacts.items():
        path = os.path.join(cfg.out_dir, name)
        if isinstance(value, list):
            lines = [f"# config_sha256: {digest}", f"# resolved_config: {blob}"]
            lines.append(",".join(value[0]))
            lines += [",".join(_fmt(v) for v in row.values()) for row in value]
            _write(path, "\n".join(lines) + "\n")
        else:
            doc = {"config_sha256": digest, "resolved_config": resolved}
            _write(path, _json({**doc, **to_jsonable(value)}))
    manifest = {
        "tool": f"baryfed {__version__}",
        "command": command,
        "config_sha256": digest,
        "resolved_config": semantic,
        "artifacts": sorted(artifacts),
    }
    _write(os.path.join(cfg.out_dir, "manifest.json"), _json(manifest))


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


def _run_config_command(args) -> int:
    fn, _, fedavg_unsupported = CONFIG_COMMANDS[args.command]
    cfg = _apply_overrides(load_config(args.config), args)
    if fedavg_unsupported and cfg.federation.algorithm != "bayes":
        raise ConfigError(
            "federation.algorithm", f"{args.command} needs 'bayes': {fedavg_unsupported}"
        )
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_artifacts(cfg, args.command, fn(cfg))
    return 0


def cmd_validate_geometry(args) -> int:
    instances = POSITIVE(args.instances, "--instances")
    seed = NON_NEGATIVE(args.seed, "--seed")
    from .checks import validate_geometry_suite  # only this command imports the suite

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

    for name, (_, descr, _) in CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--threads", type=int, default=None, help="client-update threads")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        p.set_defaults(fn=_run_config_command)

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
