"""Output checks on the artifacts one baryfed command wrote.

Each check reads only the files in the command's output directory and the
config the benchmark generated, and recomputes what it can without the
package: the manifest's config hash, the per-setting summary from the
per-client rows, and every signed-rank p-value (with SciPy). A failed check
raises CheckError; a passing one returns the quality numbers the benchmark
reports, the number of evaluation rows the command wrote, and the sha256 of
each artifact that must not change between repetitions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

SETTINGS = ("PM-LD", "PM-GD", "GM-LD", "GM-GD")
REL_TOL = 1e-9


class CheckError(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def canonical_sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def contains(resolved, generated) -> str | None:
    """Path of the first generated value the resolved config does not echo."""
    if isinstance(generated, dict):
        if not isinstance(resolved, dict):
            return ""
        for key, value in generated.items():
            if key not in resolved:
                return key
            bad = contains(resolved[key], value)
            if bad is not None:
                return f"{key}.{bad}" if bad else key
        return None
    if isinstance(generated, list):
        if not isinstance(resolved, list) or len(resolved) != len(generated):
            return ""
        for i, (r, g) in enumerate(zip(resolved, generated)):
            bad = contains(r, g)
            if bad is not None:
                return f"[{i}]{bad}"
        return None
    return None if generated == resolved else ""


def _read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path) as fh:
        text = fh.read()
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return comments, list(csv.DictReader(io.StringIO(body)))


def _digests(out_dir: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_manifest(out_dir: str, config: dict, command: str, csv_names=()):
    """The manifest hashes the resolved config, which echoes the generated one."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    _require(manifest.get("command") == command, f"manifest command {manifest.get('command')!r}")
    digest = manifest.get("config_sha256")
    resolved = manifest.get("resolved_config")
    _require(canonical_sha256(resolved) == digest, "config_sha256 does not hash resolved_config")
    generated = {k: v for k, v in config.items() if k != "out_dir"}
    bad = contains(resolved, generated)
    _require(bad is None, f"resolved config differs from the generated one at {bad!r}")
    for name in csv_names:
        comments, _ = _read_csv(os.path.join(out_dir, name))
        _require(
            bool(comments) and comments[0] == f"# config_sha256: {digest}",
            f"{name} does not carry the manifest's config_sha256",
        )


def check_run(out_dir: str, config: dict) -> tuple[dict, int, dict]:
    """Checks on ``baryfed run``: row counts, ranges, summary, above chance."""
    check_manifest(out_dir, config, "run", ("metrics.csv", "summary.csv"))
    seeds = config["seeds"]
    for seed in seeds:
        _require(os.path.isfile(os.path.join(out_dir, f"rounds_{seed}.json")), f"no rounds_{seed}.json")
    clients = config["partition"]["n_clients"]
    n_lambdas = len(config["personalization"]["lambdas"])
    _, rows = _read_csv(os.path.join(out_dir, "metrics.csv"))
    expected = len(seeds) * (clients + 1 + 2 * n_lambdas * clients)
    _require(len(rows) == expected, f"metrics.csv has {len(rows)} rows, expected {expected}")
    groups: dict[tuple, list] = {}
    for row in rows:
        _require(row["setting"] in SETTINGS, f"unknown setting {row['setting']!r}")
        _require(int(row["seed"]) in seeds, f"unexpected seed {row['seed']}")
        acc, nll, ece = float(row["acc"]), float(row["nll"]), float(row["ece"])
        _require(0.0 <= acc <= 100.0, f"accuracy {acc} outside [0, 100]")
        _require(math.isfinite(nll) and nll >= 0.0, f"nll {nll} not finite and >= 0")
        _require(0.0 <= ece <= 1.0, f"ece {ece} outside [0, 1]")
        groups.setdefault((row["seed"], row["setting"], row["lambda"]), []).append((acc, ece, nll))

    _, summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    _require(len(summary) == len(groups), f"summary.csv has {len(summary)} rows, expected {len(groups)}")
    for row in summary:
        members = groups.get((row["seed"], row["setting"], row["lambda"]))
        _require(members is not None, f"summary row without metrics rows: {row}")
        values = np.array(members)
        _require(int(row["n_clients"]) == len(members), "summary n_clients mismatch")
        for j, name in enumerate(("acc", "ece", "nll")):
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                got, want = float(row[f"{name}_{stat}"]), float(fn(values[:, j]))
                _require(_close(got, want), f"summary {name}_{stat} {got} != {want} recomputed")

    gm_gd = [(float(r["acc"]), float(r["nll"])) for r in rows if r["setting"] == "GM-GD"]
    pm_ld = [float(r["acc"]) for r in rows if r["setting"] == "PM-LD" and float(r["lambda"]) == 1.0]
    _require(len(gm_gd) == len(seeds), "one GM-GD row per seed expected")
    _require(bool(pm_ld), "no PM-LD rows at lambda=1")
    quality = {
        "gm_gd_acc": float(np.mean([a for a, _ in gm_gd])),
        "gm_gd_nll": float(np.mean([n for _, n in gm_gd])),
        "pm_ld_acc": float(np.mean(pm_ld)),
    }
    chance = 100.0 / config["dataset"]["classes"]
    _require(quality["gm_gd_acc"] > chance, f"GM-GD accuracy {quality['gm_gd_acc']} not above chance")
    return quality, len(rows), _digests(out_dir, ("metrics.csv", "summary.csv", "manifest.json"))


def exact_signed_rank_p(diff) -> float:
    """Two-sided exact p-value over all 2^n sign patterns of the midranks.

    Counts the null distribution of W+ by dynamic programming on doubled
    ranks (midranks of ties are multiples of 1/2), so ties are handled
    exactly, as the permutation test requires.
    """
    from scipy.stats import rankdata

    diff = np.asarray(diff, dtype=np.float64)
    diff = diff[diff != 0.0]
    ranks2 = np.rint(2 * rankdata(np.abs(diff))).astype(np.int64)
    stat2 = min(int(ranks2[diff > 0].sum()), int(ranks2[diff < 0].sum()))
    counts = np.zeros(int(ranks2.sum()) + 1)
    counts[0] = 1.0
    for r in ranks2:
        counts[r:] = counts[r:] + counts[:-r]
    return min(1.0, 2.0 * float(counts[: stat2 + 1].sum()) / 2.0 ** len(diff))


def reference_p(x, y) -> float:
    """Two-sided signed-rank p-value, exact up to n = 20.

    SciPy's exact method assumes untied ranks 1..n; it is used as a second
    reference only when the absolute differences have no ties.
    """
    from scipy.stats import wilcoxon

    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    nonzero = np.abs(diff[diff != 0.0])
    if len(nonzero) > 20:
        return float(wilcoxon(x, y, method="approx", correction=True).pvalue)
    p = exact_signed_rank_p(diff)
    if len(np.unique(nonzero)) == len(nonzero):
        scipy_p = float(wilcoxon(x, y, method="exact").pvalue)
        _require(_close(p, scipy_p), f"exact count gives p={p!r}, SciPy gives {scipy_p!r}")
    return p


def check_compare(out_dir: str, config: dict) -> tuple[dict, int, dict]:
    """Checks on ``baryfed compare-agg``: matrix shape and every p-value."""
    check_manifest(out_dir, config, "compare-agg", ("pvalues.csv",))
    with open(os.path.join(out_dir, "compare_scores.json")) as fh:
        doc = json.load(fh)
    scores = doc["scores"]
    methods = config["compare"]["methods"]
    _require(doc["methods"] == methods, f"compare_scores.json lists methods {doc['methods']}")
    n_seeds = len(config["seeds"])
    for metric in ("acc", "nll", "ece"):
        _require(sorted(scores[metric]) == sorted(methods), f"{metric} scores cover {sorted(scores[metric])}")
        for m in methods:
            _require(len(scores[metric][m]) == n_seeds, f"{metric}/{m} has {len(scores[metric][m])} scores")
    acc = np.array([scores["acc"][m] for m in methods])
    nll = np.array([scores["nll"][m] for m in methods])
    _require(bool(np.all((acc >= 0) & (acc <= 100))), "accuracy score outside [0, 100]")
    _require(bool(np.all(np.isfinite(nll) & (nll >= 0))), "nll score not finite and >= 0")

    _, rows = _read_csv(os.path.join(out_dir, "pvalues.csv"))
    pairs = [(a, b) for i, a in enumerate(methods) for b in methods[i + 1 :]]
    expected = [(a, b, metric) for metric in ("acc", "nll", "ece") for a, b in pairs]
    _require(
        [(r["method_a"], r["method_b"], r["metric"]) for r in rows] == expected,
        "pvalues.csv is not the lower-triangular matrix per metric",
    )
    for r in rows:
        x = np.array(scores[r["metric"]][r["method_a"]])
        y = np.array(scores[r["metric"]][r["method_b"]])
        where = f"{r['metric']} {r['method_a']}-{r['method_b']}"
        if np.all(x == y):
            _require(r["p"] == "", f"{where}: degenerate pair has p={r['p']}")
            continue
        got, want = float(r["p"]), reference_p(x, y)
        _require(_close(got, want), f"{where}: p={got!r}, reference gives {want!r}")
    quality = {"gm_gd_acc": float(acc.mean()), "gm_gd_nll": float(nll.mean())}
    useful = n_seeds * len(methods)
    return quality, useful, _digests(out_dir, ("pvalues.csv", "compare_scores.json", "manifest.json"))


CHECKS = {"run": check_run, "compare-agg": check_compare}
