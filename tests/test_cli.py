import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baryfed import checks, federation
from baryfed import data as data_mod
from baryfed.cli import main
from baryfed.config import ConfigError
from baryfed.federation import RunError
from baryfed.geometry import AggregationMethod, DiagGaussian, aggregate, project

BASE_CONFIG = {
    "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 40, "spread": 0.3},
    "model": {"hidden": [8]},
    "partition": {"n_clients": 4, "beta": 1.0, "min_shard": 5},
    "optimizer": {"lr_initial": 0.3, "lr_final": 0.1},
    "federation": {"rounds": 3, "local_epochs": 3, "batch_size": 200},
    "personalization": {"lambdas": [0, 1, "inf"]},
    "eval": {"mc_samples": 4},
    "seeds": [0],
}


def write_config(tmp_path, name="cfg.json", **over):
    obj = {**BASE_CONFIG, **over, "out_dir": str(tmp_path / "out")}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0].split(","), [l.split(",") for l in body[1:]]


def records(path):
    """The CSV's rows as dicts keyed by its header."""
    _, header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


class TestRun:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        for name in ("metrics.csv", "summary.csv", "rounds_0.json", "manifest.json"):
            assert (out / name).exists()

        comments, header, rows = read_csv(out / "metrics.csv")
        assert header == [
            "setting", "method", "lambda", "client_id", "seed",
            "acc", "ece", "nll", "mc_samples", "bins",
        ]
        assert len(comments) == 2
        assert comments[0].startswith("# config_sha256: ")
        settings = [r[0] for r in rows]
        assert settings.count("GM-LD") == 4
        assert settings.count("GM-GD") == 1
        assert settings.count("PM-LD") == 12
        by_col = {r[0]: r for r in rows}
        assert by_col["GM-GD"][3] == "global"
        assert {r[1] for r in rows} == {"w2b"}
        assert any(r[2] == "inf" for r in rows)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["artifacts"] == sorted(
            ["rounds_0.json", "metrics.csv", "summary.csv"]
        )
        digest = comments[0].split(": ")[1]
        assert manifest["config_sha256"] == digest

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        alt = tmp_path / "alt"
        assert main(["run", cfg]) == 0
        assert main(["run", cfg, "--out-dir", str(alt)]) == 0
        for name in ("metrics.csv", "summary.csv"):
            assert (out / name).read_bytes() == (alt / name).read_bytes()

    def test_threads_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        alt = tmp_path / "alt"
        assert main(["run", cfg]) == 0
        assert main(["run", cfg, "--out-dir", str(alt), "--threads", "3"]) == 0
        assert (out / "metrics.csv").read_bytes() == (alt / "metrics.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--seed", "7"]) == 0
        assert (tmp_path / "out" / "rounds_7.json").exists()
        assert not (tmp_path / "out" / "rounds_0.json").exists()

    def test_rounds_json_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", cfg])
        doc = json.loads((tmp_path / "out" / "rounds_0.json").read_text())
        assert doc["seed"] == 0
        assert doc["aggregation"] == "w2b"
        assert len(doc["rounds"]) == 3
        assert len(doc["client_sizes"]) == 4
        assert doc["resolved_config"]["federation"]["rounds"] == 3


class TestSweepLambda:
    def test_curve_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep-lambda", cfg]) == 0
        comments, header, rows = read_csv(tmp_path / "out" / "lambda_sweep.csv")
        assert header[:3] == ["seed", "lambda", "scope"]
        assert len(rows) == 3 * 2  # lambdas x {local, global}
        assert {r[2] for r in rows} == {"local", "global"}
        assert [r[1] for r in rows if r[2] == "local"] == ["0.0", "1.0", "inf"]


def test_csvs_agree(tmp_path):
    """summary.csv holds the mean and population std of each metrics.csv group,
    and lambda_sweep.csv repeats the PM-LD and PM-GD rows of summary.csv."""
    cfg = write_config(tmp_path, seeds=[0, 1])
    sweep_dir = tmp_path / "sweep"
    assert main(["run", cfg]) == 0
    assert main(["sweep-lambda", cfg, "--out-dir", str(sweep_dir)]) == 0
    metrics = records(tmp_path / "out" / "metrics.csv")
    summary = records(tmp_path / "out" / "summary.csv")
    sweep = records(sweep_dir / "lambda_sweep.csv")

    key_cols = ("seed", "setting", "method", "lambda")
    groups = {}
    for m in metrics:
        groups.setdefault(tuple(m[c] for c in key_cols), []).append(m)
    assert [tuple(s[c] for c in key_cols) for s in summary] == list(groups)
    for s in summary:
        members = groups[tuple(s[c] for c in key_cols)]
        assert int(s["n_clients"]) == len(members)
        for metric in ("acc", "ece", "nll"):
            values = np.array([float(m[metric]) for m in members])
            assert float(s[f"{metric}_mean"]) == values.mean()
            assert float(s[f"{metric}_std"]) == values.std()

    moments = [f"{m}_{x}" for m in ("acc", "ece", "nll") for x in ("mean", "std")]
    pm = {
        (s["seed"], s["lambda"], s["setting"]): s
        for s in summary if s["setting"] in ("PM-LD", "PM-GD")
    }
    setting = {"local": "PM-LD", "global": "PM-GD"}
    assert len(sweep) == len(pm) == 2 * 2 * 3  # seeds x scopes x lambdas
    for row in sweep:
        match = pm[(row["seed"], row["lambda"], setting[row["scope"]])]
        assert [row[c] for c in moments] == [match[c] for c in moments]


class TestRunImports:
    def test_run_and_compare_agg_leave_numpy_ma_out(self, tmp_path):
        # importing numpy.ma costs ~17 ms in a cold interpreter, and neither
        # command needs it
        run_cfg = write_config(tmp_path, "run.json")
        agg_cfg = write_config(
            tmp_path, "agg.json", seeds=[0, 1, 2, 3, 4], compare={"methods": ["eaa", "w2b"]}
        )
        agg_out = str(tmp_path / "agg")
        code = (
            "import sys\n"
            "from baryfed.cli import main\n"
            f"assert main(['run', {run_cfg!r}]) == 0\n"
            f"assert main(['compare-agg', {agg_cfg!r}, '--out-dir', {agg_out!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False"]


class TestCompareAgg:
    def test_matrix_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            seeds=[0, 1, 2, 3, 4],
            compare={"methods": ["eaa", "w2b"]},
        )
        assert main(["compare-agg", cfg]) == 0
        comments, header, rows = read_csv(tmp_path / "out" / "pvalues.csv")
        assert header == ["method_a", "method_b", "metric", "p"]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("eaa", "w2b", "acc"),
            ("eaa", "w2b", "nll"),
            ("eaa", "w2b", "ece"),
        ]
        doc = json.loads((tmp_path / "out" / "compare_scores.json").read_text())
        assert len(doc["comparisons"]) == 3
        assert set(doc["scores"]["acc"]) == {"eaa", "w2b"}
        assert all(len(v) == 5 for v in doc["scores"]["acc"].values())

    def test_threads_byte_identical(self, tmp_path):
        # full-batch, then minibatches of 7 that leave every epoch's last
        # step ragged across clients
        for batch_size in (200, 7):
            federation = {**BASE_CONFIG["federation"], "batch_size": batch_size}
            cfg = write_config(
                tmp_path, f"cfg{batch_size}.json", seeds=[0, 1, 2, 3, 4], federation=federation
            )
            out = tmp_path / f"out{batch_size}"
            alt = tmp_path / f"alt{batch_size}"
            assert main(["compare-agg", cfg, "--out-dir", str(out)]) == 0
            assert main(["compare-agg", cfg, "--out-dir", str(alt), "--threads", "3"]) == 0
            assert (out / "pvalues.csv").read_bytes() == (alt / "pvalues.csv").read_bytes()
            seq, par = (json.loads((d / "compare_scores.json").read_text()) for d in (out, alt))
            assert seq["scores"] == par["scores"]
            assert seq["comparisons"] == par["comparisons"]

    def test_needs_two_methods(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1, 2, 3, 4], compare={"methods": ["eaa"]})
        assert main(["compare-agg", cfg]) == 2

    def test_needs_five_seeds(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1, 2, 3])
        assert main(["compare-agg", cfg]) == 2


class TestIncremental:
    def test_tradeoff_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dataset={"kind": "synth", "classes": 4, "dim": 2, "n_per_class": 30, "spread": 0.3},
            federation={"rounds": 2, "local_epochs": 2, "batch_size": 200},
            incremental={"w_grid": [0.0, 0.5, 1.0]},
        )
        assert main(["incremental", cfg]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "incremental_tradeoff.csv")
        assert header == ["seed", "w", "acc_a", "ece_a", "nll_a", "acc_b", "ece_b", "nll_b"]
        assert [r[1] for r in rows] == ["0.0", "0.5", "1.0"]


class TestPartition:
    def test_shard_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["partition", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "shards_0.json").read_text())
        assert len(doc["shards"]) == 4
        assert sum(s["train_size"] for s in doc["shards"]) == doc["n_train"]
        assert all(s["test_size"] >= 1 for s in doc["shards"])
        assert all(len(s["label_counts"]) == 3 for s in doc["shards"])

    @pytest.mark.parametrize("limit, kept", [(45, 45), (60, 60), (1000, 60)])
    def test_idx_limit(self, tmp_path, limit, kept):
        # the first min(n, limit) rows of each 60-row file, each in one shard
        dataset = {**idx_dataset(tmp_path, [0, 1, 2] * 20, [0, 1, 2] * 20), "limit": limit}
        assert main(["partition", write_config(tmp_path, dataset=dataset)]) == 0
        doc = json.loads((tmp_path / "out" / "shards_0.json").read_text())
        assert (doc["n_train"], doc["n_test"]) == (kept, kept)
        for part in ("train", "test"):
            rows = sorted(i for s in doc["shards"] for i in s[f"{part}_indices"])
            assert rows == list(range(kept))

    def test_shards_match_run(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1])
        assert main(["partition", cfg, "--out-dir", str(tmp_path / "partition")]) == 0
        assert main(["run", cfg, "--out-dir", str(tmp_path / "run")]) == 0
        for seed in (0, 1):
            doc = json.loads((tmp_path / "partition" / f"shards_{seed}.json").read_text())
            rounds = json.loads((tmp_path / "run" / f"rounds_{seed}.json").read_text())
            assert [s["train_size"] for s in doc["shards"]] == rounds["client_sizes"]
            assert [s["label_counts"] for s in doc["shards"]] == rounds["client_label_counts"]


@pytest.mark.parametrize(
    "command, over",
    [
        ("run", {}),
        ("sweep-lambda", {}),
        ("compare-agg", {"seeds": [3, 1, 0, 2, 4], "compare": {"methods": ["eaa", "w2b"]}}),
        ("incremental", {"seeds": [3, 1, 0], "dataset": {**BASE_CONFIG["dataset"], "classes": 4}}),
        ("partition", {}),
    ],
)
def test_builds_data_once(tmp_path, monkeypatch, command, over):
    """Every config command builds the data once for all seeds (one training
    pass here), counted through whichever module binds build_data; a narrow
    incremental trains each task of every seed in one client_update call."""
    built, trained = [], []
    build_data, client_update = federation.build_data, federation.client_update

    def counting(cfg):
        built.append(cfg.seeds)
        return build_data(cfg)

    def training(*args):
        trained.append(args)
        return client_update(*args)

    monkeypatch.setattr(federation, "client_update", training)

    for name, module in list(sys.modules.items()):
        if name == "baryfed" or name.startswith("baryfed."):
            for attr, value in list(vars(module).items()):
                if value is build_data:
                    monkeypatch.setattr(module, attr, counting)
    over = {"seeds": [3, 1], **over}
    assert main([command, write_config(tmp_path, **over)]) == 0
    assert len(built) == 1
    if command == "incremental":
        assert len(trained) == 2  # task A of every seed, then task B


@pytest.mark.parametrize(
    "command, over",
    [
        ("run", {"seeds": [0, 1]}),
        ("sweep-lambda", {}),
        ("compare-agg", {"seeds": [0, 1, 2, 3, 4], "compare": {"methods": ["eaa", "w2b"]}}),
        ("incremental", {"dataset": {**BASE_CONFIG["dataset"], "classes": 4}}),
        ("partition", {"seeds": [0, 1]}),
    ],
)
def test_manifest_lists_every_artifact(tmp_path, command, over):
    """The manifest names exactly the other files written, and every CSV
    carries the manifest's config_sha256 on its first line."""
    cfg = write_config(tmp_path, **over)
    assert main([command, cfg]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["artifacts"] == written
    csvs = [name for name in written if name.endswith(".csv")]
    assert csvs or command == "partition"
    for name in csvs:
        first = (out / name).read_text().splitlines()[0]
        assert first == f"# config_sha256: {manifest['config_sha256']}"


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """A wide config (dim 256, hidden [100], batch 64) writes the same bytes
    with the BLAS thread variables unset, where the package sets one thread,
    and set to 1. On a 1-core host BLAS runs one thread either way, so there
    this test cannot fail."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synth", "classes": 3, "dim": 256, "n_per_class": 60, "spread": 0.3},
        model={"hidden": [100]},
        partition={"n_clients": 2, "beta": 1.0, "min_shard": 5},
        federation={"rounds": 2, "local_epochs": 1, "batch_size": 64},
    )
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env.update(dict.fromkeys(blas, threads) if threads else {}, PYTHONPATH=str(src))
        outs.append(tmp_path / f"blas-{threads}")
        command = [sys.executable, "-m", "baryfed.cli", "run", cfg, "--out-dir", str(outs[-1])]
        subprocess.run(command, env=env, check=True, timeout=120)
    for name in ("metrics.csv", "summary.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def write_idx(tmp_path, name, labels, side=2):
    """Tiny IDX image/label pair: side x side images whose pixels encode the label."""
    rng = np.random.default_rng(len(labels))
    labels = np.asarray(labels, dtype=np.uint8)
    noise = rng.integers(0, 40, size=(len(labels), side * side))
    pixels = (labels[:, None] * 80 + noise).astype(np.uint8)
    images = tmp_path / f"{name}-images.idx"
    images.write_bytes(struct.pack(">4I", 0x803, len(labels), side, side) + pixels.tobytes())
    labels_path = tmp_path / f"{name}-labels.idx"
    labels_path.write_bytes(struct.pack(">2I", 0x801, len(labels)) + labels.tobytes())
    return str(images), str(labels_path)


def idx_dataset(tmp_path, train_labels, test_labels):
    train_images, train_label_path = write_idx(tmp_path, "train", train_labels)
    test_images, test_label_path = write_idx(tmp_path, "test", test_labels)
    return {
        "kind": "idx",
        "train_images": train_images,
        "train_labels": train_label_path,
        "test_images": test_images,
        "test_labels": test_label_path,
    }


class TestIdx:
    def test_test_file_missing_top_class(self, tmp_path):
        cfg = write_config(tmp_path, dataset=idx_dataset(tmp_path, [0, 1, 2] * 30, [0, 1] * 20))
        assert main(["run", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "rounds_0.json").read_text())
        assert len(doc["client_label_counts"]) == 4
        assert all(len(counts) == 3 for counts in doc["client_label_counts"])


    def test_image_sizes_must_match(self, tmp_path, capsys):
        dataset = idx_dataset(tmp_path, [0, 1, 2] * 20, [0, 1, 2] * 6)
        dataset["test_images"], dataset["test_labels"] = write_idx(
            tmp_path, "test3x3", [0, 1, 2] * 6, side=3
        )
        assert main(["run", write_config(tmp_path, dataset=dataset)]) == 2
        err = capsys.readouterr().err
        assert "config field 'dataset.test_images': images of 9 pixels" in err
        assert "dataset.train_images holds images of 4" in err
        assert "Traceback" not in err


class TestValidateGeometry:
    def test_clean_pass(self, capsys):
        assert main(["validate-geometry", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert all(prop in out for prop in checks.PROPERTIES)
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--instances", "-3"], "--instances"),
            (["--instances", "0"], "--instances"),
            (["--seed", "-1"], "--seed"),
        ],
        ids=["negative_instances", "zero_instances", "negative_seed"],
    )
    def test_bad_flag_exit_2(self, capsys, flags, flag):
        assert main(["validate-geometry", *flags]) == 2
        out = capsys.readouterr()
        assert f"'{flag}'" in out.err
        assert "pass" not in out.out

    def assert_only_failure(self, capsys, failing):
        """Exit 1, FAIL on the ``failing`` property's line, pass on the others."""
        assert main(["validate-geometry", "--instances", "10"]) == 1
        out = capsys.readouterr().out
        assert "counterexample" in out
        status = {l.split()[0]: l for l in out.splitlines() if not l.startswith(" ")}
        assert tuple(status) == checks.PROPERTIES
        for prop, line in status.items():
            assert ("FAIL" if prop == failing else "pass") in line, line

    def test_mutation_detected(self, capsys, monkeypatch):
        def w2b_with_eaa_variance(method, posts, weights):
            if method is not AggregationMethod.W2B:
                return aggregate(method, posts, weights)
            mean = sum(w * p.mean for w, p in zip(weights, posts))
            var = sum(w * p.var for w, p in zip(weights, posts))
            return DiagGaussian(mean=mean, var=var)

        monkeypatch.setattr(checks, "aggregate", w2b_with_eaa_variance)
        self.assert_only_failure(capsys, "barycenter-optimality")

    def test_wrong_barycenter_in_projection_detected(self, capsys, monkeypatch):
        def eaa_projection(d, p_g, p_k, lambdas):
            # stacks of one pair, as checks passes them
            pair = [p_g[0], p_k[0]]
            outs = [
                aggregate(AggregationMethod.EAA, pair, [1.0 / (lam + 1.0), lam / (lam + 1.0)])
                for lam in lambdas
                if 0.0 < lam < math.inf
            ]
            return federation._stack(outs)[None]

        monkeypatch.setattr(checks, "project", eaa_projection)
        self.assert_only_failure(capsys, "projection-oracle-equivalence")

    def test_inverted_lambda_detected(self, capsys, monkeypatch):
        # walks the path between p_g and p_k backwards: 1/lambda for lambda
        def inverted(d, p_g, p_k, lambdas):
            return project(d, p_g, p_k, [math.inf if lam == 0.0 else 1.0 / lam for lam in lambdas])

        monkeypatch.setattr(checks, "project", inverted)
        self.assert_only_failure(capsys, "geodesic-monotonicity")


DIVERGING = {
    "optimizer": {"lr_initial": 1e6, "lr_final": 1e6, "h0": 1e-6, "weight_decay": 0},
    "federation": {"rounds": 3, "local_epochs": 3, "batch_size": 8},
}
SCORING_TOO_BIG = {"eval": {"mc_samples": 10**12}}
OVERFLOWING = {"optimizer": {"lr_initial": 1e300, "lr_final": 0.1}}
# trains to finite posteriors whose predictive overflows
OVERFLOWING_PREDICTIVE = {
    "optimizer": {"lr_final": 1e300},
    "federation": {"rounds": 2, "local_epochs": 1, "batch_size": 200},
    "eval": {"mc_samples": 2},
}
NON_FINITE_PREDICTIVE = ": non-finite predictive probabilities"
EMPTY_TRAIN = "config field 'dataset.test_fraction': "
REPEATED_SEEDS = "'seeds': expected a non-empty list of distinct non-negative integers"
MISSING_IDX = {
    "kind": "idx",
    "train_images": "/nonexistent/a",
    "train_labels": "/nonexistent/b",
    "test_images": "/nonexistent/c",
    "test_labels": "/nonexistent/d",
}


@pytest.mark.parametrize(
    "command, over, code, message",
    [
        ("run", lambda tmp: {"dataset": MISSING_IDX}, 1, "run failed at round 0: "),
        ("run", lambda tmp: DIVERGING, 1, "run failed at round 1, client 0: optimizer step "),
        (
            "incremental",
            lambda tmp: {**DIVERGING, "dataset": {**BASE_CONFIG["dataset"], "classes": 4}},
            1,
            "run failed at round 1, client 0: optimizer step 1: h + delta = 0 ",
        ),
        (
            "incremental",
            lambda tmp: {
                **DIVERGING, "seeds": [0, 1], "dataset": {**BASE_CONFIG["dataset"], "classes": 4}
            },
            1,
            "run failed at round 1, client 0: optimizer step 1: h + delta = 0 ",
        ),
        (
            "incremental",
            lambda tmp: {"dataset": idx_dataset(tmp, [0, 1, 2, 3] * 20, [0, 1] * 10)},
            1,
            "run failed at round 0: task B test set has no examples of classes [2, 3]",
        ),
        ("incremental", lambda tmp: {"incremental": {"split_class": 3}}, 2, "'incremental.split_class'"),
        (
            "incremental",
            lambda tmp: {"federation": {"algorithm": "fedavg"}},
            2,
            "'federation.algorithm': incremental needs 'bayes'",
        ),
        (
            "partition",
            lambda tmp: {
                "dataset": {**BASE_CONFIG["dataset"], "n_per_class": 20},
                "partition": {"n_clients": 10, "beta": 1.0, "min_shard": 10},
            },
            2,
            "config field 'partition.min_shard': no draw met min_shard=10",
        ),
        ("partition", lambda tmp: {"dataset": MISSING_IDX}, 1, "run failed at round 0: "),
        (
            "sweep-lambda",
            lambda tmp: {"federation": {"algorithm": "fedavg"}},
            2,
            "'federation.algorithm': sweep-lambda needs 'bayes'",
        ),
        ("sweep-lambda", lambda tmp: DIVERGING, 1, "run failed at round 1, client 0: "),
        (
            "compare-agg",
            lambda tmp: {"seeds": [0, 1, 2, 3, 4], "compare": {"methods": ["eaa"]}},
            2,
            "'compare.methods'",
        ),
        (
            "compare-agg",
            lambda tmp: {"seeds": [0, 1, 2, 3, 4], "compare": {"methods": ["eaa", "w2b", "eaa"]}},
            2,
            "'compare.methods': need at least two distinct methods",
        ),
        (
            "compare-agg",
            lambda tmp: {"seeds": [0, 1, 2, 3, 4], "federation": {"algorithm": "fedavg"}},
            2,
            "'federation.algorithm': compare-agg needs 'bayes'",
        ),
        ("compare-agg", lambda tmp: {"seeds": [0, 1, 2, 3]}, 2, "'seeds'"),
        ("run", lambda tmp: {"seeds": [1, 1]}, 2, REPEATED_SEEDS),
        ("compare-agg", lambda tmp: {"seeds": [0, 0, 0, 0, 0]}, 2, REPEATED_SEEDS),
        (
            "compare-agg",
            lambda tmp: {**DIVERGING, "seeds": [0, 1, 2, 3, 4]},
            1,
            "run failed at round 1, client 0: ",
        ),
        # 10^12 draws of 51 or 60 parameters: more bytes than the address
        # space, so the allocation fails at once and touches no memory
        (
            "run",
            lambda tmp: SCORING_TOO_BIG,
            1,
            "run failed at scoring, seed 0: Unable to allocate",
        ),
        (
            "incremental",
            lambda tmp: SCORING_TOO_BIG,
            1,
            "run failed at merge and scoring, seed 0: Unable to allocate",
        ),
        # overflows to inf in the first forward pass
        (
            "run",
            lambda tmp: OVERFLOWING,
            1,
            "run failed at round 1, client 0: non-finite activation",
        ),
        (
            "run",
            lambda tmp: OVERFLOWING_PREDICTIVE,
            1,
            "run failed at scoring, seed 0" + NON_FINITE_PREDICTIVE,
        ),
        (
            "compare-agg",
            lambda tmp: {**OVERFLOWING_PREDICTIVE, "seeds": [0, 1, 2, 3, 4]},
            1,
            "run failed at scoring, seed 0" + NON_FINITE_PREDICTIVE,
        ),
        (
            "run",
            lambda tmp: {"dataset": {**BASE_CONFIG["dataset"], "spread": 1e308}},
            2,
            "config field 'dataset.spread': ",
        ),
        ("run", lambda tmp: {"eval": {"ece_bins": 10**21}}, 2, "config field 'eval.ece_bins': "),
        # one test row per class leaves a client's test shard empty in every attempt
        (
            "run",
            lambda tmp: {"dataset": {**BASE_CONFIG["dataset"], "test_fraction": 1e-300}},
            1,
            "run failed at round 0: could not partition train and test jointly: "
            "a test shard was empty in all 20 attempts",
        ),
        # the split holds out at least one example of each class, here every one
        (
            "run",
            lambda tmp: {"dataset": {**BASE_CONFIG["dataset"], "n_per_class": 1}},
            2,
            EMPTY_TRAIN,
        ),
        (
            "partition",
            lambda tmp: {
                "dataset": {**BASE_CONFIG["dataset"], "n_per_class": 2, "test_fraction": 0.75}
            },
            2,
            EMPTY_TRAIN,
        ),
        (
            "incremental",
            lambda tmp: {
                "dataset": {
                    **BASE_CONFIG["dataset"], "classes": 4, "n_per_class": 3, "test_fraction": 0.9
                }
            },
            2,
            EMPTY_TRAIN,
        ),
    ],
    ids=[
        "run-missing-data", "run-diverging", "incremental-diverging",
        "incremental-diverging-two-seeds", "incremental-empty-task-b",
        "incremental-split-class", "incremental-fedavg", "partition-min-shard",
        "partition-missing-data", "sweep-lambda-fedavg", "sweep-lambda-diverging",
        "compare-agg-one-method", "compare-agg-duplicate-methods", "compare-agg-fedavg",
        "compare-agg-four-seeds", "run-repeated-seeds", "compare-agg-repeated-seeds",
        "compare-agg-diverging", "run-scoring-fails", "incremental-scoring-fails",
        "run-overflowing", "run-overflowing-predictive", "compare-agg-overflowing-predictive",
        "run-overflowing-spread", "run-too-many-bins",
        "run-empty-test-shard", "run-no-train-row", "partition-no-train-row",
        "incremental-no-train-row",
    ],
)
def test_failure_is_one_stderr_line(tmp_path, capsys, recwarn, command, over, code, message):
    """Every failing command returns its exit code, prints one line, no traceback
    and no warning (which the command line prints to stderr), and writes no
    artifact."""
    cfg = write_config(tmp_path, **over(tmp_path))
    assert main([command, cfg]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert message in err, err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, stage", [("run", "scoring"), ("incremental", "merge and scoring")]
)
def test_scoring_failure_names_its_seed(tmp_path, capsys, monkeypatch, command, stage):
    """Seeds 0 and 1 train in one pass and only seed 1 fails to score: the
    failure names seed 1, as a seed-by-seed loop would."""
    noise, scored = federation.eval_noise, []

    def failing(cfg, seed, spec):
        scored.append(seed)
        if seed == 1:
            raise MemoryError("no room for the draws")
        return noise(cfg, seed, spec)

    monkeypatch.setattr(federation, "eval_noise", failing)
    assert main([command, write_config(tmp_path, seeds=[0, 1])]) == 1
    assert capsys.readouterr().err == f"run failed at {stage}, seed 1: no room for the draws\n"
    assert scored[:2] == [0, 1]  # one pass scored seed 0, then failed on seed 1
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


class TestErrors:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"kind": "synth", "sprad": 1}}))
        assert main(["run", str(path)]) == 2
        assert "dataset.sprad" in capsys.readouterr().err

    def test_bad_lambda_order_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, personalization={"lambdas": [1, 0]})
        assert main(["run", cfg]) == 2
        assert "ascending" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "i/o error" in capsys.readouterr().err

    def test_run_failure_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset=MISSING_IDX)
        assert main(["run", cfg]) == 1
        assert "round 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_run_failure_names_client(self, tmp_path, capsys, threads):
        cfg = write_config(
            tmp_path,
            optimizer={"lr_initial": 1e6, "lr_final": 1e6, "h0": 1e-6, "weight_decay": 0},
            federation={"rounds": 3, "local_epochs": 3, "batch_size": 8},
        )
        assert main(["run", cfg, "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert "run failed at round 1, client 0: optimizer step " in err
        assert re.search(r"h \+ delta = 0 at coordinate \d+, must be > 0", err)

    def test_unsatisfiable_min_shard_stops_after_one_search(self, tmp_path, capsys, monkeypatch):
        splits = []
        split = data_mod._split_by_proportions

        def counting_split(*args):
            splits.append(1)
            return split(*args)

        monkeypatch.setattr(data_mod, "_split_by_proportions", counting_split)
        cfg = write_config(
            tmp_path,
            dataset={**BASE_CONFIG["dataset"], "n_per_class": 20},
            partition={"n_clients": 10, "beta": 1.0, "min_shard": 10},
        )
        assert main(["run", cfg]) == 2
        assert "config field 'partition.min_shard': no draw met min_shard=10" in capsys.readouterr().err
        assert len(splits) <= data_mod.MAX_PARTITION_ATTEMPTS

    def test_failure_in_later_seed_writes_nothing(self, tmp_path, capsys, monkeypatch):
        client_update = federation.client_update

        def fail_on_seed_1(jobs, *rest):
            if any(seed == 1 for *_, seed in jobs):
                raise RunError(1, 0, ValueError("injected"))
            return client_update(jobs, *rest)

        monkeypatch.setattr(federation, "client_update", fail_on_seed_1)
        cfg = write_config(tmp_path, seeds=[0, 1])
        assert main(["run", cfg]) == 1
        assert "round 1, client 0: injected" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("seed_1_fails", ["round-1", "set-up", "set-up-config"])
    def test_first_seed_to_fail_is_reported(self, tmp_path, capsys, monkeypatch, seed_1_fails):
        # seed 0 fails at round 2 and seed 1 before it, at round 1 or in set-up
        # (on a bad config for that seed, too), while both train in one pass;
        # a seed-by-seed loop reports seed 0
        client_update, partition_both = federation.client_update, federation.partition_both
        failing = {(0, 2), (1, 1)} if seed_1_fails == "round-1" else {(0, 2)}

        def update(jobs, train_set, cfg, lrs, spec, round_index):
            for _, _, k, seed in jobs:
                if (seed, round_index) in failing:
                    raise RunError(round_index, k, ValueError(f"seed {seed} diverged"))
            return client_update(jobs, train_set, cfg, lrs, spec, round_index)

        def split(cfg, train, test, seed):
            if seed == 1 and seed_1_fails == "set-up":
                raise ValueError("seed 1 has no partition")
            if seed == 1 and seed_1_fails == "set-up-config":
                raise ConfigError("partition.min_shard", "no draw for seed 1")
            return partition_both(cfg, train, test, seed)

        monkeypatch.setattr(federation, "client_update", update)
        monkeypatch.setattr(federation, "partition_both", split)
        cfg = write_config(tmp_path, seeds=[0, 1])
        errors = []
        seed_1_exit = 2 if seed_1_fails == "set-up-config" else 1
        for override, code in ((["--seed", "0"], 1), (["--seed", "1"], seed_1_exit), ([], 1)):
            assert main(["run", cfg, *override]) == code
            errors.append(capsys.readouterr().err)
        alone_0, alone_1, together = errors
        assert alone_1 != alone_0
        assert together == alone_0 == "run failed at round 2, client 0: seed 0 diverged\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_bad_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--seed", "-1"]) == 2

    @pytest.mark.parametrize(
        "command, over, path",
        [
            ("run", {"dataset": {**BASE_CONFIG["dataset"], "classes": 1}}, "dataset.classes"),
            ("run", {"dataset": {**BASE_CONFIG["dataset"], "dim": 0}}, "dataset.dim"),
            ("run", {"dataset": {**BASE_CONFIG["dataset"], "seed": -1}}, "dataset.seed"),
            ("run", {"dataset": {**BASE_CONFIG["dataset"], "limit": -1}}, "dataset.limit"),
            # synthetic examples come ordered by class: a limit would keep class 0 only
            ("run", {"dataset": {**BASE_CONFIG["dataset"], "limit": 5}}, "dataset.limit"),
            ("incremental", {"incremental": {"split_class": 3}}, "incremental.split_class"),
            ("run", {"personalization": {"lambdas": [0, math.nan]}}, "personalization.lambdas[1]"),
            ("run", {"optimizer": {"lr_initial": 0}}, "optimizer.lr_initial"),
            ("run", {"optimizer": {"h0": -1}}, "optimizer.h0"),
            ("run", {"optimizer": {"beta1": 1.0}}, "optimizer.beta1"),
            ("run", {"optimizer": {"weight_decay": -1}}, "optimizer.weight_decay"),
            ("run", {"partition": {"n_clients": 0}}, "partition.n_clients"),
            ("run", {"partition": {"beta": 0}}, "partition.beta"),
            ("run", {"partition": {"min_shard": 0}}, "partition.min_shard"),
        ],
        ids=[
            "classes", "dim", "seed", "limit", "synth-limit", "split_class", "nan_lambda",
            "lr_initial", "h0", "beta1", "weight_decay", "n_clients", "beta", "min_shard",
        ],
    )
    def test_range_error_exit_2(self, tmp_path, capsys, command, over, path):
        cfg = write_config(tmp_path, **over)
        assert main([command, cfg]) == 2
        assert f"'{path}'" in capsys.readouterr().err

    def test_bad_threads_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--threads", "0"]) == 2
        assert "'--threads'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "baryfed" in capsys.readouterr().out
