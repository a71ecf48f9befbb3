import json
import math
import os

import pytest

from baryfed.cli import main

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


class TestValidateGeometry:
    def test_clean_pass(self, capsys):
        assert main(["validate-geometry", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "barycenter-optimality" in out
        assert "projection-oracle-equivalence" in out
        assert "geodesic-monotonicity" in out
        assert "FAIL" not in out

    def test_mutation_detected(self, capsys):
        assert main(["validate-geometry", "--instances", "10", "--mutation", "w2b-var-eaa"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counterexample" in out


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
        cfg = write_config(
            tmp_path,
            dataset={
                "kind": "idx",
                "train_images": "/nonexistent/a",
                "train_labels": "/nonexistent/b",
                "test_images": "/nonexistent/c",
                "test_labels": "/nonexistent/d",
            },
        )
        assert main(["run", cfg]) == 1
        assert "round 0" in capsys.readouterr().err

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
            ("incremental", {"incremental": {"split_class": 3}}, "incremental.split_class"),
            ("run", {"personalization": {"lambdas": [0, math.nan]}}, "personalization.lambdas[1]"),
        ],
        ids=["classes", "dim", "seed", "limit", "split_class", "nan_lambda"],
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
