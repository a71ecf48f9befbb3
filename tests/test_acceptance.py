"""Acceptance suite: ten end-to-end checks at pinned tolerances.

One test per criterion, named test_criterion_NN_*, so a verbose pytest run
shows exactly one pass/fail line for each. Tests also print a one-line
verdict with the elapsed time for runs with capture disabled. Criteria with
a stated wall-clock budget assert it.
"""

import json
import math
import time

import numpy as np
import pytest

from baryfed import checks, federation
from baryfed.cli import main
from baryfed.config import (
    DEFAULT_LAMBDAS,
    DatasetCfg,
    EvalCfg,
    ExperimentConfig,
    FederationCfg,
    ModelCfg,
    OptimizerCfg,
    PartitionCfg,
)
from baryfed.evaluation import wilcoxon_signed_rank
from baryfed.federation import incremental_sweep, run_experiment
from baryfed.geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    aggregate,
    kl_gaussian,
    project,
)
from baryfed.models import Batch, MlpSpec, init_params, loss_and_grad
from baryfed.variopt import (
    hessian_of,
    ivon_restart,
    ivon_step,
    linear_lr,
    posterior_of,
    sample_params,
)

BENCH = ExperimentConfig(
    dataset=DatasetCfg(kind="synth", classes=3, dim=2, n_per_class=200, spread=0.4),
    model=ModelCfg(hidden=(32,)),
    partition=PartitionCfg(n_clients=10, beta=0.5, min_shard=10),
    optimizer=OptimizerCfg(lr_initial=0.5, lr_final=0.05),
    federation=FederationCfg(rounds=20, local_epochs=30, batch_size=600),
    eval=EvalCfg(mc_samples=10),
)

BENCH_JSON = {
    "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 200, "spread": 0.4},
    "model": {"hidden": [32]},
    "partition": {"n_clients": 10, "beta": 0.5},
    "optimizer": {"lr_initial": 0.5, "lr_final": 0.05},
    "federation": {"rounds": 20, "local_epochs": 30, "batch_size": 600},
    "eval": {"mc_samples": 10},
    "seeds": [0],
}

INCREMENTAL_CFG = ExperimentConfig(
    dataset=DatasetCfg(kind="synth", classes=4, dim=2, n_per_class=150, spread=0.25),
    model=ModelCfg(hidden=(32,)),
    optimizer=OptimizerCfg(lr_initial=0.5, lr_final=0.05),
    federation=FederationCfg(rounds=20, local_epochs=30, batch_size=600),
    eval=EvalCfg(mc_samples=10),
)

BENCH_SEEDS = (0, 1, 2)


def verdict(number: int, slug: str, t0: float):
    print(f"criterion {number:02d} {slug}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def bench_runs():
    """Per seed, run_experiment's metrics.csv rows and the final posteriors
    that its train stage returned."""
    t0 = time.perf_counter()
    methods = (BENCH.federation.aggregation,)
    train = federation.train
    finals = []

    def keeping(*args):
        finals.append(train(*args))
        return finals[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federation, "train", keeping)
        rows = [run_experiment(BENCH, seed, methods)[0][0] for seed in BENCH_SEEDS]
    runs = [(r, final) for r, (final,) in zip(rows, finals, strict=True)]
    return runs, time.perf_counter() - t0


def setting_mean(run, setting: str, lam=None) -> float:
    rows, _ = run
    accs = [m["acc"] for m in rows if m["setting"] == setting and m["lambda"] == lam]
    assert accs, f"no rows for {setting} lam={lam}"
    return float(np.mean(accs))


def test_criterion_01_projection_matches_numeric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        p_g, p_k = checks.random_instance(rng)
        for d in (Divergence.RKL, Divergence.W2SQ):
            for lam in (0.25, 1.0, 4.0):
                err = checks.projection_oracle_error(d, p_g, p_k, lam)
                worst = max(worst, err)
                assert err <= 2e-3, f"d={d.value} lam={lam} err={err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(1, f"projection-oracle-agreement (worst {worst:.1e})", t0)


def test_criterion_02_barycenters_beat_grid():
    t0 = time.perf_counter()
    # worked two-member examples, closed forms to machine precision
    half = [0.5, 0.5]
    eaa = aggregate(AggregationMethod.EAA, [
        DiagGaussian(mean=np.zeros(1), var=np.ones(1)),
        DiagGaussian(mean=np.zeros(1), var=np.full(1, 9.0)),
    ], half)
    assert eaa.var[0] == pytest.approx(5.0, abs=1e-15)
    w2b = aggregate(AggregationMethod.W2B, [
        DiagGaussian(mean=np.zeros(1), var=np.ones(1)),
        DiagGaussian(mean=np.zeros(1), var=np.full(1, 9.0)),
    ], half)
    assert w2b.var[0] == pytest.approx(4.0, abs=1e-15)
    rklb = aggregate(AggregationMethod.RKLB, [
        DiagGaussian(mean=np.zeros(1), var=np.ones(1)),
        DiagGaussian(mean=np.full(1, 2.0), var=np.full(1, 1.0 / 3.0)),
    ], half)
    assert rklb.mean[0] == pytest.approx(1.5, abs=1e-12)
    assert rklb.var[0] == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(100):
        p_g, p_k = checks.random_instance(rng)
        w = float(rng.uniform(0.05, 0.95))
        for method, (ours, best) in checks.barycenter_vs_grid([p_g, p_k], [1.0 - w, w]).items():
            assert ours <= best + 1e-9, f"{method.value}: closed {ours} vs grid {best}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(2, "barycenter-grid-optimality", t0)


def test_criterion_03_pullback_endpoints_and_monotonicity(bench_runs):
    t0 = time.perf_counter()
    runs, _ = bench_runs
    for _, final in runs:
        p_g = final["global"]
        for p_k in final["locals"]:
            for d in (Divergence.RKL, Divergence.W2SQ):
                at_zero, at_inf = project(d, p_g, p_k, [0.0, math.inf])
                assert np.array_equal(at_zero.mean, p_g.mean)
                assert np.array_equal(at_zero.var, p_g.var)
                assert np.array_equal(at_inf.mean, p_k.mean)
                assert np.array_equal(at_inf.var, p_k.var)

                assert not checks.geodesic_monotonicity(d, p_g, p_k, DEFAULT_LAMBDAS)
    verdict(3, "pullback-endpoints-and-monotone-path", t0)


def fresh_state(dim, opt, ess):
    """A stack of one optimizer state at the origin with its Hessian at h0."""
    origin = DiagGaussian(mean=np.zeros(dim), var=np.ones(dim))
    return ivon_restart([origin], opt, [ess], frozen=True)


def test_criterion_04_variance_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(10, 100000))
        h = float(rng.uniform(0.01, 50.0))
        delta = float(rng.uniform(1e-6, 1e-2))
        (post,) = posterior_of(fresh_state(3, OptimizerCfg(weight_decay=delta, h0=h), n))
        assert np.allclose(post.var, 1.0 / (n * (h + delta)), rtol=1e-12)
        assert np.allclose(hessian_of(post, n, delta), h, rtol=1e-12)

    pinned = fresh_state(1, OptimizerCfg(weight_decay=2e-4, h0=5.0), 1000)
    assert posterior_of(pinned)[0].var[0] == pytest.approx(1.99992e-4, rel=1e-5)
    verdict(4, "posterior-hessian-duality", t0)


def test_criterion_05_optimizer_convergence_and_gradients():
    t0 = time.perf_counter()
    # conjugate check: linear regression with an orthogonalized design has a
    # diagonal analytic posterior the optimizer must approach
    rng = np.random.default_rng(7)
    n, dim = 20, 2
    X = rng.normal(size=(n, dim))
    X[:, 1] -= X[:, 0] * (X[:, 0] @ X[:, 1]) / (X[:, 0] @ X[:, 0])
    y = X @ np.array([1.5, -0.7]) + 0.3 * rng.normal(size=n)
    delta = 2e-4
    prec = n * delta + np.einsum("ij,ij->j", X, X)
    analytic = DiagGaussian(mean=(X.T @ y) / prec, var=1.0 / prec)

    state = fresh_state(dim, OptimizerCfg(weight_decay=delta, beta2=0.995, h0=5.0), n)
    step_rng = np.random.default_rng(11)
    theta = np.empty((1, 1, dim))
    total = 2000
    for step in range(total):
        sample_params(state, [step_rng], theta)
        grad = -(X.T @ (y - X @ theta[0, 0])) / n
        ivon_step(state, grad[None, None], theta, lr=linear_lr(0.1, 0.01, step, total))
    gap = kl_gaussian(posterior_of(state)[0], analytic)
    assert gap < 0.05, f"KL to analytic posterior {gap:.4f}"

    worst = 0.0
    for k in range(20):
        net_rng = np.random.default_rng(100 + k)
        spec = MlpSpec(
            layer_sizes=(
                int(net_rng.integers(2, 5)),
                int(net_rng.integers(3, 7)),
                int(net_rng.integers(2, 4)),
            )
        )
        theta = init_params(spec, seed=k)
        # a stack of one vector and one minibatch
        batch = Batch(
            inputs=net_rng.normal(size=(1, 5, spec.layer_sizes[0])),
            labels=net_rng.integers(0, spec.n_classes, size=(1, 5)).astype(np.int64),
            counts=[5],
        )
        grad = loss_and_grad(spec, theta[None], batch)[1][0]
        eps = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta[None].copy(), theta[None].copy()
            up[0, i] += eps
            down[0, i] -= eps
            fd[i] = (
                loss_and_grad(spec, up, batch)[0][0] - loss_and_grad(spec, down, batch)[0][0]
            ) / (2 * eps)
        rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-4, f"net {k}: finite-difference mismatch {rel:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    verdict(5, f"optimizer-convergence-and-gradients (KL {gap:.3f}, FD {worst:.1e})", t0)


def curve(run, setting: str):
    return [setting_mean(run, setting, lam) for lam in BENCH.personalization.lambdas]


def count_violations(values, increasing: bool) -> int:
    bad = 0
    for a, b in zip(values, values[1:]):
        if (b < a) if increasing else (b > a):
            bad += 1
    return bad


def test_criterion_06_personalization_tradeoff(bench_runs):
    t0 = time.perf_counter()
    runs, run_seconds = bench_runs
    assert run_seconds < 600.0
    for seed, run in zip(BENCH_SEEDS, runs):
        local_curve = curve(run, "PM-LD")
        global_curve = curve(run, "PM-GD")
        local_gap = local_curve[-1] - local_curve[0]
        global_gap = global_curve[0] - global_curve[-1]
        assert local_gap >= 3.0, f"seed {seed}: local-data gain {local_gap:.1f}"
        assert global_gap >= 3.0, f"seed {seed}: global-data drop {global_gap:.1f}"
        assert count_violations(local_curve, increasing=True) <= 2
        assert count_violations(global_curve, increasing=False) <= 2
    verdict(6, "personalization-tradeoff", t0)


def test_criterion_07_setting_ordering(bench_runs):
    t0 = time.perf_counter()
    runs, _ = bench_runs
    pm_ld = float(np.mean([setting_mean(r, "PM-LD", 1.0) for r in runs]))
    gm_ld = float(np.mean([setting_mean(r, "GM-LD") for r in runs]))
    pm_gd = float(np.mean([setting_mean(r, "PM-GD", 1.0) for r in runs]))
    local_gd = float(np.mean([setting_mean(r, "PM-GD", math.inf) for r in runs]))
    assert pm_ld >= gm_ld, f"PM-LD {pm_ld:.2f} < GM-LD {gm_ld:.2f}"
    assert pm_gd >= local_gd, f"PM-GD {pm_gd:.2f} < local-on-GD {local_gd:.2f}"
    verdict(7, f"setting-ordering (PM-LD {pm_ld:.1f} vs GM-LD {gm_ld:.1f})", t0)


def test_criterion_08_signed_rank_and_comparison_matrix(tmp_path):
    t0 = time.perf_counter()
    res = wilcoxon_signed_rank(np.arange(1.0, 7.0), np.zeros(6))
    assert res.method == "exact"
    assert res.p_two_sided == 0.03125

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        exact = wilcoxon_signed_rank(x, y, method="exact")
        approx = wilcoxon_signed_rank(x, y, method="normal")
        worst = max(worst, abs(exact.p_two_sided - approx.p_two_sided))
    assert worst <= 0.01, f"exact-vs-normal gap {worst:.4f}"

    cfg_obj = {
        "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 40, "spread": 0.3},
        "model": {"hidden": [8]},
        "partition": {"n_clients": 4, "beta": 1.0, "min_shard": 5},
        "optimizer": {"lr_initial": 0.3, "lr_final": 0.1},
        "federation": {"rounds": 3, "local_epochs": 3, "batch_size": 200},
        "eval": {"mc_samples": 4},
        "seeds": [0, 1, 2, 3, 4],
        "out_dir": str(tmp_path / "cmp"),
    }
    cfg_path = tmp_path / "compare.json"
    cfg_path.write_text(json.dumps(cfg_obj))
    assert main(["compare-agg", str(cfg_path)]) == 0
    lines = (tmp_path / "cmp" / "pvalues.csv").read_text().splitlines()
    body = [l.split(",") for l in lines if not l.startswith("#")]
    assert body[0] == ["method_a", "method_b", "metric", "p"]
    pairs = [(r[0], r[1]) for r in body[1:]]
    expected = [("eaa", "w2b"), ("eaa", "rklb"), ("w2b", "rklb")]
    assert pairs == expected * 3  # once per metric, lower triangle only
    assert all((b, a) not in pairs for a, b in pairs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    verdict(8, "signed-rank-and-comparison-matrix", t0)


def test_criterion_09_incremental_interior_dominance():
    t0 = time.perf_counter()
    rows = incremental_sweep(INCREMENTAL_CFG, seed=0)
    acc_a = [row["acc_a"] for row in rows]
    acc_b = [row["acc_b"] for row in rows]
    # each endpoint is strong on its own task; an interior mixture must beat
    # endpoint B on task A and endpoint A on task B simultaneously
    dominating = [
        i
        for i in range(1, len(rows) - 1)
        if acc_a[i] > acc_a[-1] and acc_b[i] > acc_b[0]
    ]
    assert dominating, f"no interior mixture dominates: A={acc_a} B={acc_b}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    verdict(9, f"incremental-interior-dominance ({len(dominating)} points)", t0)


def test_criterion_10_artifact_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "bench.json"
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    cfg_obj = {**BENCH_JSON, "out_dir": str(seq_dir)}
    cfg_path.write_text(json.dumps(cfg_obj))
    assert main(["run", str(cfg_path), "--threads", "1"]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(par_dir), "--threads", "4"]) == 0
    for name in ("metrics.csv", "summary.csv", "manifest.json"):
        seq = (seq_dir / name).read_bytes()
        par = (par_dir / name).read_bytes()
        assert seq == par, f"{name} differs between sequential and parallel runs"
    verdict(10, "artifact-determinism", t0)
