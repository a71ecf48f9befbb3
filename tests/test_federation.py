import dataclasses
import math

import numpy as np
import pytest

from baryfed import federation, models
from baryfed.config import (
    DatasetCfg,
    EvalCfg,
    ExperimentConfig,
    FederationCfg,
    IncrementalCfg,
    ModelCfg,
    OptimizerCfg,
    PartitionCfg,
    PersonalizationCfg,
)
from baryfed.evaluation import evaluate
from baryfed.federation import (
    _EVAL_TAG,
    RunError,
    build_data,
    client_rng,
    client_update,
    derived_seed,
    incremental_sweep,
    model_spec,
    partition_both,
    run_experiment,
)
from baryfed.geometry import DiagGaussian, Divergence, project
from baryfed.variopt import ivon_from_posterior, ivon_init, ivon_step, posterior_of, sample_params


def make_cfg(**over) -> ExperimentConfig:
    base = dict(
        dataset=DatasetCfg(kind="synth", classes=3, dim=2, n_per_class=40, spread=0.3),
        model=ModelCfg(hidden=(8,)),
        partition=PartitionCfg(n_clients=4, beta=1.0, min_shard=5),
        optimizer=OptimizerCfg(lr_initial=0.3, lr_final=0.1),
        federation=FederationCfg(rounds=3, local_epochs=3, batch_size=200),
        personalization=PersonalizationCfg(lambdas=(0.0, 1.0, math.inf)),
        eval=EvalCfg(mc_samples=4),
    )
    base.update(over)
    return ExperimentConfig(**base)


def bench_cfg(**over) -> ExperimentConfig:
    """Heavier setup where training actually separates the four settings."""
    base = dict(
        dataset=DatasetCfg(kind="synth", classes=3, dim=2, n_per_class=200, spread=0.4),
        model=ModelCfg(hidden=(32,)),
        partition=PartitionCfg(n_clients=10, beta=0.5, min_shard=10),
        optimizer=OptimizerCfg(lr_initial=0.5, lr_final=0.05),
        federation=FederationCfg(rounds=20, local_epochs=30, batch_size=600),
        eval=EvalCfg(mc_samples=10),
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestSeeds:
    def test_derived_seed_stable_and_distinct(self):
        assert derived_seed(0, 1) == derived_seed(0, 1)
        assert derived_seed(0, 1) != derived_seed(0, 2)
        assert derived_seed(0, 1) != derived_seed(1, 1)

    def test_client_rng_streams(self):
        a = client_rng(0, 1, 0).standard_normal(4)
        b = client_rng(0, 1, 0).standard_normal(4)
        c = client_rng(0, 1, 1).standard_normal(4)
        d = client_rng(0, 2, 0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestBuildData:
    def test_fixed_across_master_seeds(self):
        cfg = make_cfg()
        tr0, te0 = build_data(cfg, seed=0)
        tr1, te1 = build_data(cfg, seed=17)
        assert np.array_equal(tr0.inputs, tr1.inputs)
        assert np.array_equal(te0.labels, te1.labels)

    def test_dataset_seed_changes_draw(self):
        a, _ = build_data(make_cfg(), seed=0)
        b, _ = build_data(
            make_cfg(dataset=DatasetCfg(kind="synth", classes=3, dim=2, n_per_class=40, spread=0.3, seed=1)),
            seed=0,
        )
        assert not np.array_equal(a.inputs, b.inputs)


class TestPartitionBoth:
    def test_aligned_and_nonempty(self):
        cfg = make_cfg()
        train, test = build_data(cfg, seed=0)
        tr_idx, te_idx = partition_both(cfg, train, test, seed=0)
        assert len(tr_idx) == len(te_idx) == 4
        assert min(len(s) for s in te_idx) >= 1
        joined = np.sort(np.concatenate(tr_idx))
        assert np.array_equal(joined, np.arange(train.n))

    def test_seed_dependence(self):
        cfg = make_cfg()
        train, test = build_data(cfg, seed=0)
        a, _ = partition_both(cfg, train, test, seed=0)
        b, _ = partition_both(cfg, train, test, seed=1)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestRunExperiment:
    def test_settings_coverage_and_shapes(self):
        cfg = make_cfg()
        rep = run_experiment(cfg, seed=0)
        settings = {}
        for m in rep.metrics:
            settings.setdefault(m.setting, 0)
            settings[m.setting] += 1
        assert settings["GM-LD"] == 4
        assert settings["GM-GD"] == 1
        assert settings["PM-LD"] == 3 * 4
        assert settings["PM-GD"] == 3 * 4
        assert len(rep.rounds) == 3
        assert all(len(r.nll_traces) == 4 for r in rep.rounds)
        assert all(len(t) == 3 for t in rep.rounds[0].nll_traces)
        assert rep.final_global is not None
        assert len(rep.final_locals) == 4
        assert rep.aggregation == "w2b"

    def test_rerun_identical(self):
        cfg = make_cfg()
        a = run_experiment(cfg, seed=3)
        b = run_experiment(cfg, seed=3)
        assert np.array_equal(a.final_global.mean, b.final_global.mean)
        assert np.array_equal(a.final_global.var, b.final_global.var)
        for ma, mb in zip(a.metrics, b.metrics):
            assert (ma.accuracy, ma.nll, ma.ece) == (mb.accuracy, mb.nll, mb.ece)

    def test_threads_bit_identical(self):
        cfg = make_cfg()
        threaded = make_cfg(
            federation=FederationCfg(rounds=3, local_epochs=3, batch_size=200, threads=3)
        )
        a = run_experiment(cfg, seed=0)
        b = run_experiment(threaded, seed=0)
        assert np.array_equal(a.final_global.mean, b.final_global.mean)
        assert np.array_equal(a.final_global.var, b.final_global.var)
        for ma, mb in zip(a.metrics, b.metrics):
            assert (ma.accuracy, ma.nll, ma.ece) == (mb.accuracy, mb.nll, mb.ece)

    def test_lambda_zero_rows_match_global(self):
        rep = run_experiment(make_cfg(), seed=1)
        gm_ld = {m.client_id: m for m in rep.metrics if m.setting == "GM-LD"}
        pm_zero = [m for m in rep.metrics if m.setting == "PM-LD" and m.lam == 0.0]
        assert len(pm_zero) == 4
        for m in pm_zero:
            ref = gm_ld[m.client_id]
            assert m.accuracy == ref.accuracy
            assert m.nll == ref.nll

    def test_seed_changes_training(self):
        a = run_experiment(make_cfg(), seed=0)
        b = run_experiment(make_cfg(), seed=1)
        assert not np.array_equal(a.final_global.mean, b.final_global.mean)

    def test_run_error_tags_context(self):
        bad = make_cfg(
            dataset=DatasetCfg(
                kind="idx",
                train_images="/nonexistent/ti",
                train_labels="/nonexistent/tl",
                test_images="/nonexistent/ei",
                test_labels="/nonexistent/el",
            )
        )
        with pytest.raises(RunError, match="round 0"):
            run_experiment(bad, seed=0)


def forked_client_update(global_posterior, shard, opt, lrs, batch_size, rng, spec, frozen_var):
    """Reference local phase with one minibatch loop per algorithm."""
    dim = global_posterior.dim
    mc_train = opt.mc_train_samples
    deterministic = frozen_var is not None
    if deterministic:
        state = ivon_init(dim, opt, shard.n, mean=global_posterior.mean)
    else:
        state = ivon_from_posterior(global_posterior, opt, shard.n)
    trace = []
    for lr in lrs:
        order = rng.permutation(shard.n)
        losses = []
        for start in range(0, shard.n, batch_size):
            idx = order[start : start + batch_size]
            batch = models.Batch(inputs=shard.inputs[idx], labels=shard.labels[idx])
            if deterministic:
                loss, grad = models.loss_and_grad(spec, state.mean, batch)
                state = ivon_step(state, grad, state.mean, lr=lr, update_hessian=False)
            else:
                grads = np.empty((mc_train, dim))
                thetas = np.empty_like(grads)
                loss = 0.0
                for s in range(mc_train):
                    theta = sample_params(state, rng)
                    l, g = models.loss_and_grad(spec, theta, batch)
                    loss += l / mc_train
                    grads[s] = g
                    thetas[s] = theta
                state = ivon_step(state, grads, thetas, lr=lr)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    if deterministic:
        return DiagGaussian(mean=state.mean, var=np.full(dim, frozen_var)), trace
    return posterior_of(state), trace


class TestClientUpdate:
    """The one minibatch loop equals the forked per-algorithm loops bit for bit."""

    @pytest.mark.parametrize(
        "mc_train, frozen_var",
        [(1, 1e-4), (1, None), (2, None), (3, None)],
        ids=["fedavg", "ivon-mc1", "ivon-mc2", "ivon-mc3"],
    )
    def test_matches_forked_loops(self, mc_train, frozen_var):
        cfg = make_cfg(
            optimizer=OptimizerCfg(lr_initial=0.3, lr_final=0.1, mc_train_samples=mc_train),
            federation=FederationCfg(rounds=2, local_epochs=3, batch_size=16),
        )
        train, _ = build_data(cfg, seed=0)
        shard = train.subset(np.arange(0, train.n, 2))
        spec = model_spec(cfg, train)
        theta0 = models.init_params(spec, 7)
        prior = posterior_of(ivon_init(theta0.shape[0], cfg.optimizer, 50.0, mean=theta0))
        lrs = [0.3, 0.2, 0.1]
        post, trace = client_update(prior, shard, cfg, lrs, spec, 5, 2, 3, frozen_var)
        ref, ref_trace = forked_client_update(
            prior, shard, cfg.optimizer, lrs, 16, client_rng(5, 2, 3), spec, frozen_var
        )
        assert np.array_equal(post.mean, ref.mean)
        assert np.array_equal(post.var, ref.var)
        assert trace == ref_trace
        assert len(trace) == len(lrs)

    def test_failure_names_round_and_client(self):
        cfg = make_cfg(optimizer=OptimizerCfg(lr_initial=1e6, lr_final=1e6, h0=1e-6, weight_decay=0))
        train, _ = build_data(cfg, seed=0)
        spec = model_spec(cfg, train)
        theta0 = models.init_params(spec, 0)
        prior = posterior_of(ivon_init(theta0.shape[0], cfg.optimizer, train.n, mean=theta0))
        with pytest.raises(RunError, match="round 4, client 2: optimizer step") as info:
            with np.errstate(all="ignore"):
                client_update(prior, train, cfg, [1e6] * 3, spec, 0, 4, 2)
        assert (info.value.round_index, info.value.client_id) == (4, 2)


class TestPersonalizeAll:
    """Personalization is one projection per client: no data, no training."""

    def stand_ins(self):
        rng = np.random.default_rng(0)
        g = DiagGaussian(mean=rng.normal(size=6), var=rng.uniform(0.5, 2.0, size=6))
        locals_ = [
            DiagGaussian(mean=rng.normal(size=6), var=rng.uniform(0.5, 2.0, size=6))
            for _ in range(3)
        ]
        return g, locals_

    def test_endpoints_bit_exact(self):
        g, locals_ = self.stand_ins()
        at_zero = [project(Divergence.W2SQ, g, p, 0.0) for p in locals_]
        at_inf = [project(Divergence.W2SQ, g, p, math.inf) for p in locals_]
        for p in at_zero:
            assert np.array_equal(p.mean, g.mean) and np.array_equal(p.var, g.var)
        for p, loc in zip(at_inf, locals_):
            assert np.array_equal(p.mean, loc.mean) and np.array_equal(p.var, loc.var)

    def test_training_free(self, monkeypatch):
        calls = {"forward": 0, "loss_and_grad": 0}

        def refuse(name):
            def stub(*args, **kwargs):
                calls[name] += 1
                raise AssertionError(f"personalization called models.{name}")

            return stub

        for name in calls:
            monkeypatch.setattr(models, name, refuse(name))
        g, locals_ = self.stand_ins()
        for p in locals_:
            project(Divergence.RKL, g, p, 1.0)
        assert calls == {"forward": 0, "loss_and_grad": 0}

    def test_matches_direct_projection(self):
        # the PM rows of a run score the projection of its final posteriors
        cfg = make_cfg()
        rep = run_experiment(cfg, seed=0)
        train, test = build_data(cfg, seed=0)
        spec = model_spec(cfg, train)
        eseed = derived_seed(0, _EVAL_TAG)
        noise = np.random.default_rng(eseed).standard_normal(
            (cfg.eval.mc_samples, models.param_count(spec))
        )
        rows = [m for m in rep.metrics if m.setting == "PM-GD" and m.lam == 1.0]
        assert [m.client_id for m in rows] == list(range(len(rep.final_locals)))
        for m, loc in zip(rows, rep.final_locals):
            p = project(cfg.personalization.divergence, rep.final_global, loc, 1.0)
            ref = evaluate(spec, p, test, noise, cfg.eval.ece_bins)
            assert (m.accuracy, m.nll, m.ece) == (ref.accuracy, ref.nll, ref.ece)


class TestScoreOnce:
    """Each (posterior, dataset) pair of a run is scored once."""

    def counted_run(self, monkeypatch, cfg):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(federation, "evaluate", counting)
        return run_experiment(cfg, seed=0), len(calls)

    def test_bayes_endpoints_reuse_scores(self, monkeypatch):
        cfg = make_cfg()
        lams = cfg.personalization.lambdas
        assert lams[0] == 0.0 and math.isinf(lams[-1])
        rep, calls = self.counted_run(monkeypatch, cfg)
        k = len(rep.final_locals)
        assert len(rep.metrics) == k + 1 + 2 * k * len(lams)
        # lambda = 0 projects to the global posterior: its 2K rows reuse GM scores
        assert calls == k + 1 + 2 * k * (len(lams) - 1)

    def test_fedavg_scores_every_row(self, monkeypatch):
        cfg = make_cfg()
        cfg = dataclasses.replace(
            cfg, federation=dataclasses.replace(cfg.federation, algorithm="fedavg")
        )
        rep, calls = self.counted_run(monkeypatch, cfg)
        assert calls == len(rep.metrics) == 3 * len(rep.final_locals) + 1

    def test_lambda_zero_rows_equal_global_rows(self):
        rep = run_experiment(make_cfg(), seed=0)
        gm_ld = {m.client_id: m for m in rep.metrics if m.setting == "GM-LD"}
        gm_gd = next(m for m in rep.metrics if m.setting == "GM-GD")
        pm_ld = [m for m in rep.metrics if m.setting == "PM-LD" and m.lam == 0.0]
        pm_gd = [m for m in rep.metrics if m.setting == "PM-GD" and m.lam == 0.0]
        assert len(pm_ld) == len(pm_gd) == len(gm_ld)
        for m in pm_ld:
            assert dataclasses.replace(m, setting="GM-LD", lam=None) == gm_ld[m.client_id]
        for m in pm_gd:
            assert dataclasses.replace(m, setting="GM-GD", lam=None, client_id=None) == gm_gd


class TestTrainingBehavior:
    def test_nll_trend_decreases(self):
        rep = run_experiment(bench_cfg(), seed=0)
        per_round = [float(np.mean([t for tr in r.nll_traces for t in tr])) for r in rep.rounds]
        assert per_round[-1] < per_round[0]
        # trend, not strict monotonicity: last quarter below first quarter
        q = max(1, len(per_round) // 4)
        assert np.mean(per_round[-q:]) < np.mean(per_round[:q])

    def test_fedavg_within_band_of_bayes(self):
        cfg = bench_cfg()
        bayes = run_experiment(cfg, seed=0)
        fedavg = dataclasses.replace(cfg.federation, algorithm="fedavg")
        avg = run_experiment(dataclasses.replace(cfg, federation=fedavg), seed=0)
        assert avg.algorithm == "fedavg"
        acc = lambda rep: next(m.accuracy for m in rep.metrics if m.setting == "GM-GD")
        assert abs(acc(bayes) - acc(avg)) <= 5.0
        assert all(m.method == "fedavg" for m in avg.metrics)
        lams = {m.lam for m in avg.metrics if m.setting == "PM-LD"}
        assert lams == {None}


class TestIncrementalSweep:
    def small_cfg(self, **incremental):
        return make_cfg(
            dataset=DatasetCfg(kind="synth", classes=4, dim=2, n_per_class=30, spread=0.3),
            federation=FederationCfg(rounds=2, local_epochs=2, batch_size=200),
            incremental=IncrementalCfg(**incremental),
        )

    def test_rows_and_settings(self):
        rep = incremental_sweep(self.small_cfg(w_grid=(0.0, 0.5, 1.0)), seed=0)
        assert rep.split_class == 2
        assert [r.w for r in rep.rows] == [0.0, 0.5, 1.0]
        assert all(r.task_a.setting == "task-A" for r in rep.rows)
        assert all(r.task_b.setting == "task-B" for r in rep.rows)
        assert rep.aggregation == "w2b"
        assert rep.rows[0].task_a.n_examples > 0 and rep.rows[0].task_b.n_examples > 0

    def test_explicit_split(self):
        rep = incremental_sweep(self.small_cfg(w_grid=(0.5,), split_class=1), seed=0)
        assert rep.split_class == 1

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="split_class"):
            incremental_sweep(self.small_cfg(w_grid=(0.5,), split_class=0), seed=0)

    def test_invalid_weight(self):
        # a w the parser would reject still fails: 1 - w is a negative weight
        with pytest.raises(ValueError, match="negative weight"):
            incremental_sweep(self.small_cfg(w_grid=(1.5,)), seed=0)

    def test_endpoint_specialization(self):
        # w=0 keeps task-A's posterior, w=1 keeps task-B's; B trains after A
        cfg = bench_cfg(
            dataset=DatasetCfg(kind="synth", classes=4, dim=2, n_per_class=150, spread=0.25),
            incremental=IncrementalCfg(w_grid=(0.0, 1.0)),
        )
        rep = incremental_sweep(cfg, seed=0)
        a_end, b_end = rep.rows[0], rep.rows[1]
        assert a_end.task_a.accuracy > b_end.task_a.accuracy
        assert b_end.task_b.accuracy > a_end.task_b.accuracy
