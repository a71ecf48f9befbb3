import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    fedavg_var,
    incremental_sweep,
    model_start,
    partition_both,
    run_experiment,
    setups,
    train,
)
from baryfed.geometry import AggregationMethod, DiagGaussian, Divergence, project
from baryfed.models import predict_proba_mc
from baryfed.variopt import ivon_restart, ivon_step, posterior_of, sample_params

METRICS_COLUMNS = [
    "setting", "method", "lambda", "client_id", "seed",
    "acc", "ece", "nll", "mc_samples", "bins",
]


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


def run_one(cfg, seed):
    """run_experiment's metrics.csv rows and rounds payload of one seed under
    the configured aggregation alone."""
    (((rows, rounds),),) = run_experiment(cfg, [seed], (cfg.federation.aggregation,))
    return rows, rounds


def train_one(cfg, seed, methods=None):
    """The final posteriors and round records of the stages run_experiment
    composes, for one seed under ``methods`` (default: the configured
    aggregation)."""
    (s,) = setups(cfg, [seed])
    ess = float(np.mean([shard.n for shard in s.train_shards]))
    spec, start, lrs = model_start(cfg, seed, s.train_shards[0], ess, fedavg_var(cfg))
    methods = methods or (cfg.federation.aggregation,)
    k = len(methods)
    return train(cfg, [seed] * k, [s.train_shards] * k, spec, lrs, [start] * k, methods)


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
        # master seeds only partition one train/test pair, built once
        cfg = make_cfg()
        train, test = build_data(cfg)
        again, _ = build_data(cfg)
        assert np.array_equal(train.inputs, again.inputs)
        a, b = setups(cfg, [0, 17])
        assert a.test is b.test and a.n_train == b.n_train == train.n
        for s in (a, b):
            rows = np.concatenate([shard.inputs for shard in s.train_shards])
            assert np.array_equal(np.unique(rows, axis=0), np.unique(train.inputs, axis=0))
            assert np.array_equal(s.test.labels, test.labels)

    def test_dataset_seed_changes_draw(self):
        a, _ = build_data(make_cfg())
        b, _ = build_data(
            make_cfg(dataset=DatasetCfg(kind="synth", classes=3, dim=2, n_per_class=40, spread=0.3, seed=1)),
        )
        assert not np.array_equal(a.inputs, b.inputs)


class TestPartitionBoth:
    def test_aligned_and_nonempty(self):
        cfg = make_cfg()
        train, test = build_data(cfg)
        tr_idx, te_idx = partition_both(cfg, train, test, seed=0)
        assert len(tr_idx) == len(te_idx) == 4
        assert min(len(s) for s in te_idx) >= 1
        joined = np.sort(np.concatenate(tr_idx))
        assert np.array_equal(joined, np.arange(train.n))

    def test_seed_dependence(self):
        cfg = make_cfg()
        train, test = build_data(cfg)
        a, _ = partition_both(cfg, train, test, seed=0)
        b, _ = partition_both(cfg, train, test, seed=1)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_separate_test_draw(self):
        cfg = make_cfg()
        separate = make_cfg(partition=dataclasses.replace(cfg.partition, shared_test_draw=False))
        train, test = build_data(cfg)
        _, shared = partition_both(cfg, train, test, seed=0)
        tr_idx, te_idx = partition_both(separate, train, test, seed=0)
        assert len(te_idx) == 4
        assert min(len(s) for s in te_idx) >= 1
        assert np.array_equal(np.sort(np.concatenate(te_idx)), np.arange(test.n))
        assert any(not np.array_equal(x, y) for x, y in zip(te_idx, shared))
        tr_again, te_again = partition_both(separate, train, test, seed=0)
        assert all(np.array_equal(x, y) for x, y in zip(tr_idx, tr_again))
        assert all(np.array_equal(x, y) for x, y in zip(te_idx, te_again))


class TestRunExperiment:
    def test_settings_coverage_and_shapes(self):
        cfg = make_cfg()
        rows, rounds = run_one(cfg, 0)
        settings = {}
        for m in rows:
            settings.setdefault(m["setting"], 0)
            settings[m["setting"]] += 1
        assert settings["GM-LD"] == 4
        assert settings["GM-GD"] == 1
        assert settings["PM-LD"] == 3 * 4
        assert settings["PM-GD"] == 3 * 4
        assert len(rounds["rounds"]) == 3
        assert all(len(r["nll_traces"]) == 4 for r in rounds["rounds"])
        assert all(len(t) == 3 for t in rounds["rounds"][0]["nll_traces"])
        (final,) = train_one(cfg, 0)
        assert final["global"] is not None
        assert len(final["locals"]) == 4
        configured = cfg.federation.aggregation.value.lower()
        assert {m["method"] for m in rows} == {configured} == {"w2b"}
        assert all(list(m) == METRICS_COLUMNS for m in rows)
        assert all(m["seed"] == 0 for m in rows)
        assert all(
            (m["mc_samples"], m["bins"]) == (cfg.eval.mc_samples, cfg.eval.ece_bins)
            for m in rows
        )

    def test_rerun_identical(self):
        cfg = make_cfg()
        (a,), (b,) = train_one(cfg, 3), train_one(cfg, 3)
        assert np.array_equal(a["global"].mean, b["global"].mean)
        assert np.array_equal(a["global"].var, b["global"].var)
        assert run_one(cfg, 3)[0] == run_one(cfg, 3)[0]

    def test_threads_bit_identical(self):
        cfg = make_cfg()
        threaded = make_cfg(
            federation=FederationCfg(rounds=3, local_epochs=3, batch_size=200, threads=3)
        )
        (a,), (b,) = train_one(cfg, 0), train_one(threaded, 0)
        assert np.array_equal(a["global"].mean, b["global"].mean)
        assert np.array_equal(a["global"].var, b["global"].var)
        assert run_one(cfg, 0)[0] == run_one(threaded, 0)[0]

    def test_lambda_zero_rows_match_global(self):
        rows, _ = run_one(make_cfg(), 1)
        gm_ld = {m["client_id"]: m for m in rows if m["setting"] == "GM-LD"}
        pm_zero = [m for m in rows if m["setting"] == "PM-LD" and m["lambda"] == 0.0]
        assert len(pm_zero) == 4
        for m in pm_zero:
            ref = gm_ld[m["client_id"]]
            assert m["acc"] == ref["acc"]
            assert m["nll"] == ref["nll"]

    def test_seed_changes_training(self):
        (a,), (b,) = train_one(make_cfg(), 0), train_one(make_cfg(), 1)
        assert not np.array_equal(a["global"].mean, b["global"].mean)

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
            run_one(bad, 0)


class TestForkedMethods:
    """One call under several methods gives each method the rows, rounds and
    final posteriors a run with that method alone gives, and trains each
    distinct broadcast posterior once per round."""

    METHODS = (AggregationMethod.EAA, AggregationMethod.W2B, AggregationMethod.RKLB)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "rounds, n_clients", [(3, 4), (1, 4), (2, 1)], ids=["rounds3", "rounds1", "one-client"]
    )
    def test_each_method_equals_its_own_run(self, monkeypatch, rounds, n_clients, threads):
        cfg = make_cfg(
            partition=PartitionCfg(n_clients=n_clients, beta=1.0, min_shard=5),
            federation=FederationCfg(
                rounds=rounds, local_epochs=2, batch_size=200, threads=threads
            ),
        )
        calls = []

        def counting(*args):
            calls.extend(args[2])  # the group's client ids, one per trained job
            return client_update(*args)

        monkeypatch.setattr(federation, "client_update", counting)
        (forked,) = run_experiment(cfg, [0], self.METHODS)
        if n_clients == 1:
            # aggregate returns the one survivor itself, so every method
            # broadcasts the same posterior in every round
            assert len(calls) == rounds
        else:
            assert len(calls) == n_clients * (1 + (rounds - 1) * len(self.METHODS))

        assert len(forked) == len(self.METHODS)
        forked_finals = train_one(cfg, 0, self.METHODS)
        for method, (rows, rounds), final in zip(self.METHODS, forked, forked_finals):
            fed = dataclasses.replace(cfg.federation, aggregation=method)
            alone_cfg = dataclasses.replace(cfg, federation=fed)
            alone_rows, alone_rounds = run_one(alone_cfg, 0)
            assert rows == alone_rows
            assert {m["method"] for m in rows} == {method.value.lower()}
            record = lambda r: (r["round"], r["nll_traces"], r["divergences"])
            assert [record(r) for r in rounds["rounds"]] == [
                record(r) for r in alone_rounds["rounds"]
            ]
            assert [record(r) for r in final["rounds"]] == [
                record(r) for r in alone_rounds["rounds"]
            ]
            assert (rounds["client_sizes"], rounds["client_label_counts"]) == (
                alone_rounds["client_sizes"],
                alone_rounds["client_label_counts"],
            )
            assert rounds["aggregation"] == alone_rounds["aggregation"] == method.value.lower()
            (alone,) = train_one(alone_cfg, 0)
            for ours, ref in zip(
                (final["global"], *final["locals"]), (alone["global"], *alone["locals"])
            ):
                assert np.array_equal(ours.mean, ref.mean)
                assert np.array_equal(ours.var, ref.var)
            assert len(final["locals"]) == len(alone["locals"]) == n_clients


def untimed(runs):
    """run_experiment's output as a repr string, its timings left out."""
    return repr(
        [
            [
                (rows, {**payload, "wall_seconds": None, "rounds": [
                    {**record, "agg_seconds": None} for record in payload["rounds"]
                ]})
                for rows, payload in per_method
            ]
            for per_method in runs
        ]
    )


class TestSeedPasses:
    """A pass trains every seed's rounds in one lockstep and gives each seed
    the rows and round records that a run of that seed alone gives."""

    SEEDS = [0, 1, 2]
    CASES = {
        # a grid with lambda 0, a finite lambda and inf, under every method
        "bayes": (
            make_cfg(personalization=PersonalizationCfg(lambdas=(0.0, 0.5, math.inf))),
            TestForkedMethods.METHODS,
        ),
        "fedavg": (
            make_cfg(
                federation=FederationCfg(
                    rounds=3, local_epochs=3, batch_size=200, algorithm="fedavg"
                )
            ),
            (AggregationMethod.W2B,),
        ),
        # ragged 7-row minibatches, two training draws per step
        "ragged-mc2": (
            make_cfg(
                optimizer=OptimizerCfg(lr_initial=0.3, lr_final=0.1, mc_train_samples=2),
                federation=FederationCfg(rounds=2, local_epochs=2, batch_size=7),
            ),
            TestForkedMethods.METHODS,
        ),
        "threads3": (
            make_cfg(federation=FederationCfg(rounds=3, local_epochs=2, batch_size=200, threads=3)),
            TestForkedMethods.METHODS,
        ),
    }

    def counted(self, monkeypatch, cfg, seeds, methods):
        """run_experiment's output, the per-job seeds of each client_update
        call and the number of build_data calls."""
        calls, built = [], []

        def counting(*args):
            calls.append(args[6])
            return client_update(*args)

        def building(cfg):
            built.append(1)
            return build_data(cfg)

        monkeypatch.setattr(federation, "client_update", counting)
        monkeypatch.setattr(federation, "build_data", building)
        return run_experiment(cfg, seeds, methods), calls, len(built)

    @pytest.mark.parametrize("case", list(CASES))
    def test_pass_equals_one_seed_runs(self, monkeypatch, case):
        cfg, methods = self.CASES[case]
        together, calls, built = self.counted(monkeypatch, cfg, self.SEEDS, methods)
        # one pass: one build of the data, one group of every seed per round
        assert built == 1
        assert [sorted(set(seeds)) for seeds in calls] == [self.SEEDS] * cfg.federation.rounds
        alone = [run_experiment(cfg, [seed], methods)[0] for seed in self.SEEDS]
        assert untimed(together) == untimed(alone)

    def test_passes_split_at_the_group_size(self, monkeypatch):
        # 24 jobs per group hold two seeds of 3 methods x 4 clients a pass
        cfg, methods = self.CASES["bayes"]
        one_pass = run_experiment(cfg, self.SEEDS, methods)
        p = models.param_count(models.MlpSpec(layer_sizes=(2, 8, 3)))
        monkeypatch.setattr(federation, "GROUP_PARAMS", 24 * p)
        split, calls, built = self.counted(monkeypatch, cfg, self.SEEDS, methods)
        assert built == 2
        assert [sorted(set(seeds)) for seeds in calls] == [[0, 1]] * 3 + [[2]] * 3
        assert untimed(split) == untimed(one_pass)


def h0_prior(theta, opt, ess):
    """The posterior at ``theta`` of an optimizer state with its Hessian at h0."""
    start = DiagGaussian(mean=theta, var=np.ones(theta.shape[0]))
    return posterior_of(ivon_restart([start], opt, [ess], frozen=True))[0]


def forked_client_update(global_posterior, shard, opt, lrs, batch_size, rng, spec, frozen_var):
    """Reference local phase with one minibatch loop per algorithm: one job
    as a stack of one, one minibatch and one draw per gradient call."""
    dim = global_posterior.dim
    mc_train = opt.mc_train_samples
    deterministic = frozen_var is not None
    state = ivon_restart([global_posterior], opt, [shard.n], frozen=deterministic)
    trace = []
    for lr in lrs:
        order = rng.permutation(shard.n)
        losses = []
        for start in range(0, shard.n, batch_size):
            idx = order[start : start + batch_size]
            batch = models.Batch(
                inputs=shard.inputs[idx][None], labels=shard.labels[idx][None], counts=[len(idx)]
            )
            if deterministic:
                (loss,), grad = models.loss_and_grad(spec, state.mean, batch)
                ivon_step(state, grad[:, None], state.mean[:, None], lr=lr, update_hessian=False)
            else:
                grads = np.empty((1, mc_train, dim))
                thetas = np.empty_like(grads)
                loss = 0.0
                for s in range(mc_train):
                    theta = sample_params(state, [rng], np.empty((1, 1, dim)))[0]
                    (l,), grads[:, s] = models.loss_and_grad(spec, theta, batch)
                    loss += l / mc_train
                    thetas[:, s] = theta
                ivon_step(state, grads, thetas, lr=lr)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    if deterministic:
        return DiagGaussian(mean=state.mean[0], var=np.full(dim, frozen_var)), trace
    return posterior_of(state)[0], trace


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
        train, _ = build_data(cfg)
        shard = train.subset(np.arange(0, train.n, 2))
        spec = model_start(cfg, 0, train, train.n)[0]
        theta0 = models.init_params(spec, 7)
        prior = h0_prior(theta0, cfg.optimizer, 50.0)
        lrs = [0.3, 0.2, 0.1]
        ((post, trace),) = client_update([prior], [shard], [3], cfg, lrs, spec, [5], 2, frozen_var)
        ref, ref_trace = forked_client_update(
            prior, shard, cfg.optimizer, lrs, 16, client_rng(5, 2, 3), spec, frozen_var
        )
        assert np.array_equal(post.mean, ref.mean)
        assert np.array_equal(post.var, ref.var)
        assert trace == ref_trace
        assert len(trace) == len(lrs)

    def test_failure_names_round_and_client(self):
        cfg = make_cfg(optimizer=OptimizerCfg(lr_initial=1e6, lr_final=1e6, h0=1e-6, weight_decay=0))
        train, _ = build_data(cfg)
        spec = model_start(cfg, 0, train, train.n)[0]
        theta0 = models.init_params(spec, 0)
        prior = h0_prior(theta0, cfg.optimizer, train.n)
        with pytest.raises(RunError, match="round 4, client 2: optimizer step") as info:
            with np.errstate(all="ignore"):
                client_update([prior], [train], [2], cfg, [1e6] * 3, spec, [0], 4)
        assert (info.value.round_index, info.value.client_id) == (4, 2)

    @pytest.mark.parametrize(
        "h0, delta, ess", [(5.0, 2e-4, 60000), (1e-6, 0, 1.0), (3, 0.7, 37), (0.1, 1e-9, 123.456)]
    )
    def test_start_variance_is_fresh_optimizer_variance(self, h0, delta, ess):
        # model_start's closed form gives the bits of a state restarted at h0
        cfg = make_cfg(optimizer=OptimizerCfg(h0=h0, weight_decay=delta))
        train, _ = build_data(cfg)
        _, start, _ = model_start(cfg, 0, train, ess)
        state = ivon_restart([start], cfg.optimizer, [ess], frozen=True)
        assert start.var.tobytes() == state.var[0].tobytes()


def oracle_group(priors, shards, client_ids, cfg, lrs, spec, seeds, round_index, frozen_var):
    """forked_client_update on each job alone, with the job's own stream."""
    return [
        forked_client_update(
            prior, shard, cfg.optimizer, lrs, cfg.federation.batch_size,
            client_rng(seed, round_index, k), spec, frozen_var,
        )
        for prior, shard, k, seed in zip(priors, shards, client_ids, seeds)
    ]


@st.composite
def lockstep_groups(draw):
    """A group of jobs with ragged shards: sizes around the batch size and
    1, sometimes a batch larger than every shard, 1-3 training draws,
    FedAvg or IVON, one or two hidden layers and an optional clip radius."""
    batch = draw(st.integers(2, 9))
    size = st.sampled_from([1, batch - 1, batch, batch + 1, 2 * batch + 1]) | st.integers(1, 25)
    sizes = draw(st.lists(size, min_size=1, max_size=5))
    if draw(st.booleans()):
        batch = max(sizes) + draw(st.integers(1, 5))
    return {
        "sizes": sizes,
        "batch": batch,
        "dim": draw(st.sampled_from([2, 9])),
        "hidden": tuple(draw(st.lists(st.integers(1, 10), min_size=1, max_size=2))),
        "mc": draw(st.integers(1, 3)),
        "fedavg": draw(st.booleans()),
        "clip": draw(st.none() | st.sampled_from([0.05, 1.0])),
        "seed": draw(st.integers(0, 2**16)),
    }


def lockstep_case(case):
    """The client_update arguments of a ``lockstep_groups`` case: distinct
    priors, shards of the given sizes, distinct client ids and two master
    seeds, alternating between jobs."""
    cfg = make_cfg(
        dataset=DatasetCfg(kind="synth", classes=3, dim=case["dim"], n_per_class=30, spread=0.5),
        model=ModelCfg(hidden=case["hidden"]),
        optimizer=OptimizerCfg(
            lr_initial=0.3, lr_final=0.1, mc_train_samples=case["mc"],
            clip_radius=case["clip"],
        ),
        federation=FederationCfg(
            rounds=1, local_epochs=3, batch_size=case["batch"],
            algorithm="fedavg" if case["fedavg"] else "bayes",
        ),
    )
    rng = np.random.default_rng(case["seed"])
    train, _ = build_data(cfg)
    spec = model_start(cfg, 0, train, train.n)[0]
    shards = [train.subset(rng.choice(train.n, size=n, replace=False)) for n in case["sizes"]]
    priors = []
    for j in range(len(shards)):
        theta = models.init_params(spec, case["seed"] + j)
        priors.append(h0_prior(theta, cfg.optimizer, 20.0 + 7 * j))
    client_ids = rng.permutation(len(shards) + 3)[: len(shards)].tolist()
    seeds = [case["seed"] + j % 2 for j in range(len(shards))]
    return priors, shards, client_ids, cfg, [0.3, 0.2, 0.1], spec, seeds, 2, fedavg_var(cfg)


class TestLockstep:
    """A group trains every job exactly as the per-client oracle does."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @example(case={"sizes": [1, 4, 5, 6, 11], "batch": 5, "dim": 9, "hidden": (8, 3),
                   "mc": 3, "fedavg": False, "clip": None, "seed": 1})
    @example(case={"sizes": [1, 2, 7], "batch": 10, "dim": 9, "hidden": (8,),
                   "mc": 1, "fedavg": True, "clip": None, "seed": 2})
    @example(case={"sizes": [3, 9, 9, 16], "batch": 4, "dim": 2, "hidden": (5, 7),
                   "mc": 2, "fedavg": False, "clip": 0.05, "seed": 3})
    @given(case=lockstep_groups())
    def test_matches_per_client_oracle(self, case):
        # exact for every job, 1-row minibatches included: each matrix
        # product runs on the job's real rows only
        args = lockstep_case(case)
        got = client_update(*args)
        for (post, trace), (ref, ref_trace) in zip(got, oracle_group(*args)):
            assert np.array_equal(post.mean, ref.mean)
            assert np.array_equal(post.var, ref.var)
            assert trace == ref_trace

    def test_clip_radius_matches_oracle(self):
        args = lockstep_case({"sizes": [7, 12, 12, 30], "batch": 8, "dim": 9, "hidden": (16,),
                              "mc": 2, "fedavg": False, "clip": 0.02, "seed": 4})
        clipped = False
        for (post, trace), (ref, ref_trace), prior in zip(
            client_update(*args), oracle_group(*args), args[0]
        ):
            assert np.array_equal(post.mean, ref.mean) and np.array_equal(post.var, ref.var)
            assert trace == ref_trace
            clipped |= np.linalg.norm(post.mean - prior.mean) <= 3 * 3 * 0.02 + 1e-12
        assert clipped  # the radius bounds each step, so it bounds the phase

    def test_lowest_failing_job_is_reported(self):
        # client 2 fails at step 1 in the forward pass; client 0 only when
        # epoch 3's infinite learning rate makes its mean non-finite, at
        # step 5 (two steps per epoch). The lowest-indexed job is reported.
        cfg = make_cfg(
            optimizer=OptimizerCfg(lr_initial=0.3, lr_final=0.1),
            federation=FederationCfg(rounds=1, local_epochs=3, batch_size=16),
        )
        train, _ = build_data(cfg)
        spec, start, _ = model_start(cfg, 0, train, train.n)
        blown = DiagGaussian(mean=start.mean * 1e160, var=start.var)
        small, big = train.subset(np.arange(30)), train.subset(np.arange(30, 90))
        lrs = [0.1, 0.1, math.inf]

        def failure(priors, shards, client_ids):
            with pytest.raises(RunError) as info:
                with np.errstate(all="ignore"):
                    client_update(priors, shards, client_ids, cfg, lrs, spec, [0] * len(priors), 1)
            return info.value.client_id, str(info.value)

        alone_0 = failure([start], [small], [0])
        alone_2 = failure([blown], [big], [2])
        assert alone_2 == (2, "round 1, client 2: non-finite activation in forward pass")
        assert alone_0[0] == 0 and "optimizer step 5: non-finite mean" in alone_0[1]
        assert failure([start, blown], [small, big], [0, 2]) == alone_0
        assert failure([blown, start], [big, small], [2, 0]) == alone_2

    @pytest.mark.parametrize("batch_size", [200, 7], ids=["full-batch", "ragged"])
    def test_grouping_does_not_change_bits(self, monkeypatch, batch_size):
        cfg = make_cfg(
            partition=PartitionCfg(n_clients=5, beta=0.5, min_shard=3),
            federation=FederationCfg(rounds=2, local_epochs=2, batch_size=batch_size),
        )
        (s,) = setups(cfg, [0])
        if batch_size == 7:
            assert any(shard.n % 7 == 1 for shard in s.train_shards)  # a 1-row minibatch
        methods = TestForkedMethods.METHODS

        def finals(cap, threads):
            monkeypatch.setattr(federation, "GROUP_PARAMS", cap)
            fed = dataclasses.replace(cfg.federation, threads=threads)
            run_cfg = dataclasses.replace(cfg, federation=fed)
            spec, start, lrs = model_start(run_cfg, 0, s.train_shards[0], 30.0)
            k = len(methods)
            out = train(run_cfg, [0] * k, [s.train_shards] * k, spec, lrs, [start] * k, methods)
            return [
                (p.mean.tobytes(), p.var.tobytes(), [r["nll_traces"] for r in f["rounds"]])
                for f in out
                for p in (f["global"], *f["locals"])
            ]

        one_group = finals(1 << 16, 1)
        p = models.param_count(model_start(cfg, 0, s.train_shards[0], 30.0)[0])
        assert one_group == finals(p, 1)  # one job per group
        assert one_group == finals(p, 3)
        assert one_group == finals(2 * p, 3)
        assert one_group == finals(1 << 16, 3)


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
        at_zero, at_inf = zip(*(project(Divergence.W2SQ, g, p, [0.0, math.inf]) for p in locals_))
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
            project(Divergence.RKL, g, p, [1.0])
        assert calls == {"forward": 0, "loss_and_grad": 0}

    def test_matches_direct_projection(self):
        # the PM rows of a run score the projection of its final posteriors
        cfg = make_cfg()
        rows, _ = run_one(cfg, 0)
        (final,) = train_one(cfg, 0)
        train, test = build_data(cfg)
        spec = model_start(cfg, 0, train, train.n)[0]
        eseed = derived_seed(0, _EVAL_TAG)
        noise = np.random.default_rng(eseed).standard_normal(
            (cfg.eval.mc_samples, models.param_count(spec))
        )
        rows = [m for m in rows if m["setting"] == "PM-GD" and m["lambda"] == 1.0]
        assert [m["client_id"] for m in rows] == list(range(len(final["locals"])))
        for m, loc in zip(rows, final["locals"]):
            (p,) = project(cfg.personalization.divergence, final["global"], loc, [1.0])
            ref = evaluate(spec, [p], test, noise, cfg.eval.ece_bins)[0]
            assert (m["acc"], m["nll"], m["ece"]) == (ref["acc"], ref["nll"], ref["ece"])


class TestScoreOnce:
    """Each (posterior, dataset) pair of a run is scored once, and every
    posterior scored on one dataset goes through one evaluate call."""

    def counted_run(self, monkeypatch, cfg):
        calls = []

        def counting(spec, posteriors, ds, *args):
            calls.append((ds, posteriors))
            return evaluate(spec, posteriors, ds, *args)

        monkeypatch.setattr(federation, "evaluate", counting)
        rows, rounds = run_one(cfg, 0)
        datasets = [id(ds) for ds, _ in calls]
        assert len(set(datasets)) == len(datasets)
        for _, posteriors in calls:
            assert len({id(p) for p in posteriors}) == len(posteriors)
        return rows, len(rounds["client_sizes"]), len(calls), sum(len(ps) for _, ps in calls)

    def test_bayes_endpoints_reuse_scores(self, monkeypatch):
        cfg = make_cfg()
        lams = cfg.personalization.lambdas
        assert lams[0] == 0.0 and math.isinf(lams[-1])
        rows, k, calls, scored = self.counted_run(monkeypatch, cfg)
        assert len(rows) == k + 1 + 2 * k * len(lams)
        assert calls == k + 1  # the K test shards and the pooled test set
        # lambda = 0 projects to the global posterior: its 2K rows reuse GM scores
        assert scored == k + 1 + 2 * k * (len(lams) - 1)

    def test_fedavg_scores_every_row(self, monkeypatch):
        cfg = make_cfg()
        cfg = dataclasses.replace(
            cfg, federation=dataclasses.replace(cfg.federation, algorithm="fedavg")
        )
        rows, k, calls, scored = self.counted_run(monkeypatch, cfg)
        assert calls == k + 1
        assert scored == len(rows) == 3 * k + 1

    def test_lambda_zero_rows_equal_global_rows(self):
        rows, _ = run_one(make_cfg(), 0)
        gm_ld = {m["client_id"]: m for m in rows if m["setting"] == "GM-LD"}
        gm_gd = next(m for m in rows if m["setting"] == "GM-GD")
        pm_ld = [m for m in rows if m["setting"] == "PM-LD" and m["lambda"] == 0.0]
        pm_gd = [m for m in rows if m["setting"] == "PM-GD" and m["lambda"] == 0.0]
        assert len(pm_ld) == len(pm_gd) == len(gm_ld)
        assert gm_gd["client_id"] == "global"
        for m in pm_ld:
            assert {**m, "setting": "GM-LD", "lambda": None} == gm_ld[m["client_id"]]
        for m in pm_gd:
            assert {**m, "setting": "GM-GD", "lambda": None, "client_id": "global"} == gm_gd
        # rows that share a score are still separate dicts
        assert len({id(m) for m in rows}) == len(rows)


class TestScoreBlocks:
    """Scoring in blocks of max(1, GROUP_PARAMS // P) (method, client) jobs
    changes no bit of any row and scores no (posterior, test set) pair
    twice, whatever the block size."""

    LAMBDAS = PersonalizationCfg(lambdas=(0.0, 0.5, math.inf))
    FEDAVG = FederationCfg(rounds=3, local_epochs=3, batch_size=200, algorithm="fedavg")
    ROUND_ONE = FederationCfg(rounds=1, local_epochs=3, batch_size=200)
    EAA_W2B = (AggregationMethod.EAA, AggregationMethod.W2B)
    # (config, methods, distinct (posterior, test set) pairs) with K = 4
    # clients: per method the global posterior on K + 1 test sets, and the
    # posterior at each lambda on its client's shard and the pooled set;
    # lambda = 0 is the global posterior, lambda = inf the local one
    CASES = {
        # K + 1, plus 2K at 0.5 and 2K at inf
        "bayes": (make_cfg(personalization=LAMBDAS), (AggregationMethod.RKLB,), 21),
        # K + 1, plus the local posteriors' 2K
        "fedavg": (make_cfg(federation=FEDAVG), (AggregationMethod.EAA,), 13),
        # round 1 alone: both methods keep the same local posteriors, so the
        # lambda = inf pairs are shared: 2 (K + 1 + 2K) + 2K
        "shared-locals": (make_cfg(federation=ROUND_ONE, personalization=LAMBDAS), EAA_W2B, 34),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_blocks_change_no_bits(self, monkeypatch, case):
        cfg, methods, distinct = self.CASES[case]
        scored = []

        def counting(spec, posteriors, *args):
            scored.append(len(posteriors))
            return predict_proba_mc(spec, posteriors, *args)

        monkeypatch.setattr(models, "predict_proba_mc", counting)
        p = models.param_count(models.MlpSpec(layer_sizes=(2, 8, 3)))
        rows = {}
        for cap in (1 << 16, p, 2 * p):
            monkeypatch.setattr(federation, "GROUP_PARAMS", cap)
            scored.clear()
            (out,) = run_experiment(cfg, [0], methods)
            rows[cap] = [[{k: repr(v) for k, v in row.items()} for row in m] for m, _ in out]
            assert sum(scored) == distinct, cap
        assert rows[p] == rows[1 << 16]
        assert rows[2 * p] == rows[1 << 16]


class TestLiveness:
    """What a run holds alive: one round of local posteriors while a round
    trains, one block of finite-lambda projections while it scores."""

    METHODS = (AggregationMethod.EAA, AggregationMethod.W2B, AggregationMethod.RKLB)

    def test_round_locals_freed_before_next_round(self, monkeypatch):
        local_refs = {}  # round -> weak references to its local posteriors
        alive_at_start = {}  # round -> previous round's locals still reachable

        def tracking(priors, shards, client_ids, cfg, lrs, spec, seeds, round_index, *rest):
            if round_index not in local_refs:
                gc.collect()
                previous = local_refs.get(round_index - 1, [])
                alive_at_start[round_index] = sum(ref() is not None for ref in previous)
                local_refs[round_index] = []
            results = client_update(
                priors, shards, client_ids, cfg, lrs, spec, seeds, round_index, *rest
            )
            local_refs[round_index] += [weakref.ref(post) for post, _ in results]
            return results

        monkeypatch.setattr(federation, "client_update", tracking)
        run_experiment(make_cfg(), [0], self.METHODS)
        assert [len(refs) for refs in local_refs.values()] == [4, 12, 12]
        assert alive_at_start == {1: 0, 2: 0, 3: 0}

    def test_one_block_of_projections_alive(self, monkeypatch):
        cfg = make_cfg(personalization=PersonalizationCfg(lambdas=(0.0, 0.5, 1.0, math.inf)))
        p = models.param_count(models.MlpSpec(layer_sizes=(2, 8, 3)))
        monkeypatch.setattr(federation, "GROUP_PARAMS", p)  # one job per block
        rows = []  # weak references to the last call's finite-lambda rows
        alive_at_call = []

        def tracking(d, p_g, p_k, lambdas):
            gc.collect()
            alive_at_call.append(sum(ref() is not None for ref in rows))
            out = project(d, p_g, p_k, lambdas)
            rows[:] = [weakref.ref(q) for q in out if q is not p_g and q is not p_k]
            return out

        monkeypatch.setattr(federation, "project", tracking)
        run_experiment(cfg, [0], self.METHODS)
        assert len(rows) == 2
        assert alive_at_call == [0] * 12  # 3 methods x 4 clients


class TestTrainingBehavior:
    def test_nll_trend_decreases(self):
        _, rounds = run_one(bench_cfg(), 0)
        per_round = [
            float(np.mean([t for tr in r["nll_traces"] for t in tr])) for r in rounds["rounds"]
        ]
        assert per_round[-1] < per_round[0]
        # trend, not strict monotonicity: last quarter below first quarter
        q = max(1, len(per_round) // 4)
        assert np.mean(per_round[-q:]) < np.mean(per_round[:q])

    def test_fedavg_within_band_of_bayes(self):
        cfg = bench_cfg()
        bayes, _ = run_one(cfg, 0)
        fedavg = dataclasses.replace(cfg.federation, algorithm="fedavg")
        assert fedavg.algorithm == "fedavg" and cfg.federation.algorithm == "bayes"
        avg, _ = run_one(dataclasses.replace(cfg, federation=fedavg), 0)
        acc = lambda rows: next(m["acc"] for m in rows if m["setting"] == "GM-GD")
        assert abs(acc(bayes) - acc(avg)) <= 5.0
        assert all(m["method"] == "fedavg" for m in avg)
        lams = {m["lambda"] for m in avg if m["setting"] == "PM-LD"}
        assert lams == {None}


class TestIncrementalSweep:
    def small_cfg(self, **incremental):
        return make_cfg(
            dataset=DatasetCfg(kind="synth", classes=4, dim=2, n_per_class=30, spread=0.3),
            federation=FederationCfg(rounds=2, local_epochs=2, batch_size=200),
            incremental=IncrementalCfg(**incremental),
        )

    def traced_sweep(self, monkeypatch, cfg):
        """The sweep's rows and the classes of each task's training set."""
        trained = []

        def recording(priors, shards, *args):
            trained.extend(np.unique(shard.labels).tolist() for shard in shards)
            return client_update(priors, shards, *args)

        monkeypatch.setattr(federation, "client_update", recording)
        return incremental_sweep(cfg, seed=0), trained

    def test_rows_and_settings(self, monkeypatch):
        cfg = self.small_cfg(w_grid=(0.0, 0.5, 1.0))
        rows, trained = self.traced_sweep(monkeypatch, cfg)
        assert trained == [[0, 1], [2, 3]]  # default split_class: classes // 2
        assert [r["w"] for r in rows] == [0.0, 0.5, 1.0]
        assert all(
            list(r) == ["seed", "w", "acc_a", "ece_a", "nll_a", "acc_b", "ece_b", "nll_b"]
            for r in rows
        )
        assert all(r["seed"] == 0 for r in rows)

    def test_explicit_split(self, monkeypatch):
        cfg = self.small_cfg(w_grid=(0.5,), split_class=1)
        _, trained = self.traced_sweep(monkeypatch, cfg)
        assert trained == [[0], [1, 2, 3]]

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
        a_end, b_end = incremental_sweep(cfg, seed=0)
        assert a_end["acc_a"] > b_end["acc_a"]
        assert b_end["acc_b"] > a_end["acc_b"]
