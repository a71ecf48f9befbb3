import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryfed import data, federation, models
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
from baryfed.evaluation import evaluate, metrics_of
from baryfed.federation import (
    _EVAL_TAG,
    RunError,
    build_data,
    client_rng,
    client_update,
    derived_seed,
    eval_noise,
    fedavg_var,
    incremental_sweep,
    model_start,
    partition_both,
    run_experiment,
    train,
)
from baryfed.checks import projection_path
from baryfed.geometry import AggregationMethod, DiagGaussian, Divergence, aggregate, project
from baryfed.models import predict_proba_mc
from baryfed.variopt import ivon_restart, ivon_step, sample_params

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


def split_one(cfg, seed):
    """The pooled train and test sets and one seed's shard indices into
    them, as a pass sets them up."""
    train_set, test = build_data(cfg)
    return (train_set, test, *partition_both(cfg, train_set, test, seed))


def train_one(cfg, seed, methods=None):
    """The final posteriors and round records of the stages run_experiment
    composes, for one seed under ``methods`` (default: the configured
    aggregation)."""
    train_set, _, train_idx, _ = split_one(cfg, seed)
    ess = float(np.mean([len(idx) for idx in train_idx]))
    spec, start, lrs = model_start(cfg, seed, train_set, ess)
    methods = methods or (cfg.federation.aggregation,)
    lanes = [(seed, method, train_idx) for method in methods]
    return train(cfg, train_set, lanes, spec, lrs, [start] * len(methods))


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
        # master seeds only partition one train/test pair, built once: each
        # seed's shards are index arrays that cover the pooled sets
        cfg = make_cfg()
        train, test = build_data(cfg)
        again, _ = build_data(cfg)
        assert np.array_equal(train.inputs, again.inputs)
        a, b = (partition_both(cfg, train, test, seed) for seed in (0, 17))
        for train_idx, test_idx in (a, b):
            assert np.array_equal(np.sort(np.concatenate(train_idx)), np.arange(train.n))
            assert np.array_equal(np.sort(np.concatenate(test_idx)), np.arange(test.n))
        assert any(not np.array_equal(x, y) for x, y in zip(a[0], b[0]))

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

    def test_batch_beyond_every_shard_is_full_batch(self):
        # a batch larger than every shard is one full batch, however large
        n_train = build_data(make_cfg())[0].n
        full, huge = (
            make_cfg(federation=FederationCfg(rounds=3, local_epochs=3, batch_size=b))
            for b in (n_train, 10**15)
        )
        assert run_one(huge, 0)[0] == run_one(full, 0)[0]
        assert incremental_sweep(huge, [0]) == incremental_sweep(full, [0])

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
            calls.extend(k for _, _, k, _ in args[0])  # the group's client ids, one per job
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


# what a payload records of its whole pass, which a seed run alone does not share
PASS_COSTS = dict.fromkeys(
    ("wall_seconds", "train_s", "personalize_s", "score_s", "forwarded_posteriors")
)


def untimed(runs):
    """run_experiment's output as a repr string, its pass costs left out."""
    return repr(
        [
            [
                (rows, {**payload, **PASS_COSTS, "rounds": [
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
            calls.append([seed for *_, seed in args[0]])
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
        for per_method in together:
            for _, payload in per_method:
                assert payload["train_s"] > 0
                assert payload["train_s"] + payload["score_s"] <= payload["wall_seconds"]

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
    state = ivon_restart([start], opt, [ess], frozen=True)
    return DiagGaussian(mean=state.mean, var=state.var)[0]


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
    return DiagGaussian(mean=state.mean, var=state.var)[0], trace


class TestClientUpdate:
    """The one minibatch loop equals the forked per-algorithm loops bit for bit."""

    @pytest.mark.parametrize(
        "mc_train, frozen_var",
        [(1, 1e-4), (1, None), (2, None), (3, None)],
        ids=["fedavg", "ivon-mc1", "ivon-mc2", "ivon-mc3"],
    )
    def test_matches_forked_loops(self, mc_train, frozen_var):
        fed = FederationCfg(rounds=2, local_epochs=3, batch_size=16)
        if frozen_var is not None:
            fed = dataclasses.replace(fed, algorithm="fedavg", frozen_var=frozen_var)
        cfg = make_cfg(
            optimizer=OptimizerCfg(lr_initial=0.3, lr_final=0.1, mc_train_samples=mc_train),
            federation=fed,
        )
        train, _ = build_data(cfg)
        idx = np.arange(0, train.n, 2)
        spec = model_start(cfg, 0, train, train.n)[0]
        theta0 = models.init_params(spec, 7)
        prior = h0_prior(theta0, cfg.optimizer, 50.0)
        lrs = [0.3, 0.2, 0.1]
        ((post, trace),) = client_update([(prior, idx, 3, 5)], train, cfg, lrs, spec, 2)
        ref, ref_trace = forked_client_update(
            prior, train.subset(idx), cfg.optimizer, lrs, 16, client_rng(5, 2, 3), spec, frozen_var
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
            job = (prior, np.arange(train.n), 2, 0)
            client_update([job], train, cfg, [1e6] * 3, spec, 4)
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


def oracle_group(jobs, train_set, cfg, lrs, spec, round_index):
    """forked_client_update on each job alone, with the job's own stream and
    its shard copied out of the pooled set."""
    return [
        forked_client_update(
            prior, train_set.subset(idx), cfg.optimizer, lrs, cfg.federation.batch_size,
            client_rng(seed, round_index, k), spec, fedavg_var(cfg),
        )
        for prior, idx, k, seed in jobs
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
    priors, shards of the given sizes as unsorted indices into the pooled
    train set, distinct client ids and two master seeds, alternating
    between jobs."""
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
    shards = [rng.choice(train.n, size=n, replace=False) for n in case["sizes"]]
    priors = []
    for j in range(len(shards)):
        theta = models.init_params(spec, case["seed"] + j)
        priors.append(h0_prior(theta, cfg.optimizer, 20.0 + 7 * j))
    client_ids = rng.permutation(len(shards) + 3)[: len(shards)].tolist()
    seeds = [case["seed"] + j % 2 for j in range(len(shards))]
    return list(zip(priors, shards, client_ids, seeds)), train, cfg, [0.3, 0.2, 0.1], spec, 2


@st.composite
def failing_groups(draw):
    """A ``lockstep_groups`` case in which the jobs in ``blown`` start from
    their prior mean times 1e160, and with ``inf_lr`` the last epoch's
    learning rate is infinite."""
    case = draw(lockstep_groups())
    blown = draw(st.sets(st.integers(0, len(case["sizes"]) - 1)))
    return {**case, "blown": sorted(blown), "inf_lr": draw(st.booleans())}


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
        for (post, trace), (ref, ref_trace), (prior, *_) in zip(
            client_update(*args), oracle_group(*args), args[0]
        ):
            assert np.array_equal(post.mean, ref.mean) and np.array_equal(post.var, ref.var)
            assert trace == ref_trace
            clipped |= np.linalg.norm(post.mean - prior.mean) <= 3 * 3 * 0.02 + 1e-12
        assert clipped  # the radius bounds each step, so it bounds the phase

    @settings(deadline=None, max_examples=25, derandomize=True)
    @example(case={"sizes": [3, 12, 5], "batch": 4, "dim": 9, "hidden": (8,), "mc": 2,
                   "fedavg": False, "clip": None, "seed": 5, "blown": [1, 2], "inf_lr": True})
    @given(case=failing_groups())
    def test_failing_group_raises_what_its_lowest_failing_job_raises_alone(self, case):
        jobs, train_set, cfg, lrs, spec, round_index = lockstep_case(case)
        if case["inf_lr"]:
            lrs = [*lrs[:-1], math.inf]
        for j in case["blown"]:
            prior, *rest = jobs[j]
            jobs[j] = (DiagGaussian(mean=prior.mean * 1e160, var=prior.var), *rest)

        def outcome(group):
            try:
                client_update(group, train_set, cfg, lrs, spec, round_index)
            except RunError as exc:
                return exc.client_id, str(exc)
            return None

        alone = [outcome([job]) for job in jobs]
        assert outcome(jobs) == next((o for o in alone if o is not None), None)

    def test_lowest_failing_job_is_reported(self, monkeypatch):
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
        small, big = np.arange(30), np.arange(30, 90)
        lrs = [0.1, 0.1, math.inf]

        calls = []

        def counting(*args):
            calls.append(1)
            return client_update(*args)

        monkeypatch.setattr(federation, "client_update", counting)

        def failure(priors, shards, client_ids):
            calls.clear()
            with pytest.raises(RunError) as info:
                jobs = list(zip(priors, shards, client_ids, [0] * len(priors)))
                federation.client_update(jobs, train, cfg, lrs, spec, 1)
            return info.value.client_id, str(info.value)

        alone_0 = failure([start], [small], [0])
        alone_2 = failure([blown], [big], [2])
        assert alone_2 == (2, "round 1, client 2: non-finite activation in forward pass")
        assert alone_0[0] == 0 and "optimizer step 5: non-finite mean" in alone_0[1]
        assert failure([start, blown], [small, big], [0, 2]) == alone_0
        assert len(calls) == 1  # the group trains once: no job is replayed
        assert failure([blown, start], [big, small], [2, 0]) == alone_2

    @pytest.mark.parametrize("batch_size", [200, 7], ids=["full-batch", "ragged"])
    def test_grouping_does_not_change_bits(self, monkeypatch, batch_size):
        cfg = make_cfg(
            partition=PartitionCfg(n_clients=5, beta=0.5, min_shard=3),
            federation=FederationCfg(rounds=2, local_epochs=2, batch_size=batch_size),
        )
        train_set, _, train_idx, _ = split_one(cfg, 0)
        if batch_size == 7:
            assert any(len(idx) % 7 == 1 for idx in train_idx)  # a 1-row minibatch
        methods = TestForkedMethods.METHODS

        def finals(cap, threads):
            monkeypatch.setattr(federation, "GROUP_PARAMS", cap)
            fed = dataclasses.replace(cfg.federation, threads=threads)
            run_cfg = dataclasses.replace(cfg, federation=fed)
            spec, start, lrs = model_start(run_cfg, 0, train_set, 30.0)
            lanes = [(0, method, train_idx) for method in methods]
            out = train(run_cfg, train_set, lanes, spec, lrs, [start] * len(methods))
            return [
                (p.mean.tobytes(), p.var.tobytes(), [r["nll_traces"] for r in f["rounds"]])
                for f in out
                for p in (f["global"], *f["locals"])
            ]

        one_group = finals(1 << 16, 1)
        p = models.param_count(model_start(cfg, 0, train_set, 30.0)[0])
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
        # the endpoints get no projected row: they are the posteriors themselves
        p_g = DiagGaussian(mean=np.stack([g.mean] * 3), var=np.stack([g.var] * 3))
        p_k = federation._stack(locals_)
        assert project(Divergence.W2SQ, p_g, p_k, [0.0, math.inf]).mean.shape == (3, 0, 6)
        paths = (projection_path(Divergence.W2SQ, g, p, [0.0, math.inf]) for p in locals_)
        at_zero, at_inf = zip(*paths)
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
        p_g = DiagGaussian(mean=np.stack([g.mean] * 3), var=np.stack([g.var] * 3))
        project(Divergence.RKL, p_g, federation._stack(locals_), [1.0])
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
            d = cfg.personalization.divergence
            proj = project(d, final["global"][None], loc[None], [1.0])
            ((ref, *_),) = evaluate(spec, [proj], test, noise, cfg.eval.ece_bins)
            assert (m["acc"], m["nll"], m["ece"]) == (ref["acc"], ref["nll"], ref["ece"])


class TestScoreOnce:
    """Each posterior of a seed reaches ``predict_proba_mc`` once, on the
    pooled test set, through the ``evaluate`` call that also reads its
    metrics on every client's test rows: one call for the plain posteriors,
    then one per projection block."""

    def counted_run(self, monkeypatch, cfg):
        calls, forwarded = [], []

        def counting(spec, posts, ds, noise, bins, groups=()):
            calls.append((ds, groups))
            return evaluate(spec, posts, ds, noise, bins, groups)

        def forwarding(spec, posts, inputs, noise):
            # each posterior's bytes: distinct posteriors have distinct rows here
            forwarded.extend(m.tobytes() + v.tobytes() for p in posts for m, v in
                             zip(p.mean.reshape(-1, p.dim), p.var.reshape(-1, p.dim)))
            return predict_proba_mc(spec, posts, inputs, noise)

        monkeypatch.setattr(federation, "evaluate", counting)
        monkeypatch.setattr(models, "predict_proba_mc", forwarding)
        rows, rounds = run_one(cfg, 0)
        _, test, _, test_idx = split_one(cfg, 0)
        for ds, groups in calls:
            assert np.array_equal(ds.inputs, test.inputs)
            assert [g.tolist() for g in groups] == [g.tolist() for g in test_idx]
        assert len(set(forwarded)) == len(forwarded)
        assert rounds["forwarded_posteriors"] == len(forwarded)
        return rows, len(rounds["client_sizes"]), len(calls), len(forwarded)

    def test_bayes_endpoints_reuse_scores(self, monkeypatch):
        cfg = make_cfg()
        lams = cfg.personalization.lambdas
        assert lams[0] == 0.0 and math.isinf(lams[-1])
        rows, k, calls, forwarded = self.counted_run(monkeypatch, cfg)
        assert len(rows) == k + 1 + 2 * k * len(lams)
        assert calls == 2  # the plain posteriors, then one block of projections
        # lambda = 0 and inf are the global and the local posteriors: their
        # 4K rows reuse the scores of those K + 1 posteriors
        assert forwarded == k + 1 + k * (len(lams) - 2)

    def test_fedavg_scores_every_row(self, monkeypatch):
        cfg = make_cfg()
        cfg = dataclasses.replace(
            cfg, federation=dataclasses.replace(cfg.federation, algorithm="fedavg")
        )
        rows, k, calls, forwarded = self.counted_run(monkeypatch, cfg)
        assert calls == 1  # no projection
        assert len(rows) == 3 * k + 1
        assert forwarded == k + 1

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
    changes no bit of any row and forwards no posterior twice, whatever the
    block size."""

    LAMBDAS = PersonalizationCfg(lambdas=(0.0, 0.5, math.inf))
    FEDAVG = FederationCfg(rounds=3, local_epochs=3, batch_size=200, algorithm="fedavg")
    ROUND_ONE = FederationCfg(rounds=1, local_epochs=3, batch_size=200)
    EAA_W2B = (AggregationMethod.EAA, AggregationMethod.W2B)
    ONE_CLIENT = PartitionCfg(n_clients=1, beta=1.0, min_shard=5)
    # (config, methods, distinct posteriors forwarded) with K = 4 clients
    # unless set: per method the global posterior and each client's
    # posterior at each lambda; lambda = 0 is the global posterior, lambda =
    # inf the local one
    CASES = {
        # 1 global, K at 0.5 and K at inf
        "bayes": (make_cfg(personalization=LAMBDAS), (AggregationMethod.RKLB,), 9),
        # 1 global and the K local posteriors
        "fedavg": (make_cfg(federation=FEDAVG), (AggregationMethod.EAA,), 5),
        # round 1 alone: both methods keep the same local posteriors, so the
        # lambda = inf ones are shared: 2 (1 + K) + K
        "shared-locals": (make_cfg(federation=ROUND_ONE, personalization=LAMBDAS), EAA_W2B, 14),
        # one client: aggregate returns the local posterior itself, so from
        # round 2 on both methods train and hold one posterior, global and
        # local at once: that one, plus each method's lambda = 0.5 projection
        "one-client": (
            make_cfg(partition=ONE_CLIENT, personalization=LAMBDAS), EAA_W2B, 1 + 2
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_blocks_change_no_bits(self, monkeypatch, case):
        cfg, methods, distinct = self.CASES[case]
        scored = []

        def counting(spec, posts, *args):
            scored.append(sum(p.mean.size // p.dim for p in posts))
            return predict_proba_mc(spec, posts, *args)

        monkeypatch.setattr(models, "predict_proba_mc", counting)
        p = models.param_count(models.MlpSpec(layer_sizes=(2, 8, 3)))
        rows = {}
        for cap in (1 << 16, p, 2 * p):
            monkeypatch.setattr(federation, "GROUP_PARAMS", cap)
            scored.clear()
            (out,) = run_experiment(cfg, [0], methods)
            rows[cap] = [[{k: repr(v) for k, v in row.items()} for row in m] for m, _ in out]
            assert sum(scored) == distinct, cap
            # the run record counts the posteriors its pass forwarded
            assert [rounds["forwarded_posteriors"] for _, rounds in out] == (
                [distinct] * len(methods)
            )
        assert rows[p] == rows[1 << 16]
        assert rows[2 * p] == rows[1 << 16]


class TestLiveness:
    """What a run holds alive: one round of local posteriors while a round
    trains, one block of finite-lambda projections while it scores."""

    METHODS = (AggregationMethod.EAA, AggregationMethod.W2B, AggregationMethod.RKLB)

    def test_round_locals_freed_before_next_round(self, monkeypatch):
        # the references are to the arrays that own each local's mean and
        # var, not to its wrapper: a view held past its round, such as a
        # one-lane stack, keeps them alive
        local_refs = {}  # round -> weak references to its locals' owning arrays
        alive_at_start = {}  # round -> previous round's owning arrays still reachable

        def tracking(jobs, train_set, cfg, lrs, spec, round_index):
            if round_index not in local_refs:
                gc.collect()
                previous = local_refs.get(round_index - 1, [])
                alive_at_start[round_index] = sum(ref() is not None for ref in previous)
                local_refs[round_index] = []
            results = client_update(jobs, train_set, cfg, lrs, spec, round_index)
            local_refs[round_index] += [
                weakref.ref(a if a.base is None else a.base)
                for post, _ in results
                for a in (post.mean, post.var)
            ]
            return results

        monkeypatch.setattr(federation, "client_update", tracking)
        run_experiment(make_cfg(), [0], self.METHODS)
        assert [len(refs) for refs in local_refs.values()] == [8, 24, 24]  # 2 per local
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
            proj = project(d, p_g, p_k, lambdas)
            assert proj.mean.shape[:2] == (1, 2)  # one job, lambda 0.5 and 1.0
            rows[:] = [weakref.ref(proj.mean), weakref.ref(proj.var)]
            return proj

        monkeypatch.setattr(federation, "project", tracking)
        run_experiment(cfg, [0], self.METHODS)
        assert len(rows) == 2
        assert alive_at_call == [0] * 12  # 3 methods x 4 clients


class TestPooledTrainSet:
    """Set-up and training read every client's rows from the one pooled
    train set a pass builds: no shard is copied out of it."""

    @pytest.mark.parametrize("methods", [TestLiveness.METHODS[:1], TestLiveness.METHODS],
                             ids=["run", "compare-agg"])
    def test_no_shard_copies(self, monkeypatch, methods):
        pooled, copied, trained_on = [], [], []
        build, subset, update = federation.build_data, data.Dataset.subset, client_update

        def building(cfg):
            pair = build(cfg)
            pooled.append(pair[0])
            return pair

        def copying(ds, indices):
            copied.append(ds)
            return subset(ds, indices)

        def updating(jobs, train_set, *args):
            trained_on.append(train_set)
            return update(jobs, train_set, *args)

        monkeypatch.setattr(federation, "build_data", building)
        monkeypatch.setattr(data.Dataset, "subset", copying)
        monkeypatch.setattr(federation, "client_update", updating)
        run_experiment(make_cfg(), [0, 1], methods)
        (train_set,) = pooled  # one pass
        assert len(trained_on) == make_cfg().federation.rounds
        assert all(ds is train_set for ds in trained_on)
        assert not any(ds is train_set for ds in copied)


class TestScoreOracle:
    """Every metrics.csv row of a run equals ``metrics_of`` of the pooled
    predictive of a stack of one (the global posterior, the local one, or
    that row's ``project`` output), over the pooled rows for a GD row and
    the client's rows of it for an LD row; a GD row also equals
    ``evaluate`` on that stack."""

    FEDAVG = FederationCfg(rounds=3, local_epochs=3, batch_size=200, algorithm="fedavg")
    ROUND_ONE = FederationCfg(rounds=1, local_epochs=3, batch_size=200)
    RKLB = (AggregationMethod.RKLB,)
    CASES = {
        "w2sq": (PersonalizationCfg(Divergence.W2SQ, (0.0, 0.5, 2.0, math.inf)), None, RKLB),
        "rkl": (PersonalizationCfg(Divergence.RKL, (0.0, 1.0, math.inf)), None, RKLB),
        "w2sq-inner-only": (PersonalizationCfg(Divergence.W2SQ, (0.25, 4.0)), None, RKLB),
        "rkl-inner-only": (PersonalizationCfg(Divergence.RKL, (0.5,)), None, RKLB),
        "fedavg": (PersonalizationCfg(), FEDAVG, (AggregationMethod.EAA,)),
        # two methods that keep the same round-1 locals
        "shared-locals": (
            PersonalizationCfg(Divergence.RKL, (0.0, 0.5, math.inf)),
            ROUND_ONE,
            (AggregationMethod.EAA, AggregationMethod.W2B),
        ),
    }

    @pytest.mark.parametrize("blocks", ["default", "one-job"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_equal_stacks_of_one(self, monkeypatch, case, blocks):
        personalization, fed, methods = self.CASES[case]
        cfg = make_cfg(personalization=personalization, federation=fed or make_cfg().federation)
        if blocks == "one-job":
            p = models.param_count(models.MlpSpec((2, 8, 3)))
            monkeypatch.setattr(federation, "GROUP_PARAMS", p)
        (out,) = run_experiment(cfg, [0], methods)
        finals = train_one(cfg, 0, methods)
        train_set, test, _, test_idx = split_one(cfg, 0)
        spec = model_start(cfg, 0, train_set, 1.0)[0]
        noise = eval_noise(cfg, 0, spec)
        d, bins = cfg.personalization.divergence, cfg.eval.ece_bins
        lambdas = [None] if fed is self.FEDAVG else cfg.personalization.lambdas
        for (rows, _), final in zip(out, finals):
            k = len(final["locals"])
            assert len(rows) == k + 1 + 2 * k * len(lambdas)
            for row in rows:
                k, lam = row["client_id"], row["lambda"]
                if row["setting"].startswith("GM") or lam == 0.0:
                    stack = final["global"][None]
                elif lam is None or lam == math.inf:
                    stack = final["locals"][k][None]
                else:
                    stack = project(d, final["global"][None], final["locals"][k][None], [lam])[0]
                probs = predict_proba_mc(spec, [stack], test.inputs, noise)
                if row["setting"].endswith("GD"):
                    ((ref,),) = metrics_of(probs, test.labels, bins)
                    assert [[ref]] == evaluate(spec, [stack], test, noise, bins)
                else:
                    rows_k = test_idx[k]
                    ((ref,),) = metrics_of(probs[:, rows_k], test.labels[rows_k], bins)
                assert {m: row[m] for m in ref} == ref, row


class TestScoringMemory:
    """At one-job blocks scoring holds no more than it did when posteriors
    were scored as objects, one ``evaluate`` list of them per test set: that
    code's scoring peaked at 7,069,562 to 7,069,621 traced bytes on this
    config in three runs, measured as this test measures it."""

    PARENT_PEAK = 7_069_562

    def test_peak_traced_allocation(self, monkeypatch):
        cfg = make_cfg(
            dataset=DatasetCfg(kind="synth", classes=10, dim=784, n_per_class=40, spread=0.1),
            model=ModelCfg(hidden=(100,)),
            partition=PartitionCfg(n_clients=8, beta=0.5, min_shard=5),
            optimizer=OptimizerCfg(lr_initial=2.0, lr_final=0.2, h0=20.0),
            federation=FederationCfg(rounds=1, local_epochs=1, batch_size=64),
            eval=EvalCfg(mc_samples=4),
        )
        p = models.param_count(models.MlpSpec((784, 100, 10)))
        monkeypatch.setattr(federation, "GROUP_PARAMS", p)  # one job per block
        score, peaks = federation._score, []

        def traced(*args):
            tracemalloc.start()
            try:
                return score(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(federation, "_score", traced)
        run_one(cfg, 0)
        assert len(peaks) == 1
        assert peaks[0] <= self.PARENT_PEAK


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

        def recording(jobs, train_set, *args):
            trained.extend(np.unique(train_set.labels[idx]).tolist() for _, idx, _, _ in jobs)
            return client_update(jobs, train_set, *args)

        monkeypatch.setattr(federation, "client_update", recording)
        return incremental_sweep(cfg, [0]), trained

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

    def test_rows_equal_stacks_of_one(self, monkeypatch):
        # each mixture's row is evaluate on it alone, as a stack of one, on
        # the pooled test set with the two tasks' test rows as groups
        cfg = self.small_cfg(w_grid=(0.0, 0.3, 1.0))
        mixtures, calls = [], []

        def mixing(method, posteriors, weights):
            mixtures.append(aggregate(method, posteriors, weights))
            return mixtures[-1]

        def scoring(spec, posts, ds, noise, bins, groups=()):
            calls.append((spec, ds, noise, bins, groups))
            return evaluate(spec, posts, ds, noise, bins, groups)

        monkeypatch.setattr(federation, "aggregate", mixing)
        monkeypatch.setattr(federation, "evaluate", scoring)
        rows = incremental_sweep(cfg, [0])
        assert len(mixtures) == len(rows) == 3
        ((spec, ds, noise, bins, groups),) = calls
        _, test = build_data(cfg)
        assert np.array_equal(ds.inputs, test.inputs) and np.array_equal(ds.labels, test.labels)
        tasks = [np.flatnonzero(test.labels < 2), np.flatnonzero(test.labels >= 2)]
        assert [g.tolist() for g in groups] == [t.tolist() for t in tasks]
        for row, mixture in zip(rows, mixtures):
            (_, *refs) = evaluate(spec, [mixture[None]], test, noise, bins, groups)[0]
            for ref, task in zip(refs, "ab"):
                assert {m: row[f"{m}_{task}"] for m in ref} == ref

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="split_class"):
            incremental_sweep(self.small_cfg(w_grid=(0.5,), split_class=0), [0])

    def test_invalid_weight(self):
        # a w the parser would reject still fails: 1 - w is a negative
        # weight, reported as a failure of the merge of that seed
        with pytest.raises(RunError, match="^merge and scoring, seed 0: negative weight"):
            incremental_sweep(self.small_cfg(w_grid=(1.5,)), [0])

    def test_endpoint_specialization(self):
        # w=0 keeps task-A's posterior, w=1 keeps task-B's; B trains after A
        cfg = bench_cfg(
            dataset=DatasetCfg(kind="synth", classes=4, dim=2, n_per_class=150, spread=0.25),
            incremental=IncrementalCfg(w_grid=(0.0, 1.0)),
        )
        a_end, b_end = incremental_sweep(cfg, [0])
        assert a_end["acc_a"] > b_end["acc_a"]
        assert b_end["acc_b"] > a_end["acc_b"]

    def test_seeds_equal_one_seed_sweeps(self, monkeypatch):
        """A sweep over several seeds gives the rows of one sweep per seed, in
        seed order: in one pass, in passes of two seeds, and one seed per pass
        (also with one job per lockstep group on two threads). The data is
        built once however many passes there are."""
        cfg = self.small_cfg(w_grid=(0.0, 0.5, 1.0))
        seeds = [2, 0, 1]
        alone = [row for seed in seeds for row in incremental_sweep(cfg, [seed])]
        p = models.param_count(models.MlpSpec((2, *cfg.model.hidden, 4)))
        two_threads = dataclasses.replace(cfg.federation, threads=2)
        threaded = dataclasses.replace(cfg, federation=two_threads)
        built, build_data = [], federation.build_data
        monkeypatch.setattr(federation, "build_data", lambda c: built.append(c) or build_data(c))
        rounds, train_round = [], federation._train_round
        monkeypatch.setattr(
            federation, "_train_round", lambda *args: rounds.append(1) or train_round(*args)
        )
        settings = [(1 << 16, cfg, 1), (2 * p, cfg, 2), (p, cfg, 3), (1, threaded, 3)]
        for cap, run_cfg, passes in settings:
            monkeypatch.setattr(federation, "GROUP_PARAMS", cap)
            built.clear()
            rounds.clear()
            assert incremental_sweep(run_cfg, seeds) == alone
            assert len(built) == 1
            assert len(rounds) == 2 * passes  # one round per task and pass

    def test_failing_pass_replays_seed_by_seed(self, monkeypatch):
        """A failing pass raises what a seed-by-seed loop would: seed 1 fails
        task A here, but seed 0, which runs alone first, fails task B."""
        train_round = federation._train_round
        fails = {1: 1, 2: 0}  # per round, the seed whose job fails in it

        def failing(broadcasts, lanes, train_set, cfg, lrs, spec, round_index):
            seeds = [seed for seed, _, _ in lanes]
            if fails[round_index] in seeds:
                raise RunError(round_index, 0, ValueError(f"seeds {seeds}"))
            return train_round(broadcasts, lanes, train_set, cfg, lrs, spec, round_index)

        monkeypatch.setattr(federation, "_train_round", failing)
        with pytest.raises(RunError, match=r"^round 2, client 0: seeds \[0\]$"):
            incremental_sweep(self.small_cfg(w_grid=(0.5,)), [0, 1])
