"""Round-based federated simulation over exchanged posteriors, in three
stages that every command composes:

- set up: ``setup`` alone builds a seed's data and its shards (one per
  client, or per task for ``incremental_sweep``) with their sizes and
  label counts; ``model_start`` builds the spec, the initial posterior and
  the learning rates;
- train: each round of ``train`` broadcasts the global posterior, trains
  every client's private shard and aggregates the locals on the server,
  which sees posteriors and weights only. Methods trained side by side
  share round 1; afterwards each distinct broadcast posterior trains once
  per client. A round's (posterior, client) jobs train in lockstep groups
  (``client_update``), so a narrow model takes one stacked gradient and
  optimizer call per step for all of them;
- score: ``_evaluate_all`` works through the (method, client) jobs in
  blocks of the training group size. A block personalizes each of its local
  posteriors with one ``project`` call, which returns the two-point
  projections between the global and that local posterior for the whole
  lambda grid from one stacked barycenter, and scores the block's
  posteriors with one ``evaluate`` call per test set; its projections are
  freed before the next block is projected. A narrow model's jobs form one
  block, so every posterior of every method on one test set is scored in
  one call.

``run_experiment`` returns each method's ``metrics.csv`` rows and
``rounds_<seed>.json`` payload as plain dicts. ``run`` writes every row,
``sweep-lambda`` reads PM-LD and PM-GD and ``compare-agg`` GM-GD, yet all
four settings are scored: perfbench's coverage guard and
tests/test_harness_contract.py require ``project`` calls on the
compare-agg workload.

Randomness is organized as counter-based streams: the training stream for
(round, client) is seeded with [master_seed, round, client], so sequential
and threaded client execution produce bit-identical results. Auxiliary
streams (data generation, splitting, partitioning, init, eval) hang off the
master seed through fixed tags.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import models
from .config import ConfigError, ExperimentConfig
from .data import (
    Dataset,
    load_idx,
    partition_indices,
    partition_with_draw,
    synth_blobs,
    train_test_split,
)
from .evaluation import evaluate
from .geometry import (
    AggregationMethod,
    DiagGaussian,
    aggregate,
    project,
    projection_divergence,
)
from .models import MlpSpec, RowError
from .variopt import (
    ivon_restart,
    ivon_step,
    linear_lr,
    posterior_of,
    sample_params,
)

_DATA_TAG = 1
_SPLIT_TAG = 2
_PARTITION_TAG = 3
_INIT_TAG = 4
_EVAL_TAG = 5

_TEST_SHARD_ATTEMPTS = 20  # partition seeds tried until no client's test shard is empty

# Parameters one lockstep group of training jobs may hold: a round's jobs
# train max(1, GROUP_PARAMS // P) at a time, so a 51-parameter model trains
# all of them together and a 79,510-parameter one each job alone.
GROUP_PARAMS = 1 << 16


def derived_seed(master_seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([master_seed, tag]).generate_state(1)[0])


def client_rng(master_seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """Training stream for one client in one round; schedule-independent."""
    return np.random.default_rng([master_seed, round_index, client_id])


class RunError(RuntimeError):
    """Failure during a federated run, tagged with round and client context."""

    def __init__(self, round_index: int, client_id: int | None, cause: BaseException):
        where = f"round {round_index}" + ("" if client_id is None else f", client {client_id}")
        super().__init__(f"{where}: {cause}")
        self.round_index = round_index
        self.client_id = client_id


@contextmanager
def failure_context(round_index: int, client_id: int | None = None):
    """Re-raise a failure in the block as RunError(round_index, client_id).

    Round 0 is data set-up. A ConfigError passes through unwrapped, so a bad
    config still exits 2.
    """
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise RunError(round_index, client_id, exc) from exc


def client_update(
    priors: list[DiagGaussian],
    shards: list[Dataset],
    client_ids: list[int],
    cfg: ExperimentConfig,
    lrs: list[float],
    spec: MlpSpec,
    seed: int,
    round_index: int,
    frozen_var: float | None = None,
) -> list[tuple[DiagGaussian, list[float]]]:
    """Local phases of a group of jobs, trained in lockstep; one epoch per
    entry of ``lrs``. Job j trains client ``client_ids[j]`` on ``shards[j]``
    from the broadcast posterior ``priors[j]``.

    A job draws from client_rng(seed, round_index, client) exactly as it
    would alone: one permutation of its shard per epoch, then each step's
    posterior draws. It reads cfg.optimizer and cfg.federation.batch_size.
    The optimizer restarts at the prior mean with the Hessian rebuilt from
    the prior variance under the job's own (N_k = shard.n, delta); gradient
    momentum and the step counter start from zero, so no optimizer state
    crosses rounds. Each step averages opt.mc_train_samples posterior
    draws. With ``frozen_var`` set (FedAvg) the one draw is the mean, the
    Hessian stays at h0, and the local posterior carries ``frozen_var`` on
    every coordinate.

    Returns one (local posterior, per-epoch mean minibatch NLL) per job,
    each bit-identical whichever jobs share its group. If jobs fail, the
    failure of the lowest-indexed one (which may fail later than others) is
    raised as RunError(round_index, its client); any other failure as
    RunError(round_index, client_ids[0]).
    """
    with failure_context(round_index, client_ids[0]):
        results, failure = _lockstep(
            priors, shards, client_ids, cfg, lrs, spec, seed, round_index, frozen_var
        )
    if failure is None:
        return results
    j, message = failure
    if j > 0:
        # a job before j may fail later than j did; this raises if one does
        client_update(
            priors[:j], shards[:j], client_ids[:j], cfg, lrs, spec, seed, round_index, frozen_var
        )
    raise RunError(round_index, client_ids[j], ValueError(message))


def _lockstep(priors, shards, client_ids, cfg, lrs, spec, seed, round_index, frozen_var):
    """client_update's training loop: (results, None), or (None, (job,
    message)) for the lowest-indexed job among the first to fail.

    The jobs' optimizer states are the rows of one stack, largest shard
    first, so at each step the jobs still inside their epoch's
    ceil(n_k / B) steps are a prefix of the stack; the others sit out with
    their rows untouched. Each step samples, takes gradients and steps the
    optimizer for that prefix in one call each.
    """
    opt = cfg.optimizer
    batch_size = cfg.federation.batch_size
    deterministic = frozen_var is not None
    samples = 1 if deterministic else opt.mc_train_samples
    jobs = sorted(range(len(shards)), key=lambda j: -shards[j].n)
    sizes = np.array([shards[j].n for j in jobs])
    rngs = [client_rng(seed, round_index, client_ids[j]) for j in jobs]
    state = ivon_restart([priors[j] for j in jobs], opt, sizes.tolist(), frozen=deterministic)
    dim = state.mean.shape[1]
    # every job's rows in one array, so that a step gathers its batch in one
    # index; a job training alone uses its shard's arrays as they are
    inputs, labels = shards[jobs[0]].inputs, shards[jobs[0]].labels
    if len(jobs) > 1:
        inputs = np.concatenate([shards[j].inputs for j in jobs])
        labels = np.concatenate([shards[j].labels for j in jobs])
    offsets = np.cumsum(sizes) - sizes
    steps = -(-sizes // batch_size)
    draws = np.empty((len(jobs), samples, dim))
    nll = np.empty((len(jobs), steps[0]))  # per job and step of an epoch
    traces = [[] for _ in jobs]
    for lr in lrs:
        # each job's minibatches in order, as rows of inputs; the padding
        # after a job's rows only fills out the stacked batch
        order = np.zeros((len(jobs), steps[0] * batch_size), dtype=np.int64)
        for r, (rng, n) in enumerate(zip(rngs, sizes)):
            order[r, :n] = offsets[r] + rng.permutation(n)
        for t in range(steps[0]):
            active = int(np.count_nonzero(steps > t))
            counts = np.minimum(sizes[:active] - t * batch_size, batch_size)
            rows = order[:active, t * batch_size : t * batch_size + counts[0]]
            view = state[:active]
            if deterministic:
                thetas = view.mean[:, None]
            else:
                thetas = sample_params(view, rngs[:active], out=draws[:active])
            if samples > 1:
                rows, counts = np.repeat(rows, samples, axis=0), np.repeat(counts, samples)
            batch = models.Batch(inputs=inputs[rows], labels=labels[rows], counts=counts)
            try:
                losses, grads = models.loss_and_grad(spec, thetas.reshape(-1, dim), batch)
            except RowError as exc:
                return None, min((jobs[r // samples], m) for r, m in exc.errors.items())
            try:
                ivon_step(
                    view, grads.reshape(thetas.shape), thetas, lr, update_hessian=not deterministic
                )
            except RowError as exc:
                return None, min((jobs[r], m) for r, m in exc.errors.items())
            # each job's mean over its draws, summed in draw order
            mean_loss = np.zeros(active)
            for s in range(samples):
                mean_loss += losses[s::samples] / samples
            nll[:active, t] = mean_loss
        # steps never increases down the stack, so equal counts are runs
        for lo, hi, n_steps in models._runs(steps):
            for trace, mean in zip(traces[lo:hi], np.mean(nll[lo:hi, :n_steps], axis=1)):
                trace.append(float(mean))

    if deterministic:
        posts = [DiagGaussian(mean=m.copy(), var=np.full(dim, frozen_var)) for m in state.mean]
    else:
        posts = posterior_of(state)
    results = [None] * len(jobs)
    for j, post, trace in zip(jobs, posts, traces):
        results[j] = (post, trace)
    return results, None


def server_aggregate(
    method: AggregationMethod, posteriors: list[DiagGaussian], weights: np.ndarray
) -> DiagGaussian:
    """Fuse the clients' local posteriors; the server sees posteriors and weights only."""
    return aggregate(method, posteriors, weights)


def build_data(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the train/test pair; the dataset is fixed across master seeds.

    Synthetic draws and the train/test split come from dataset.seed so reruns
    with different master seeds vary partitioning, initialization, and
    training noise on identical data, mirroring a fixed benchmark split. IDX
    files share one class count, so a test file missing the top class still
    pairs with its training file.
    """
    dcfg = cfg.dataset
    if dcfg.kind == "synth":
        ds = synth_blobs(
            n_per_class=dcfg.n_per_class,
            classes=dcfg.classes,
            dim=dcfg.dim,
            spread=dcfg.spread,
            seed=derived_seed(dcfg.seed, _DATA_TAG),
        )
        return train_test_split(ds, dcfg.test_fraction, derived_seed(dcfg.seed, _SPLIT_TAG))
    train = load_idx(dcfg.train_images, dcfg.train_labels)
    test = load_idx(dcfg.test_images, dcfg.test_labels)
    classes = max(train.classes, test.classes)
    train = dataclasses.replace(train, classes=classes)
    test = dataclasses.replace(test, classes=classes)
    if dcfg.limit:
        train = train.subset(np.arange(min(train.n, dcfg.limit)))
        test = test.subset(np.arange(min(test.n, dcfg.limit)))
    return train, test


def partition_both(
    cfg: ExperimentConfig, train: Dataset, test: Dataset, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Train and test shard indices for every client.

    partition_indices already resamples the train draw until it meets
    min_shard, so its failure propagates at once. Only an empty test shard
    moves on to the next partition seed.
    """
    base = derived_seed(seed, _PARTITION_TAG)
    pcfg = cfg.partition
    for attempt in range(_TEST_SHARD_ATTEMPTS):
        train_idx, draw = partition_indices(train, pcfg, base + attempt)
        if pcfg.shared_test_draw:
            test_idx = partition_with_draw(test, draw, base + attempt)
        else:
            test_pcfg = dataclasses.replace(pcfg, min_shard=1)
            test_idx, _ = partition_indices(test, test_pcfg, base + attempt + 1)
        if min(len(s) for s in test_idx) >= 1:
            return train_idx, test_idx
    raise ValueError(
        "could not partition train and test jointly: "
        f"a test shard was empty in all {_TEST_SHARD_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class Setup:
    """One seed's data and its shards, one per client (or per task)."""

    train: Dataset
    test: Dataset
    train_idx: list  # per shard, its indices into train
    test_idx: list
    train_shards: list
    test_shards: list
    shards: list  # per shard, {client, train_size, test_size, label_counts}


def setup(cfg: ExperimentConfig, seed: int, split=None) -> Setup:
    """Build the data and split it into shards, raising any failure as
    RunError at round 0. ``split(cfg, train, test, seed)`` gives each
    shard's train and test indices; by default ``partition_both`` gives one
    shard per client."""
    with failure_context(0):
        train, test = build_data(cfg, seed)
        train_idx, test_idx = (split or partition_both)(cfg, train, test, seed)
    train_shards = [train.subset(i) for i in train_idx]
    shards = [
        {
            "client": k,
            "train_size": shard.n,
            "test_size": len(te),
            "label_counts": shard.label_counts().tolist(),
        }
        for k, (shard, te) in enumerate(zip(train_shards, test_idx))
    ]
    test_shards = [test.subset(i) for i in test_idx]
    return Setup(train, test, train_idx, test_idx, train_shards, test_shards, shards)


def fedavg_var(cfg: ExperimentConfig) -> float | None:
    """FedAvg's frozen posterior variance; None when clients train IVON posteriors."""
    fed = cfg.federation
    return fed.frozen_var if fed.algorithm == "fedavg" else None


def model_start(
    cfg: ExperimentConfig, seed: int, ds: Dataset, ess: float, frozen_var: float | None = None
) -> tuple[MlpSpec, DiagGaussian, list[float]]:
    """What training on ``ds`` starts from: the model spec, the initial
    posterior at θ0, and one learning rate per epoch of all rounds (decayed
    linearly from lr_initial to lr_final).

    The initial posterior is θ0 with the optimizer's variance at h0 for
    ``ess`` examples, 1/(ess (h0 + delta)), or, with ``frozen_var`` set
    (FedAvg), that variance everywhere.
    """
    spec = MlpSpec(layer_sizes=(ds.dim, *cfg.model.hidden, ds.classes))
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    opt = cfg.optimizer
    var = 1.0 / (ess * (opt.h0 + opt.weight_decay)) if frozen_var is None else frozen_var
    start = DiagGaussian(mean=theta0, var=np.full(theta0.shape[0], var))
    epochs = cfg.federation.rounds * cfg.federation.local_epochs
    lrs = [linear_lr(opt.lr_initial, opt.lr_final, e, max(epochs - 1, 1)) for e in range(epochs)]
    return spec, start, lrs


def eval_noise(cfg: ExperimentConfig, seed: int, spec: MlpSpec) -> np.ndarray:
    """The (mc_samples, P) standard normals that every evaluation of a seed
    shares; built after training, where a (mc_samples, P) block held through
    the rounds raises peak memory at wide P."""
    rng = np.random.default_rng(derived_seed(seed, _EVAL_TAG))
    return rng.standard_normal((cfg.eval.mc_samples, models.param_count(spec)))


def _train_round(
    broadcasts: list[DiagGaussian],
    train_shards: list[Dataset],
    cfg: ExperimentConfig,
    lrs: list[float],
    spec: MlpSpec,
    seed: int,
    round_index: int,
    frozen_var: float | None,
) -> list[list[tuple[DiagGaussian, list[float]]]]:
    """Every client's (local posterior, NLL trace) from each broadcast
    posterior, in order; each distinct posterior trains once (keys are ids,
    and ``broadcasts`` keeps each keyed posterior alive). The (posterior,
    client) jobs train in lockstep groups of max(1, GROUP_PARAMS // P),
    one ``client_update`` call per group."""
    distinct = list({id(p): p for p in broadcasts}.values())
    jobs = [(p, shard, k) for p in distinct for k, shard in enumerate(train_shards)]
    size = max(1, GROUP_PARAMS // models.param_count(spec))
    groups = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    args = (
        *([[job[field] for job in group] for group in groups] for field in range(3)),
        repeat(cfg), repeat(lrs), repeat(spec), repeat(seed), repeat(round_index),
        repeat(frozen_var),
    )
    if cfg.federation.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # sequential runs skip its import

        with ThreadPoolExecutor(max_workers=cfg.federation.threads) as pool:
            results = list(pool.map(client_update, *args))
    else:
        results = list(map(client_update, *args))
    results = [result for group in results for result in group]
    k = len(train_shards)
    trained = {id(p): results[i * k : (i + 1) * k] for i, p in enumerate(distinct)}
    return [trained[id(p)] for p in broadcasts]


def train(
    cfg: ExperimentConfig,
    seed: int,
    train_shards: list[Dataset],
    spec: MlpSpec,
    lrs: list[float],
    globals_: list[DiagGaussian],
    methods: Sequence[AggregationMethod],
) -> list[dict]:
    """R rounds of broadcast/train/aggregate under each aggregation method
    from its global posterior in ``globals_``, which is updated in place so
    that a replaced posterior held nowhere else is freed. One dict per
    method, in order: its ``method``, final ``global`` posterior, the
    clients' final ``locals``, and in ``rounds`` one ``{round, nll_traces,
    divergences, agg_seconds}`` per round (each client's per-epoch mean
    minibatch NLL and projection_divergence from local to new global).

    A round trains each distinct broadcast posterior once per client, so
    round 1, where every method starts from the same posterior, trains
    once, and a method's dict equals training that method alone. A round's
    locals are dropped once they are aggregated and their divergences
    recorded, before the next round trains, so at wide P one round of local
    posteriors is alive at a time; the last round's are returned.
    """
    fed = cfg.federation
    frozen_var = fedavg_var(cfg)
    sizes = np.array([shard.n for shard in train_shards], dtype=np.float64)
    weights = sizes / sizes.sum()
    div = cfg.personalization.divergence
    rounds = [[] for _ in methods]
    for r in range(1, fed.rounds + 1):
        locals_ = None  # round r-1's locals go before round r trains
        round_lrs = lrs[(r - 1) * fed.local_epochs : r * fed.local_epochs]
        trained = _train_round(globals_, train_shards, cfg, round_lrs, spec, seed, r, frozen_var)
        locals_ = [[p for p, _ in own] for own in trained]
        traces = [[trace for _, trace in own] for own in trained]
        del trained
        for i, method in enumerate(methods):
            t_agg = time.perf_counter()
            with failure_context(r):
                globals_[i] = server_aggregate(method, locals_[i], weights)
            agg_seconds = time.perf_counter() - t_agg
            rounds[i].append(
                {
                    "round": r,
                    "nll_traces": traces[i],
                    "divergences": [
                        float(projection_divergence(div, p, globals_[i])) for p in locals_[i]
                    ],
                    "agg_seconds": agg_seconds,
                }
            )
    return [
        {"method": m, "global": g, "locals": loc, "rounds": rec}
        for m, g, loc, rec in zip(methods, globals_, locals_, rounds)
    ]


def run_experiment(
    cfg: ExperimentConfig, seed: int, methods: Sequence[AggregationMethod]
) -> list[tuple[list[dict], dict]]:
    """Set up, train and score one seed under each aggregation method; per
    method, in order, its ``metrics.csv`` rows and ``rounds_<seed>.json``
    payload, equal to a run's with that method alone.

    The rows are per client for the four settings (global or personalized
    model, on local or pooled test data), with the personalization sweep
    over the lambda grid applied to the final posteriors; the GM-GD row's
    client_id is "global".
    """
    t0 = time.perf_counter()
    s = setup(cfg, seed)
    sizes = [shard["train_size"] for shard in s.shards]
    spec, start, lrs = model_start(cfg, seed, s.train, float(np.mean(sizes)), fedavg_var(cfg))
    globals_ = [start] * len(methods)
    del start  # globals_ alone holds it, so it is freed once round 1 replaces it
    finals = train(cfg, seed, s.train_shards, spec, lrs, globals_, methods)
    test_shards, test, shards = s.test_shards, s.test, s.shards
    del s  # the train set and its shards go before scoring
    metrics = _evaluate_all(cfg, seed, spec, finals, test_shards, test)
    shared = {
        "seed": seed,
        "algorithm": cfg.federation.algorithm,
        "client_sizes": sizes,
        "client_label_counts": [shard["label_counts"] for shard in shards],
        "wall_seconds": time.perf_counter() - t0,
    }
    return [
        (rows, {**shared, "aggregation": final["method"].value.lower(), "rounds": final["rounds"]})
        for final, rows in zip(finals, metrics)
    ]


def _evaluate_all(
    cfg: ExperimentConfig,
    seed: int,
    spec: MlpSpec,
    finals: list[dict],
    test_shards: list[Dataset],
    test_union: Dataset,
) -> list[list[dict]]:
    """Each method's ``metrics.csv`` rows from its final posteriors (a
    ``train`` dict): GM-LD per client, GM-GD, then PM-LD and PM-GD per
    lambda and client.

    The (method, client) jobs are projected and scored in blocks of the
    training group size, max(1, GROUP_PARAMS // P), by ``_score_block``, so
    only one block's finite-lambda projections are alive at a time: a
    51-parameter model scores every job in one block, one ``evaluate`` call
    per test set, and a 79,510-parameter one projects and scores one client
    at a time. Each (posterior, test set) pair is scored once: the global
    and local posteriors, which lambda = 0 and lambda = inf return, keep
    their scores in a memo across blocks.
    """
    noise = eval_noise(cfg, seed, spec)
    bins = cfg.eval.ece_bins
    fedavg = cfg.federation.algorithm == "fedavg"
    lambdas = [None] if fedavg else cfg.personalization.lambdas

    # Memo keys are (id(posterior), id(test set)) of the posteriors in
    # ``kept``: finals and the caller keep them and the test sets alive until
    # this function returns, so none of these ids is reused. A block-local
    # projection's id may be reused once the block is freed, so its scores
    # never enter the memo.
    kept = {id(p) for final in finals for p in (final["global"], *final["locals"])}
    memo: dict[tuple[int, int], dict[str, float]] = {}
    jobs = [(final["global"], p_k, k) for final in finals for k, p_k in enumerate(final["locals"])]
    size = max(1, GROUP_PARAMS // models.param_count(spec))
    personal = []  # per job: its (PM-LD, PM-GD) scores at each lambda
    for lo in range(0, len(jobs), size):
        block = jobs[lo : lo + size]
        personal += _score_block(cfg, spec, noise, block, test_shards, test_union, memo, kept)

    clients = len(test_shards)
    method_rows = []
    for i, final in enumerate(finals):
        g = id(final["global"])
        plan = [("GM-LD", None, k, memo[g, id(shard)]) for k, shard in enumerate(test_shards)]
        plan.append(("GM-GD", None, "global", memo[g, id(test_union)]))
        own = personal[i * clients : (i + 1) * clients]
        for j, lam in enumerate(lambdas):
            for k, scores in enumerate(own):
                plan += [("PM-LD", lam, k, scores[j][0]), ("PM-GD", lam, k, scores[j][1])]
        method = "fedavg" if fedavg else final["method"].value.lower()
        method_rows.append(
            [
                {
                    "setting": setting,
                    "method": method,
                    "lambda": lam,
                    "client_id": client_id,
                    "seed": seed,
                    **scores,
                    "mc_samples": cfg.eval.mc_samples,
                    "bins": bins,
                }
                for setting, lam, client_id, scores in plan
            ]
        )
    return method_rows


def _score_block(cfg, spec, noise, jobs, test_shards, test_union, memo, kept):
    """Per (global, local, client) job: the (PM-LD, PM-GD) scores of its
    personalized posterior at each lambda (under FedAvg, of its local one).

    Each job's local posterior is projected for the whole lambda grid in one
    ``project`` call. Each test set the block uses then gets one
    ``evaluate`` call, on every distinct posterior of the block, global ones
    included, that has no score on it in ``memo`` yet. New scores of
    posteriors whose ids are in ``kept`` join the memo. The finite-lambda
    projections live in this frame alone, so they are freed on return.
    """
    if cfg.federation.algorithm == "fedavg":
        personal = [[p_k] for _, p_k, _ in jobs]
    else:
        d, lambdas = cfg.personalization.divergence, cfg.personalization.lambdas
        personal = [project(d, p_g, p_k, lambdas) for p_g, p_k, _ in jobs]
    wanted: dict[int, tuple[Dataset, dict[int, DiagGaussian]]] = {}
    for (p_g, _, k), posteriors in zip(jobs, personal):
        for ds in (test_shards[k], test_union):
            for p in (p_g, *posteriors):
                if (id(p), id(ds)) not in memo:
                    wanted.setdefault(id(ds), (ds, {}))[1].setdefault(id(p), p)
    scores = dict(memo)
    for ds_id, (ds, posteriors) in wanted.items():
        scored = evaluate(spec, list(posteriors.values()), ds, noise, cfg.eval.ece_bins)
        scores.update(((p_id, ds_id), s) for p_id, s in zip(posteriors, scored))
    memo.update((key, s) for key, s in scores.items() if key[0] in kept)
    return [
        [(scores[id(p), id(test_shards[k])], scores[id(p), id(test_union)]) for p in posteriors]
        for (_, _, k), posteriors in zip(jobs, personal)
    ]


def _task_split(
    cfg: ExperimentConfig, train: Dataset, test: Dataset, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Train and test indices of task A (classes below split_class) and
    task B (the rest); a ``setup`` split that ignores the seed."""
    classes = train.classes
    split_class = cfg.incremental.split_class
    if split_class is None:
        split_class = classes // 2
    if not 0 < split_class < classes:
        raise ConfigError(
            "incremental.split_class", f"must split {classes} classes into two groups"
        )
    tasks = {"A": np.arange(split_class), "B": np.arange(split_class, classes)}
    split = ([], [])
    for indices, ds, what in zip(split, (train, test), ("train", "test")):
        for task, keep in tasks.items():
            indices.append(np.flatnonzero(np.isin(ds.labels, keep)))
            if indices[-1].size == 0:
                missing = f"task {task} {what} set has no examples of classes {keep.tolist()}"
                raise ValueError(missing)
    return split


def incremental_sweep(cfg: ExperimentConfig, seed: int) -> list[dict]:
    """Two-task sequential training, then a barycentric model merge.

    Task A holds classes below ``cfg.incremental.split_class`` (default: the
    lower half), task B the rest; ``setup`` makes them its two shards.
    Posterior B starts from posterior A (task-A data is gone by then). The
    sweep mixes A and B with weights (1-w, w) for each w of
    ``cfg.incremental.w_grid`` under the configured aggregation, then scores
    all the mixtures on each task test set in one ``evaluate`` call. Each w
    gives one ``incremental_tradeoff.csv`` row, whose ``_a`` and ``_b``
    columns hold the scores on task A and task B. Task A trains as round 1
    and task B as round 2, both as client 0, so a failure names its task.
    Both tasks train IVON posteriors whatever ``federation.algorithm`` says;
    the ``incremental`` command rejects a FedAvg config.
    """
    s = setup(cfg, seed, _task_split)
    (train_a, train_b), (test_a, test_b) = s.train_shards, s.test_shards
    spec, start, lrs = model_start(cfg, seed, s.train, train_a.n)
    ((post_a, _),) = client_update([start], [train_a], [0], cfg, lrs, spec, seed, 1)
    ((post_b, _),) = client_update([post_a], [train_b], [0], cfg, lrs, spec, seed, 2)
    noise = eval_noise(cfg, seed, spec)

    method = cfg.federation.aggregation
    w_grid = cfg.incremental.w_grid
    mixtures = [aggregate(method, [post_a, post_b], [1.0 - w, w]) for w in w_grid]
    on_a, on_b = (evaluate(spec, mixtures, ds, noise, cfg.eval.ece_bins) for ds in (test_a, test_b))
    return [
        {
            "seed": seed,
            "w": float(w),
            **{f"{metric}_a": v for metric, v in a.items()},
            **{f"{metric}_b": v for metric, v in b.items()},
        }
        for w, a, b in zip(w_grid, on_a, on_b)
    ]
