"""Round-based federated simulation over exchanged posteriors, in three
stages that every command composes:

- set up: ``build_data`` builds the pooled train and test sets once per
  pass, and ``partition_both`` gives each seed's shards as index arrays
  into them (one per client, or per task for ``incremental_sweep``);
  ``model_start`` builds the spec, the initial posterior and the learning
  rates;
- train: each round of ``train`` broadcasts the global posterior of each
  ``(seed, method, train_idx)`` lane, trains every client on its private
  rows of the pooled train set and aggregates the locals on the server,
  which sees posteriors and weights only. A seed's methods share round 1;
  afterwards each distinct broadcast posterior trains once per client. A
  round's ``(prior, train_idx, client, seed)`` jobs of all lanes train in
  lockstep groups (``client_update``), which gather each minibatch
  straight from the pooled arrays, so a narrow model takes one stacked
  gradient and optimizer call per step for all seeds and methods. The
  server step then takes one ``server_aggregate`` call per method, on
  (L, P) stacks of the method's lanes, and one ``projection_divergence``
  call per client stack;
- score: ``_score`` forwards each of a seed's posteriors once, on the
  pooled test set, and reads each client's local metrics from the rows of
  its test shard in that same predictive. One ``evaluate`` call scores the
  plain global and local posteriors; then the (method, client) jobs are
  projected onto the whole lambda grid in blocks of the training group
  size, one (J, L', P) stack and one ``evaluate`` call per block.

Training and scoring read one data representation: the pooled sets and
each client's (or task's) index arrays into them. No row is copied out of
a pooled set.

``fedavg_var`` alone reads from the config whether clients train FedAvg.

A job that fails keeps stepping, on meaningless values that touch no
other job, to the end of its round; its group then raises the first
failure of its lowest-indexed failed job, and no job is trained twice.
The one replay left is per seed: ``_in_passes`` runs the seeds in passes
for every command, calling a pass on the seeds not yet done, and if the
pass fails, replays them one at a time. ``run_experiment``'s passes run
these stages and return each seed's and method's ``metrics.csv`` rows and
``rounds_<seed>.json`` payload; ``incremental_sweep``'s train one round
per task and score each seed's merges on the pooled test set, the tasks'
test rows as its row groups. ``run`` writes every row, ``sweep-lambda``
reads PM-LD and PM-GD and ``compare-agg`` only GM-GD. All four settings
are scored even so: perfbench's coverage guard and
tests/test_harness_contract.py require ``project`` calls on the
compare-agg workload (one per seed at P = 51).

Randomness is organized as counter-based streams: the training stream for
(round, client) is seeded with [master_seed, round, client], so a job's
bits do not depend on the threads or the jobs it trains beside. Auxiliary
streams (data generation, splitting, partitioning, init, eval) hang off the
master seed through fixed tags.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence
from contextlib import contextmanager

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
from .models import MlpSpec
from .variopt import (
    ivon_restart,
    ivon_step,
    linear_lr,
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
    """Failure during a federated run, tagged with round and client context;
    a failure after training names its stage instead of a round."""

    def __init__(self, round_index: int | str, client_id: int | None, cause: BaseException):
        where = round_index if isinstance(round_index, str) else f"round {round_index}"
        where += "" if client_id is None else f", client {client_id}"
        super().__init__(f"{where}: {cause}")
        self.round_index = round_index
        self.client_id = client_id


@contextmanager
def failure_context(round_index: int | str, client_id: int | None = None):
    """Re-raise a failure in the block as RunError(round_index, client_id).

    Round 0 is data set-up; scoring passes its stage and seed as a string,
    such as "scoring, seed 3". A ConfigError passes through unwrapped, so a
    bad config still exits 2.
    """
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise RunError(round_index, client_id, exc) from exc


def client_update(
    jobs: list[tuple[DiagGaussian, np.ndarray, int, int]],
    train_set: Dataset,
    cfg: ExperimentConfig,
    lrs: list[float],
    spec: MlpSpec,
    round_index: int,
) -> list[tuple[DiagGaussian, list[float]]]:
    """Local phases of a group of jobs, trained in lockstep; one epoch per
    entry of ``lrs``. A job ``(prior, train_idx, client, seed)`` trains
    client ``client`` of master seed ``seed`` on its shard, the rows
    ``train_idx`` of the pooled ``train_set``, from the broadcast posterior
    ``prior``. Each minibatch is gathered from the pooled arrays; the shard
    itself is never copied.

    A job draws from client_rng(seed, round_index, client) as it would
    alone: one permutation of its shard per epoch, then each step's
    posterior draws. It reads cfg.optimizer and cfg.federation.batch_size.
    The optimizer restarts at the prior mean with the Hessian rebuilt from
    the prior variance under the job's own (N_k = len(train_idx), delta);
    gradient momentum and the step counter start from zero, so no
    optimizer state crosses rounds. Each step averages opt.mc_train_samples posterior
    draws. Under FedAvg (``fedavg_var``) the one draw is the mean, the
    Hessian stays at h0, and the local posterior carries the frozen variance
    on every coordinate.

    The jobs' optimizer states are the rows of one stack, largest shard
    first, so at each step the jobs still inside their epoch's
    ceil(n_k / B) steps are a prefix of the stack; the others sit out with
    their rows untouched. Each step samples, takes gradients and steps the
    optimizer for that prefix in one call each.

    Returns one (local posterior, per-epoch mean minibatch NLL) per job,
    each bit-identical whichever jobs share its group; a local posterior is
    a read-only row of the group's final optimizer state. A job fails at its
    first NaN loss (non-finite logits) or failed optimizer step, and keeps
    stepping to the end of the round on meaningless values that touch no
    other row. The group then raises the first failure of its
    lowest-indexed failed job, which is what that job alone raises, as
    RunError(round_index, its client); any other failure as
    RunError(round_index, the first job's client).
    """
    opt = cfg.optimizer
    batch_size = cfg.federation.batch_size
    frozen_var = fedavg_var(cfg)
    deterministic = frozen_var is not None
    samples = 1 if deterministic else opt.mc_train_samples
    ranked = sorted(range(len(jobs)), key=lambda j: -len(jobs[j][1]))
    failed = {}  # job -> its first failure
    # a failed job's values warn as it trains on; its failure is recorded instead
    with failure_context(round_index, jobs[0][2]), np.errstate(all="ignore"):
        priors, shards, clients, seeds = zip(*(jobs[j] for j in ranked))
        sizes = np.array([len(idx) for idx in shards])
        rngs = [client_rng(seed, round_index, k) for seed, k in zip(seeds, clients)]
        state = ivon_restart(priors, opt, sizes.tolist(), frozen=deterministic)
        dim = state.mean.shape[1]
        steps = -(-sizes // batch_size)
        draws = np.empty((len(jobs), samples, dim))
        nll = np.empty((len(jobs), steps[0]))  # per job and step of an epoch
        traces = np.empty((len(jobs), len(lrs)))  # per job and epoch
        runs = models._runs(steps)  # the jobs of equal step counts are adjacent rows
        for e, lr in enumerate(lrs):
            # each job's minibatches in order, as rows of the pooled set; the
            # padding after a job's rows only fills out the stacked batch
            order = np.zeros((len(jobs), sizes[0]), dtype=np.int64)
            for r, (rng, idx) in enumerate(zip(rngs, shards)):
                order[r, : len(idx)] = idx[rng.permutation(len(idx))]
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
                batch = models.Batch(
                    inputs=train_set.inputs[rows], labels=train_set.labels[rows], counts=counts
                )
                losses, grads = models.loss_and_grad(spec, thetas.reshape(-1, dim), batch)
                for r in np.flatnonzero(np.isnan(losses)).tolist():
                    failed.setdefault(ranked[r // samples], "non-finite activation in forward pass")
                errors = ivon_step(
                    view, grads.reshape(thetas.shape), thetas, lr, update_hessian=not deterministic
                )
                for r, message in errors.items():
                    failed.setdefault(ranked[r], message)
                # each job's mean over its draws, summed in draw order
                mean_loss = np.zeros(active)
                for s in range(samples):
                    mean_loss += losses[s::samples] / samples
                nll[:active, t] = mean_loss
            for lo, hi, n_steps in runs:
                traces[lo:hi, e] = np.mean(nll[lo:hi, :n_steps], axis=1)
    if failed:
        j = min(failed)
        raise RunError(round_index, jobs[j][2], ValueError(failed[j]))

    if deterministic:
        state.var[...] = frozen_var  # the local posterior carries FedAvg's frozen variance
    # each job's local posterior is its row of the final state, not a copy;
    # this freezes the state's arrays in place, so no step may follow
    locals_ = DiagGaussian(mean=state.mean, var=state.var)
    traces = traces.tolist()
    return [(locals_[r], traces[r]) for r in np.argsort(ranked).tolist()]


def server_aggregate(
    method: AggregationMethod, posteriors: list[DiagGaussian], weights: np.ndarray
) -> DiagGaussian:
    """Fuse the clients' local posteriors; the server sees posteriors and
    weights only. ``posteriors`` holds one (L, P) stack per client, row l
    from lane l, and ``weights`` the (L, K) shard shares; returns the (L, P)
    stack of the lanes' global posteriors (``aggregate``)."""
    return aggregate(method, posteriors, weights)


def build_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The train/test pair that every master seed partitions, like a fixed
    benchmark split: synthetic draws and the split come from dataset.seed.
    IDX files share one class count, so a test file missing the top class
    still pairs with its training file; their images must be of one size."""
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
    if test.dim != train.dim:
        raise ConfigError(
            "dataset.test_images",
            f"images of {test.dim} pixels, but dataset.train_images holds images of {train.dim}",
        )
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
    """Train and test shard indices for every client: the test set is split
    with the train draw's proportions, so each client's test rows mirror its
    label skew.

    partition_indices already resamples the train draw until it meets
    min_shard, and raises a ConfigError on ``partition.min_shard`` if none
    does. Only an empty test shard moves on to the next partition seed.
    """
    base = derived_seed(seed, _PARTITION_TAG)
    for attempt in range(_TEST_SHARD_ATTEMPTS):
        train_idx, draw = partition_indices(train, cfg.partition, base + attempt)
        test_idx = partition_with_draw(test, draw, base + attempt)
        if min(len(s) for s in test_idx) >= 1:
            return train_idx, test_idx
    raise ValueError(
        "could not partition train and test jointly: "
        f"a test shard was empty in all {_TEST_SHARD_ATTEMPTS} attempts"
    )


def fedavg_var(cfg: ExperimentConfig) -> float | None:
    """FedAvg's frozen posterior variance; None when clients train IVON posteriors."""
    fed = cfg.federation
    return fed.frozen_var if fed.algorithm == "fedavg" else None


def model_start(
    cfg: ExperimentConfig, seed: int, ds: Dataset, ess: float
) -> tuple[MlpSpec, DiagGaussian, list[float]]:
    """What training on ``ds`` starts from: the model spec, the initial
    posterior at θ0, and one learning rate per epoch of all rounds (decayed
    linearly from lr_initial to lr_final).

    The initial posterior is θ0 with the optimizer's variance at h0 for
    ``ess`` examples, 1/(ess (h0 + delta)), or, under FedAvg, the frozen
    variance of ``fedavg_var`` everywhere.
    """
    spec = MlpSpec(layer_sizes=(ds.dim, *cfg.model.hidden, ds.classes))
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    opt = cfg.optimizer
    frozen_var = fedavg_var(cfg)
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


def _train_round(broadcasts, lanes, train_set, cfg, lrs, spec, round_index):
    """Per lane i, every client's (local posterior, NLL trace) from
    ``broadcasts[i]``, trained on the lane's seed and shards of
    ``train_set``. Each distinct (seed, posterior) trains once (keys hold
    ids, and ``broadcasts`` keeps each keyed posterior alive). Its jobs, in
    lane order, train in lockstep groups of max(1, GROUP_PARAMS // P), one
    ``client_update`` call per group."""
    distinct = {(seed, id(p)): (p, seed, own) for p, (seed, _, own) in zip(broadcasts, lanes)}
    jobs = [(p, idx, k, s) for p, s, own in distinct.values() for k, idx in enumerate(own)]
    size = max(1, GROUP_PARAMS // models.param_count(spec))
    groups = [jobs[i : i + size] for i in range(0, len(jobs), size)]

    def update(group):
        return client_update(group, train_set, cfg, lrs, spec, round_index)

    if cfg.federation.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # sequential runs skip its import

        with ThreadPoolExecutor(max_workers=cfg.federation.threads) as pool:
            results = list(pool.map(update, groups))
    else:
        results = list(map(update, groups))
    results = iter([result for group in results for result in group])
    trained = {key: [next(results) for _ in own] for key, (_, _, own) in distinct.items()}
    return [trained[seed, id(p)] for p, (seed, _, _) in zip(broadcasts, lanes)]


def train(
    cfg: ExperimentConfig,
    train_set: Dataset,
    lanes: list[tuple[int, AggregationMethod, list[np.ndarray]]],
    spec: MlpSpec,
    lrs: list[float],
    globals_: list[DiagGaussian],
) -> list[dict]:
    """R rounds of broadcast/train/aggregate over lanes: lane i, a ``(seed,
    method, train_idx)`` record, trains the seed's clients on their rows
    ``train_idx[k]`` of the pooled ``train_set`` under its aggregation
    method from its global posterior ``globals_[i]``, which is updated in
    place so that a replaced posterior held nowhere else is freed. A
    client's aggregation weight is its share of the seed's train rows. One
    dict per lane, in order: its
    ``method``, final ``global`` posterior, the clients' final ``locals``,
    and in ``rounds`` one ``{round, nll_traces, divergences, agg_seconds}``
    per round (each client's per-epoch mean minibatch NLL and
    projection_divergence from local to new global, and the seconds of the
    aggregation call that fused the lane).

    A round trains all lanes in one ``_train_round``, each distinct (seed,
    broadcast posterior) once per client, so a seed's round 1, where its
    lanes start from the same posterior, trains once. The server step then
    runs once per method: one ``server_aggregate`` call fuses the method's
    lanes as (L, P) stacks, one row per lane, each lane with its seed's
    weights, and one ``projection_divergence`` call per client scores them
    all. A lane's dict equals training that seed under that method alone.
    A round's locals and their stacks are dropped once they are aggregated
    and their divergences recorded, before the next round trains, so one
    round of local posteriors is alive at a time; the last round's are
    returned.
    """
    fed = cfg.federation
    div = cfg.personalization.divergence
    groups = {}  # method -> (its lanes in lane order, their (L, K) shard shares)
    for method in dict.fromkeys(method for _, method, _ in lanes):
        group = [i for i, lane in enumerate(lanes) if lane[1] is method]
        sizes = np.array([[len(idx) for idx in lanes[i][2]] for i in group], dtype=np.float64)
        groups[method] = group, sizes / sizes.sum(axis=1, keepdims=True)
    rounds = [[] for _ in lanes]
    for r in range(1, fed.rounds + 1):
        locals_ = None  # round r-1's locals go before round r trains
        round_lrs = lrs[(r - 1) * fed.local_epochs : r * fed.local_epochs]
        trained = _train_round(globals_, lanes, train_set, cfg, round_lrs, spec, r)
        locals_ = [[p for p, _ in own] for own in trained]
        traces = [[trace for _, trace in own] for own in trained]
        del trained
        # an overflowing divergence reads inf, and a non-finite aggregate
        # fails its round: neither warns
        with np.errstate(all="ignore"):
            for method, (group, shares) in groups.items():
                # client k's locals of the method's lanes, row l from lane group[l]
                stacks = [_stack(own) for own in zip(*(locals_[i] for i in group))]
                t_agg = time.perf_counter()
                with failure_context(r):
                    fused = server_aggregate(method, stacks, shares)
                agg_seconds = time.perf_counter() - t_agg
                divergences = np.stack([projection_divergence(div, s, fused) for s in stacks], -1)
                # a lone survivor comes back as its stack: each lane keeps its
                # own local, so lanes that shared a broadcast still share one
                lone = next((k for k, s in enumerate(stacks) if s is fused), None)
                for row, i in enumerate(group):
                    globals_[i] = fused[row] if lone is None else locals_[i][lone]
                    rounds[i].append(dict(round=r, nll_traces=traces[i],
                                          divergences=divergences[row].tolist(),
                                          agg_seconds=agg_seconds))
                del stacks, fused  # the stacks hold this round's locals
    return [
        {"method": method, "global": g, "locals": loc, "rounds": rec}
        for (_, method, _), g, loc, rec in zip(lanes, globals_, locals_, rounds)
    ]


def run_experiment(
    cfg: ExperimentConfig, seeds: Sequence[int], methods: Sequence[AggregationMethod]
) -> list[list[tuple[list[dict], dict]]]:
    """Set up, train and score each seed under each aggregation method; per
    seed and method, in order, its ``metrics.csv`` rows and
    ``rounds_<seed>.json`` payload, equal to a run of that seed and method
    alone. The rows are per client for the four settings (global or
    personalized model, on local or pooled test data), with the
    personalization sweep over the lambda grid applied to the final
    posteriors; the GM-GD row's client_id is "global".

    Seeds run in passes of max(1, G // (methods x clients)) seeds, G =
    max(1, GROUP_PARAMS // P) being the training group size, so a narrow
    model runs every seed in one pass and a wide one a seed per pass. A
    pass builds one ``build_data`` pair, partitions it into its seeds'
    shard indices, trains all its (seed, method) lanes in one ``train`` on
    the pooled train set, frees that set and scores seed by seed. Each pass
    builds its own pair so that the train set can go before scoring: held
    through scoring, it would set the peak memory of a wide run (README,
    Performance). A payload records its pass's costs: ``wall_seconds``,
    ``train_s`` (inside ``train``), ``score_s`` (scoring),
    ``personalize_s`` (the part inside ``project``) and
    ``forwarded_posteriors`` (the posteriors forwarded on the pooled test
    set). A failing pass is replayed one seed at a time (``_in_passes``),
    so the first seed to fail alone raises, as in a seed-by-seed loop; a
    scoring failure names its seed.
    """
    return _in_passes(seeds, lambda rest: _run_pass(cfg, rest, methods))


def _in_passes(seeds, run_pass):
    """Every seed's entry, in order, from passes ``run_pass(rest)`` over the
    seeds not yet done; a pass returns the entries of the leading seeds it
    holds. A pass that raises RunError or ConfigError is replayed one seed
    at a time, so the first seed to fail alone raises, as in a seed-by-seed
    loop."""
    out = []
    while len(out) < len(seeds):
        try:
            out += run_pass(seeds[len(out) :])
        except (RunError, ConfigError):
            # the first to fail alone raises; if none does, the pass's error stands for the last
            for seed in seeds[len(out) : -1]:
                run_pass([seed])
            raise
    return out


def _run_pass(cfg, seeds, methods):
    """run_experiment's entries for the leading seeds that one pass holds."""
    t0 = time.perf_counter()
    k = len(methods)
    with failure_context(0):
        train_set, test = build_data(cfg)
        spec, _, lrs = model_start(cfg, seeds[0], train_set, 1.0)  # the same for all seeds
        per_seed = models.param_count(spec) * k * cfg.partition.n_clients
        seeds = seeds[: max(1, GROUP_PARAMS // per_seed)]
        splits = [partition_both(cfg, train_set, test, seed) for seed in seeds]
    lanes, globals_, payloads = [], [], []
    for seed, (train_idx, _) in zip(seeds, splits):
        sizes = [len(idx) for idx in train_idx]
        # one start per seed, held by globals_ alone and shared by its lanes
        globals_ += [model_start(cfg, seed, train_set, float(np.mean(sizes)))[1]] * k
        lanes += [(seed, method, train_idx) for method in methods]
        counts = [np.bincount(train_set.labels[idx], minlength=train_set.classes).tolist()
                  for idx in train_idx]
        payloads.append(dict(seed=seed, algorithm=cfg.federation.algorithm,
                             client_sizes=sizes, client_label_counts=counts))
    t_train = time.perf_counter()
    finals = train(cfg, train_set, lanes, spec, lrs, globals_)
    train_s = time.perf_counter() - t_train
    del train_set  # the pooled train set goes before scoring
    finals = [finals[i * k : (i + 1) * k] for i in range(len(seeds))]
    t_score = time.perf_counter()
    scored = []
    for seed, f, (_, test_idx) in zip(seeds, finals, splits):
        with failure_context(f"scoring, seed {seed}"):
            scored.append(_score(cfg, seed, spec, f, test, test_idx))
    end = time.perf_counter()
    costs = dict(wall_seconds=end - t0, train_s=train_s, personalize_s=sum(c for _, _, c in scored),
                 score_s=end - t_score, forwarded_posteriors=sum(n for _, n, _ in scored))
    return [
        [
            (r, {**p, **costs, "aggregation": f["method"].value.lower(), "rounds": f["rounds"]})
            for f, r in zip(own, own_rows)
        ]
        for p, own, (own_rows, _, _) in zip(payloads, finals, scored)
    ]


def _score(cfg, seed, spec, finals, test, test_idx):
    """Each method's ``metrics.csv`` rows from its final posteriors (a
    ``train`` dict) on the pooled ``test`` set and on each client's rows of
    it (``test_idx[k]``, in shard order): GM-LD per client, GM-GD, then
    PM-LD and PM-GD per lambda and client; with the number of posteriors
    forwarded and the seconds spent in ``project``.

    Every posterior is forwarded once, on the pooled set, by one
    ``evaluate`` call that also reads its metrics on each client's rows.
    The first call scores the plain posteriors: every job's global one and,
    under FedAvg or with lambda = inf in the grid, its local one, each
    distinct posterior once (jobs share one where a round keeps the
    methods' locals, or one client makes global and local the same), each
    passed as it is, never copied. The (method, client) jobs then go in
    blocks of the training group size, max(1, GROUP_PARAMS // P): one
    ``project`` call per block for the finite positive lambdas, and one
    ``evaluate`` call on the block's (J, L', P) projection stack, so that
    one block's projections are alive at a time. The rows at lambda = 0
    and inf reuse the global and local posteriors' scores.
    """
    noise, bins = eval_noise(cfg, seed, spec), cfg.eval.ece_bins
    fedavg = fedavg_var(cfg) is not None
    lambdas = [None] if fedavg else cfg.personalization.lambdas
    inner = [lam for lam in lambdas if lam and math.isfinite(lam)]
    jobs = [(final["global"], p_k) for final in finals for p_k in final["locals"]]
    reads = 2 if fedavg or math.inf in lambdas else 1  # a job's global, then its local
    plain = {id(job[i]): job[i] for i in range(reads) for job in jobs}
    # per scored posterior: its metrics on the pooled set, then on each shard
    scores = dict(zip(plain, evaluate(spec, list(plain.values()), test, noise, bins, test_idx)))
    size = max(1, GROUP_PARAMS // models.param_count(spec))
    seconds = 0.0
    for lo in range(0, len(jobs), size) if inner else ():
        block = range(lo, min(lo + size, len(jobs)))
        t0 = time.perf_counter()
        p_g, p_k = (_stack(ps) for ps in zip(*jobs[lo : block.stop]))
        proj = project(cfg.personalization.divergence, p_g, p_k, inner)
        seconds += time.perf_counter() - t0
        got = iter(evaluate(spec, [proj], test, noise, bins, test_idx))
        scores.update(((j, lam), next(got)) for j in block for lam in inner)
        del proj  # the block's projections go before the next block is projected

    union = len(test_idx)
    method_rows = []
    for i, final in enumerate(finals):
        g = scores[id(final["global"])]
        plan = [("GM-LD", None, k, g[1 + k]) for k in range(union)]
        plan.append(("GM-GD", None, "global", g[0]))
        for lam in lambdas:
            for k in range(union):
                j = i * union + k
                if lam in inner:
                    own = scores[j, lam]
                else:  # the global posterior at 0, the local one at inf or under FedAvg
                    own = scores[id(jobs[j][0 if lam == 0.0 else 1])]
                plan += [("PM-LD", lam, k, own[1 + k]), ("PM-GD", lam, k, own[0])]
        method = "fedavg" if fedavg else final["method"].value.lower()
        method_rows.append([
            {"setting": setting, "method": method, "lambda": lam, "client_id": client_id,
             "seed": seed, **metrics, "mc_samples": cfg.eval.mc_samples, "bins": bins}
            for setting, lam, client_id, metrics in plan
        ])
    return method_rows, len(scores), seconds


def _stack(posteriors) -> DiagGaussian:
    """The (J, P) stack of J posteriors; a single posterior is viewed, not
    copied."""
    if len(posteriors) == 1:
        return posteriors[0][None]
    return DiagGaussian(mean=np.stack([p.mean for p in posteriors]),
                        var=np.stack([p.var for p in posteriors]))


def _task_split(
    cfg: ExperimentConfig, train: Dataset, test: Dataset
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Train and test indices of task A (classes below split_class) and
    task B (the rest); every seed shares them."""
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


def incremental_sweep(cfg: ExperimentConfig, seeds: Sequence[int]) -> list[dict]:
    """Every seed's ``incremental_tradeoff.csv`` rows, in seed order: two-task
    sequential training, then a barycentric model merge.

    Task A holds classes below ``cfg.incremental.split_class`` (default: the
    lower half), task B the rest. One ``build_data`` pair is split once into
    the two tasks' row indices, which every seed shares. Seeds run in
    passes of max(1, GROUP_PARAMS // P) through ``_in_passes``, as in
    ``run_experiment``: a pass trains task A of its seeds as round 1, then
    task B from each posterior A as round 2, one ``_train_round`` each on
    the pooled train set and all as client 0. Each seed mixes A and B,
    trained as ``federation.algorithm`` says (the command rejects FedAvg),
    with weights (1-w, w) for each w of ``cfg.incremental.w_grid`` under the
    configured aggregation, and scores the mixtures in one ``evaluate``
    call on the pooled test set, each task's test rows a group of it; a
    failure there names the seed.
    """
    with failure_context(0):
        train_set, test = build_data(cfg)
        train_idx, test_idx = _task_split(cfg, train_set, test)
    out = _in_passes(
        seeds, lambda rest: _incremental_pass(cfg, rest, train_set, train_idx, test, test_idx)
    )
    return [row for rows in out for row in rows]


def _incremental_pass(cfg, seeds, train_set, train_idx, test, test_idx):
    """incremental_sweep's rows, per seed, for the leading seeds one pass
    holds, from the pooled ``train_set`` and ``test`` sets with each task's
    rows ``train_idx`` and ``test_idx`` of them."""
    method, w_grid, out = cfg.federation.aggregation, cfg.incremental.w_grid, []
    ess = len(train_idx[0])  # task A's examples
    spec, start, lrs = model_start(cfg, seeds[0], train_set, ess)
    seeds = seeds[: max(1, GROUP_PARAMS // models.param_count(spec))]
    starts = [start] + [model_start(cfg, seed, train_set, ess)[1] for seed in seeds[1:]]
    lanes = [[(seed, method, [idx]) for seed in seeds] for idx in train_idx]
    posts_a = [p for ((p, _),) in _train_round(starts, lanes[0], train_set, cfg, lrs, spec, 1)]
    posts_b = [p for ((p, _),) in _train_round(posts_a, lanes[1], train_set, cfg, lrs, spec, 2)]
    for seed, post_a, post_b in zip(seeds, posts_a, posts_b):
        with failure_context(f"merge and scoring, seed {seed}"):
            mixtures = [aggregate(method, [post_a, post_b], [1.0 - w, w]) for w in w_grid]
            noise, bins = eval_noise(cfg, seed, spec), cfg.eval.ece_bins
            scores = evaluate(spec, mixtures, test, noise, bins, test_idx)
        out.append([  # one row per w, scored on task A (_a) and task B (_b)
            {"seed": seed, "w": float(w), **{f"{metric}_a": v for metric, v in a.items()},
             **{f"{metric}_b": v for metric, v in b.items()}}
            for w, (_, a, b) in zip(w_grid, scores)
        ])
    return out
