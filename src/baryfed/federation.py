"""Round-based federated simulation over exchanged posteriors.

Each round broadcasts the global posterior, runs local variational training
on every client's private shard, and aggregates the resulting posteriors on
the server. Server-side code only ever touches posteriors and weights, never
datasets. Personalization happens after the final round as a sweep of
two-point projections between the global and each local posterior.

Randomness is organized as counter-based streams: the training stream for
(round, client) is seeded with [master_seed, round, client], so sequential
and threaded client execution produce bit-identical results. Auxiliary
streams (data generation, splitting, partitioning, init, eval) hang off the
master seed through fixed tags.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import models
from .config import ConfigError, ExperimentConfig, OptimizerCfg
from .data import (
    Dataset,
    load_idx,
    partition_indices,
    partition_with_draw,
    synth_blobs,
    train_test_split,
)
from .evaluation import MetricsReport, evaluate
from .geometry import (
    AggregationMethod,
    DiagGaussian,
    aggregate,
    project,
    projection_divergence,
)
from .models import MlpSpec
from .variopt import (
    ivon_from_posterior,
    ivon_init,
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
        self.cause = cause


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


@dataclass(frozen=True)
class RoundReport:
    round: int
    nll_traces: list  # per client, per epoch mean minibatch NLL
    divergences: list  # projection_divergence(d, p_k, p_g) per client
    agg_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    seed: int
    algorithm: str
    aggregation: str
    lambda_grid: tuple
    client_sizes: list
    client_label_counts: list
    rounds: list
    metrics: list
    wall_seconds: float
    final_global: DiagGaussian
    final_locals: tuple


def _lr_schedule(opt: OptimizerCfg, epochs: int) -> list[float]:
    """One learning rate per epoch, decayed linearly from lr_initial to lr_final."""
    return [
        linear_lr(opt.lr_initial, opt.lr_final, e, max(epochs - 1, 1)) for e in range(epochs)
    ]


def client_update(
    prior: DiagGaussian,
    shard: Dataset,
    cfg: ExperimentConfig,
    lrs: list[float],
    spec: MlpSpec,
    seed: int,
    round_index: int,
    client_id: int,
    frozen_var: float | None = None,
) -> tuple[DiagGaussian, list[float]]:
    """One local phase from the broadcast posterior; one epoch per entry of ``lrs``.

    Draws from client_rng(seed, round_index, client_id) and reads
    cfg.optimizer and cfg.federation.batch_size. The optimizer restarts at the
    prior mean with the Hessian rebuilt from the prior variance under this
    client's own (N_k = shard.n, delta); gradient momentum and the step
    counter start from zero, so no optimizer state crosses rounds. Each step
    averages opt.mc_train_samples posterior draws. With ``frozen_var`` set
    (FedAvg) the one draw is the mean, the Hessian stays at h0, and the local
    posterior carries ``frozen_var`` on every coordinate. Returns the local
    posterior and the per-epoch mean minibatch NLL; any failure is raised as
    RunError(round_index, client_id).
    """
    with failure_context(round_index, client_id):
        opt = cfg.optimizer
        batch_size = cfg.federation.batch_size
        rng = client_rng(seed, round_index, client_id)
        deterministic = frozen_var is not None
        if deterministic:
            state = ivon_init(prior.dim, opt, shard.n, mean=prior.mean)
        else:
            state = ivon_from_posterior(prior, opt, shard.n)
        trace = []
        for lr in lrs:
            order = rng.permutation(shard.n)
            losses = []
            for start in range(0, shard.n, batch_size):
                idx = order[start : start + batch_size]
                batch = models.Batch(inputs=shard.inputs[idx], labels=shard.labels[idx])
                if deterministic:
                    draws = [state.mean]
                else:
                    draws = [sample_params(state, rng) for _ in range(opt.mc_train_samples)]
                thetas = np.array(draws)
                grads = np.empty_like(thetas)
                loss = 0.0
                for s, theta in enumerate(draws):
                    l, grads[s] = models.loss_and_grad(spec, theta, batch)
                    loss += l / len(draws)
                state = ivon_step(state, grads, thetas, lr=lr, update_hessian=not deterministic)
                losses.append(loss)
            trace.append(float(np.mean(losses)))
        if deterministic:
            return DiagGaussian(mean=state.mean, var=np.full(prior.dim, frozen_var)), trace
        return posterior_of(state), trace


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


def model_spec(cfg: ExperimentConfig, ds: Dataset) -> MlpSpec:
    return MlpSpec(layer_sizes=(ds.dim, *cfg.model.hidden, ds.classes))


def eval_noise(cfg: ExperimentConfig, seed: int, spec: MlpSpec) -> np.ndarray:
    """The (mc_samples, P) standard normals that every evaluation of a run shares."""
    rng = np.random.default_rng(derived_seed(seed, _EVAL_TAG))
    return rng.standard_normal((cfg.eval.mc_samples, models.param_count(spec)))


def run_experiment(cfg: ExperimentConfig, seed: int) -> ExperimentReport:
    """Full protocol: R rounds of broadcast/train/aggregate, then evaluation.

    Each round maps the broadcast global posterior to one local posterior per
    client and fuses those into the next global posterior; nothing else
    carries over. Emits per-client metrics for the four settings (global or
    personalized model, on local or pooled test data), with the
    personalization sweep over the configured lambda grid applied to the
    final-round posteriors.
    """
    t0 = time.perf_counter()
    fed = cfg.federation
    opt = cfg.optimizer
    with failure_context(0):
        train, test = build_data(cfg, seed)
        train_idx, test_idx = partition_both(cfg, train, test, seed)
    train_shards = [train.subset(i) for i in train_idx]
    test_shards = [test.subset(i) for i in test_idx]

    spec = model_spec(cfg, train)
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    sizes = np.array([shard.n for shard in train_shards], dtype=np.float64)
    weights = sizes / sizes.sum()
    frozen_var = fed.frozen_var if fed.algorithm == "fedavg" else None
    if frozen_var is None:
        p_g = posterior_of(ivon_init(theta0.shape[0], opt, float(np.mean(sizes)), mean=theta0))
    else:
        p_g = DiagGaussian(mean=theta0, var=np.full(theta0.shape[0], frozen_var))

    lrs = _lr_schedule(opt, fed.rounds * fed.local_epochs)
    div = cfg.personalization.divergence
    clients = range(len(train_shards))

    rounds_out = []
    for r in range(1, fed.rounds + 1):
        round_lrs = lrs[(r - 1) * fed.local_epochs : r * fed.local_epochs]
        args = (
            repeat(p_g), train_shards, repeat(cfg), repeat(round_lrs),
            repeat(spec), repeat(seed), repeat(r), clients, repeat(frozen_var),
        )
        if fed.threads > 1:
            with ThreadPoolExecutor(max_workers=fed.threads) as pool:
                results = list(pool.map(client_update, *args))
        else:
            results = list(map(client_update, *args))
        locals_ = [res[0] for res in results]

        t_agg = time.perf_counter()
        with failure_context(r):
            p_g = server_aggregate(fed.aggregation, locals_, weights)
        agg_seconds = time.perf_counter() - t_agg

        rounds_out.append(
            RoundReport(
                round=r,
                nll_traces=[res[1] for res in results],
                divergences=[float(projection_divergence(div, p, p_g)) for p in locals_],
                agg_seconds=agg_seconds,
            )
        )

    metrics = _evaluate_all(cfg, seed, spec, p_g, locals_, test_shards, test)
    return ExperimentReport(
        seed=seed,
        algorithm=fed.algorithm,
        aggregation=fed.aggregation.value.lower(),
        lambda_grid=cfg.personalization.lambdas,
        client_sizes=[shard.n for shard in train_shards],
        client_label_counts=[shard.label_counts().tolist() for shard in train_shards],
        rounds=rounds_out,
        metrics=metrics,
        wall_seconds=time.perf_counter() - t0,
        final_global=p_g,
        final_locals=tuple(locals_),
    )


def _evaluate_all(
    cfg: ExperimentConfig,
    seed: int,
    spec: MlpSpec,
    p_g: DiagGaussian,
    locals_: list[DiagGaussian],
    test_shards: list[Dataset],
    test_union: Dataset,
) -> list[MetricsReport]:
    noise = eval_noise(cfg, seed, spec)
    bins = cfg.eval.ece_bins
    fedavg = cfg.federation.algorithm == "fedavg"
    method = "fedavg" if fedavg else cfg.federation.aggregation.value.lower()

    # project returns p_g itself at lambda = 0, so those PM rows score pairs
    # the GM rows already scored. Keys are ids: every keyed posterior and
    # dataset stays alive until this function returns, so no id is reused.
    scores: dict[tuple[int, int], MetricsReport] = {}

    def row(p: DiagGaussian, ds: Dataset, setting, lam, client_id) -> MetricsReport:
        key = (id(p), id(ds))
        if key not in scores:
            scores[key] = evaluate(spec, p, ds, noise, bins)
        return dataclasses.replace(
            scores[key], setting=setting, method=method, lam=lam, client_id=client_id, seed=seed
        )

    rows = [row(p_g, shard, "GM-LD", None, k) for k, shard in enumerate(test_shards)]
    rows.append(row(p_g, test_union, "GM-GD", None, None))

    d = cfg.personalization.divergence
    if fedavg:
        sweep = [(None, locals_)]
    else:
        sweep = [
            (lam, [project(d, p_g, p, lam) for p in locals_])
            for lam in cfg.personalization.lambdas
        ]
    for lam, posteriors in sweep:
        for k, (shard, p) in enumerate(zip(test_shards, posteriors)):
            rows.append(row(p, shard, "PM-LD", lam, k))
            rows.append(row(p, test_union, "PM-GD", lam, k))
    return rows


@dataclass(frozen=True)
class IncrementalRow:
    w: float
    task_a: MetricsReport
    task_b: MetricsReport


@dataclass(frozen=True)
class IncrementalReport:
    seed: int
    aggregation: str
    split_class: int
    rows: list


def _task_subset(ds: Dataset, keep: np.ndarray, what: str) -> Dataset:
    idx = np.flatnonzero(np.isin(ds.labels, keep))
    if idx.size == 0:
        raise ValueError(f"{what} has no examples of classes {keep.tolist()}")
    return ds.subset(idx)


def incremental_sweep(cfg: ExperimentConfig, seed: int) -> IncrementalReport:
    """Two-task sequential training, then a barycentric model merge.

    Task A holds classes below ``cfg.incremental.split_class`` (default: the
    lower half), task B the rest. Posterior B starts from posterior A (task-A
    data is gone by then). The sweep mixes A and B with weights (1-w, w) for
    each w of ``cfg.incremental.w_grid`` under the configured aggregation and
    scores every mixture on both task test sets. Task A trains as round 1
    and task B as round 2, both as client 0, so a failure names its task.
    """
    with failure_context(0):
        train, test = build_data(cfg, seed)
        classes = train.classes
        split_class = cfg.incremental.split_class
        if split_class is None:
            split_class = classes // 2
        if not 0 < split_class < classes:
            raise ConfigError(
                "incremental.split_class", f"must split {classes} classes into two groups"
            )
        a_classes = np.arange(split_class)
        b_classes = np.arange(split_class, classes)
        train_a = _task_subset(train, a_classes, "task A train set")
        train_b = _task_subset(train, b_classes, "task B train set")
        test_a = _task_subset(test, a_classes, "task A test set")
        test_b = _task_subset(test, b_classes, "task B test set")

    spec = model_spec(cfg, train)
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    opt = cfg.optimizer
    start = posterior_of(ivon_init(theta0.shape[0], opt, train_a.n, mean=theta0))

    lrs = _lr_schedule(opt, cfg.federation.rounds * cfg.federation.local_epochs)
    post_a, _ = client_update(start, train_a, cfg, lrs, spec, seed, 1, 0)
    post_b, _ = client_update(post_a, train_b, cfg, lrs, spec, seed, 2, 0)

    noise = eval_noise(cfg, seed, spec)
    bins = cfg.eval.ece_bins
    method = cfg.federation.aggregation

    rows = []
    for w in cfg.incremental.w_grid:
        mixed = aggregate(method, [post_a, post_b], [1.0 - w, w])
        row = IncrementalRow(
            w=float(w),
            task_a=evaluate(spec, mixed, test_a, noise, bins, setting="task-A"),
            task_b=evaluate(spec, mixed, test_b, noise, bins, setting="task-B"),
        )
        rows.append(row)
    return IncrementalReport(
        seed=seed, aggregation=method.value.lower(), split_class=int(split_class), rows=rows
    )
