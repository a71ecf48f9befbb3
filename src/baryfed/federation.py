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
from dataclasses import dataclass

import numpy as np

from . import models
from .config import ConfigError, ExperimentConfig, OptimizerCfg
from .data import (
    Dataset,
    PartitionConfig,
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
    Divergence,
    aggregate,
    project,
    projection_divergence,
)
from .models import MlpSpec
from .variopt import (
    IvonHyper,
    IvonState,
    hessian_of,
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


@dataclass
class ClientState:
    id: int
    train_shard: Dataset
    test_shard: Dataset
    optimizer: IvonState
    local_posterior: DiagGaussian


@dataclass
class ServerState:
    global_posterior: DiagGaussian
    method: AggregationMethod
    client_weights: np.ndarray


@dataclass(frozen=True)
class RoundReport:
    round: int
    nll_traces: list  # per client, per epoch mean minibatch NLL
    divergences: list  # divergence(d, p_k, p_g) per client
    agg_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    seed: int
    algorithm: str
    aggregation: str
    divergence: str
    lambda_grid: tuple
    client_sizes: list
    client_label_counts: list
    rounds: list
    metrics: list
    wall_seconds: float
    final_global: DiagGaussian | None = None
    final_locals: tuple = ()


def _ivon_hyper(opt: OptimizerCfg, ess: int) -> IvonHyper:
    """Optimizer hyperparameters for a training set of ``ess`` examples."""
    return IvonHyper(
        ess=ess,
        lr=opt.lr_initial,
        weight_decay=opt.weight_decay,
        beta1=opt.beta1,
        beta2=opt.beta2,
        h0=opt.h0,
        clip_radius=opt.clip_radius,
    )


def _restart(post: DiagGaussian, hyper: IvonHyper, hess: np.ndarray) -> IvonState:
    """Optimizer state at the mean of ``post``; momentum and step count restart."""
    return IvonState(
        mean=post.mean.copy(), hess=hess, grad_momentum=np.zeros(post.dim), hyper=hyper
    )


def _train(
    spec: MlpSpec,
    state: IvonState,
    ds: Dataset,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    lr_by_epoch: list[float],
    mc_train: int,
    deterministic: bool,
) -> tuple[IvonState, list[float]]:
    """Local training on ``ds``; returns the final state and per-epoch mean NLL."""
    trace = []
    for epoch in range(epochs):
        lr = lr_by_epoch[epoch]
        order = rng.permutation(ds.n)
        losses = []
        for start in range(0, ds.n, batch_size):
            idx = order[start : start + batch_size]
            batch = models.Batch(inputs=ds.inputs[idx], labels=ds.labels[idx])
            if deterministic:
                loss, grad = models.loss_and_grad(spec, state.mean, batch)
                state = ivon_step(state, grad, state.mean, lr=lr, update_hessian=False)
            else:
                grads = np.empty((mc_train, state.mean.shape[0]))
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
    return state, trace


def client_update(
    client: ClientState,
    global_posterior: DiagGaussian,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    spec: MlpSpec,
    lr_by_epoch: list[float] | None = None,
    mc_train: int = 1,
    deterministic: bool = False,
    frozen_var: float | None = None,
) -> tuple[ClientState, list[float]]:
    """One local phase: install the broadcast posterior, then train.

    The broadcast fixes the optimizer mean to the global mean and rebuilds the
    Hessian from the global variance with this client's own (N_k, delta);
    gradient momentum and the step counter restart. In deterministic mode the
    gradient is taken at the mean and the Hessian is frozen, and the reported
    local posterior keeps ``frozen_var`` on every coordinate.
    """
    hyper = client.optimizer.hyper
    hess = (
        client.optimizer.hess
        if deterministic
        else hessian_of(global_posterior, hyper.ess, hyper.weight_decay)
    )
    if lr_by_epoch is None:
        lr_by_epoch = [hyper.lr] * epochs
    client.optimizer, trace = _train(
        spec,
        _restart(global_posterior, hyper, hess),
        client.train_shard,
        epochs,
        batch_size,
        rng,
        lr_by_epoch,
        mc_train,
        deterministic,
    )
    if deterministic:
        client.local_posterior = DiagGaussian(
            mean=client.optimizer.mean.copy(),
            var=np.full(global_posterior.dim, frozen_var),
        )
    else:
        client.local_posterior = posterior_of(client.optimizer)
    return client, trace


def server_aggregate(server: ServerState, posteriors: list[DiagGaussian]) -> ServerState:
    if len(posteriors) != len(server.client_weights):
        raise ValueError(
            f"got {len(posteriors)} posteriors for {len(server.client_weights)} clients"
        )
    merged = aggregate(server.method, posteriors, server.client_weights)
    return dataclasses.replace(server, global_posterior=merged)


def personalize_all(
    server: ServerState,
    clients: list[ClientState],
    d: Divergence,
    lam: float,
) -> list[DiagGaussian]:
    """Project the global posterior toward each local one; no data, no training."""
    return [
        project(d, server.global_posterior, client.local_posterior, lam)
        for client in clients
    ]


def build_data(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the train/test pair; the dataset is fixed across master seeds.

    Synthetic draws and the train/test split come from dataset.seed so reruns
    with different master seeds vary partitioning, initialization, and
    training noise on identical data, mirroring a fixed benchmark split.
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
    train = load_idx(dcfg.train_images, dcfg.train_labels, name="train")
    test = load_idx(dcfg.test_images, dcfg.test_labels, name="test")
    if dcfg.limit:
        train = train.subset(np.arange(min(train.n, dcfg.limit)))
        test = test.subset(np.arange(min(test.n, dcfg.limit)))
    return train, test


def partition_both(
    cfg: ExperimentConfig, train: Dataset, test: Dataset, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    base = derived_seed(seed, _PARTITION_TAG)
    pcfg = cfg.partition
    # retry with shifted seeds until every client also holds >= 1 test example
    last_err = None
    for attempt in range(20):
        part = PartitionConfig(
            n_clients=pcfg.n_clients,
            beta=pcfg.beta,
            seed=base + attempt,
            min_shard=pcfg.min_shard,
        )
        try:
            train_idx, draw = partition_indices(train, part)
        except ValueError as exc:
            last_err = exc
            continue
        if pcfg.shared_test_draw:
            test_idx = partition_with_draw(test, draw, base + attempt)
        else:
            test_part = PartitionConfig(
                n_clients=pcfg.n_clients, beta=pcfg.beta, seed=base + attempt + 1, min_shard=1
            )
            test_idx, _ = partition_indices(test, test_part)
        if min(len(s) for s in test_idx) >= 1:
            return train_idx, test_idx
    raise ValueError(
        f"could not partition train and test jointly: {last_err or 'empty test shard'}"
    )


def model_spec(cfg: ExperimentConfig, ds: Dataset) -> MlpSpec:
    return MlpSpec(layer_sizes=(ds.dim, *cfg.model.hidden, ds.classes))


def _lr_schedule(cfg: ExperimentConfig) -> list[list[float]]:
    """Per-round lists of per-epoch learning rates, decayed linearly."""
    rounds = cfg.federation.rounds
    epochs = cfg.federation.local_epochs
    total = rounds * epochs
    out = []
    step = 0
    for _ in range(rounds):
        row = []
        for _ in range(epochs):
            row.append(
                linear_lr(cfg.optimizer.lr_initial, cfg.optimizer.lr_final, step, max(total - 1, 1))
            )
            step += 1
        out.append(row)
    return out


def run_experiment(cfg: ExperimentConfig, seed: int) -> ExperimentReport:
    """Full protocol: R rounds of broadcast/train/aggregate, then evaluation.

    Emits per-client metrics for the four settings (global or personalized
    model, on local or pooled test data), with the personalization sweep over
    the configured lambda grid applied to the final-round posteriors.
    """
    t0 = time.perf_counter()
    fedavg = cfg.federation.algorithm == "fedavg"
    try:
        train, test = build_data(cfg, seed)
        train_idx, test_idx = partition_both(cfg, train, test, seed)
    except Exception as exc:
        raise RunError(0, None, exc) from exc

    spec = model_spec(cfg, train)
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    dim = theta0.shape[0]
    opt = cfg.optimizer

    clients = []
    for k, (tr_i, te_i) in enumerate(zip(train_idx, test_idx)):
        shard = train.subset(tr_i, name=f"client{k}/train")
        state = ivon_init(dim, _ivon_hyper(opt, shard.n), mean=theta0)
        clients.append(
            ClientState(
                id=k,
                train_shard=shard,
                test_shard=test.subset(te_i, name=f"client{k}/test"),
                optimizer=state,
                local_posterior=posterior_of(state),
            )
        )

    sizes = np.array([c.train_shard.n for c in clients], dtype=np.float64)
    weights = sizes / sizes.sum()
    if fedavg:
        var0 = np.full(dim, cfg.federation.frozen_var)
    else:
        mean_ess = float(np.mean(sizes))
        var0 = np.full(dim, 1.0 / (mean_ess * (opt.h0 + opt.weight_decay)))
    server = ServerState(
        global_posterior=DiagGaussian(mean=theta0.copy(), var=var0),
        method=cfg.federation.aggregation,
        client_weights=weights,
    )

    schedule = _lr_schedule(cfg)
    div = cfg.personalization.divergence
    rounds_out = []

    def one_client(args):
        r, client = args
        return client_update(
            client,
            server.global_posterior,
            cfg.federation.local_epochs,
            cfg.federation.batch_size,
            client_rng(seed, r, client.id),
            spec,
            lr_by_epoch=schedule[r - 1],
            mc_train=opt.mc_train_samples,
            deterministic=fedavg,
            frozen_var=cfg.federation.frozen_var,
        )

    for r in range(1, cfg.federation.rounds + 1):
        jobs = [(r, c) for c in clients]
        try:
            if cfg.federation.threads > 1:
                with ThreadPoolExecutor(max_workers=cfg.federation.threads) as pool:
                    results = list(pool.map(one_client, jobs))
            else:
                results = [one_client(j) for j in jobs]
        except RunError:
            raise
        except Exception as exc:
            raise RunError(r, None, exc) from exc
        clients = [res[0] for res in results]
        traces = [res[1] for res in results]

        t_agg = time.perf_counter()
        try:
            server = server_aggregate(server, [c.local_posterior for c in clients])
        except Exception as exc:
            raise RunError(r, None, exc) from exc
        agg_seconds = time.perf_counter() - t_agg

        divs = [
            float(projection_divergence(div, c.local_posterior, server.global_posterior))
            for c in clients
        ]
        rounds_out.append(
            RoundReport(round=r, nll_traces=traces, divergences=divs, agg_seconds=agg_seconds)
        )

    metrics = _evaluate_all(cfg, seed, spec, server, clients, test)
    return ExperimentReport(
        seed=seed,
        algorithm=cfg.federation.algorithm,
        aggregation=cfg.federation.aggregation.value.lower(),
        divergence=div.value.lower(),
        lambda_grid=cfg.personalization.lambdas,
        client_sizes=[c.train_shard.n for c in clients],
        client_label_counts=[c.train_shard.label_counts().tolist() for c in clients],
        rounds=rounds_out,
        metrics=metrics,
        wall_seconds=time.perf_counter() - t0,
        final_global=server.global_posterior,
        final_locals=tuple(c.local_posterior for c in clients),
    )


def _evaluate_all(
    cfg: ExperimentConfig,
    seed: int,
    spec: MlpSpec,
    server: ServerState,
    clients: list[ClientState],
    test_union: Dataset,
) -> list[MetricsReport]:
    mc = cfg.eval.mc_samples
    bins = cfg.eval.ece_bins
    eseed = derived_seed(seed, _EVAL_TAG)
    method = (
        "fedavg"
        if cfg.federation.algorithm == "fedavg"
        else cfg.federation.aggregation.value.lower()
    )

    def tag(report: MetricsReport, setting, lam, client_id):
        return dataclasses.replace(
            report, setting=setting, method=method, lam=lam, client_id=client_id, seed=seed
        )

    rows = []
    p_g = server.global_posterior
    for c in clients:
        rows.append(
            tag(evaluate(spec, p_g, c.test_shard, mc, bins, eseed), "GM-LD", None, c.id)
        )
    rows.append(tag(evaluate(spec, p_g, test_union, mc, bins, eseed), "GM-GD", None, None))

    if cfg.federation.algorithm == "fedavg":
        sweep: list[tuple[float | None, list[DiagGaussian]]] = [
            (None, [c.local_posterior for c in clients])
        ]
    else:
        sweep = [
            (lam, personalize_all(server, clients, cfg.personalization.divergence, lam))
            for lam in cfg.personalization.lambdas
        ]
    for lam, posteriors in sweep:
        for c, p in zip(clients, posteriors):
            rows.append(tag(evaluate(spec, p, c.test_shard, mc, bins, eseed), "PM-LD", lam, c.id))
            rows.append(tag(evaluate(spec, p, test_union, mc, bins, eseed), "PM-GD", lam, c.id))
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


def _filter_classes(ds: Dataset, keep: np.ndarray, name: str) -> Dataset:
    idx = np.flatnonzero(np.isin(ds.labels, keep))
    return ds.subset(idx, name=name)


def _train_single(
    spec: MlpSpec,
    ds: Dataset,
    start: DiagGaussian,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
) -> DiagGaussian:
    opt = cfg.optimizer
    hyper = _ivon_hyper(opt, ds.n)
    epochs = cfg.federation.rounds * cfg.federation.local_epochs
    lrs = [
        linear_lr(opt.lr_initial, opt.lr_final, e, max(epochs - 1, 1)) for e in range(epochs)
    ]
    state, _ = _train(
        spec,
        _restart(start, hyper, hessian_of(start, ds.n, opt.weight_decay)),
        ds,
        epochs,
        cfg.federation.batch_size,
        rng,
        lrs,
        opt.mc_train_samples,
        deterministic=False,
    )
    return posterior_of(state)


def incremental_sweep(
    cfg: ExperimentConfig, seed: int, w_grid, split_class: int | None = None
) -> IncrementalReport:
    """Two-task sequential training, then a barycentric model merge.

    Task A holds classes below ``split_class``, task B the rest. Posterior B
    starts from posterior A (task-A data is gone by then). The sweep mixes
    A and B with weights (1-w, w) under the configured aggregation and scores
    every mixture on both task test sets.
    """
    try:
        train, test = build_data(cfg, seed)
    except Exception as exc:
        raise RunError(0, None, exc) from exc
    classes = train.classes
    if split_class is None:
        split_class = classes // 2
    if not 0 < split_class < classes:
        raise ConfigError(
            "incremental.split_class", f"must split {classes} classes into two groups"
        )
    a_classes = np.arange(split_class)
    b_classes = np.arange(split_class, classes)

    train_a = _filter_classes(train, a_classes, "taskA/train")
    train_b = _filter_classes(train, b_classes, "taskB/train")
    test_a = _filter_classes(test, a_classes, "taskA/test")
    test_b = _filter_classes(test, b_classes, "taskB/test")

    spec = model_spec(cfg, train)
    theta0 = models.init_params(spec, derived_seed(seed, _INIT_TAG))
    opt = cfg.optimizer
    start_var = np.full(theta0.shape[0], 1.0 / (train_a.n * (opt.h0 + opt.weight_decay)))
    start = DiagGaussian(mean=theta0, var=start_var)

    post_a = _train_single(spec, train_a, start, cfg, client_rng(seed, 1, 0))
    post_b = _train_single(spec, train_b, post_a, cfg, client_rng(seed, 2, 0))

    mc = cfg.eval.mc_samples
    bins = cfg.eval.ece_bins
    eseed = derived_seed(seed, _EVAL_TAG)
    method = cfg.federation.aggregation

    rows = []
    for w in w_grid:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {w}")
        mixed = aggregate(method, [post_a, post_b], [1.0 - w, w])
        row = IncrementalRow(
            w=float(w),
            task_a=evaluate(spec, mixed, test_a, mc, bins, eseed, setting="task-A"),
            task_b=evaluate(spec, mixed, test_b, mc, bins, eseed, setting="task-B"),
        )
        rows.append(row)
    return IncrementalReport(
        seed=seed, aggregation=method.value.lower(), split_class=int(split_class), rows=rows
    )
