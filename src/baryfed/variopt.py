"""Variational online-Newton optimizer over a diagonal-Gaussian posterior.

The optimizer tracks a per-coordinate mean, Hessian estimate, and gradient
momentum. The posterior variance is tied to the Hessian through
var = 1/(N*(h + delta)) with N the effective sample size and delta the
weight decay, so the covariance can be reconstructed from the Hessian and
vice versa. Updates use a sampled-gradient second-order rule: a reparameterized
per-coordinate Hessian estimate feeds an exponential moving average, and the
mean moves along the momentum direction preconditioned by the Hessian.

A state is one vector (P,) or a stack (K, P) of K independent states, one
per client of a round, each row with its own effective sample size and step
count. Every operation acts row by row, so a row of a stack is
bit-identical to that state stepped alone. ``sample_params`` and
``ivon_step`` write into ``out=`` buffers, so a training loop steps its
stack in place without allocating a P-long array per step.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from .config import OptimizerCfg
from .geometry import DiagGaussian
from .models import RowError

log = logging.getLogger(__name__)


@dataclass(eq=False)
class IvonState:
    """Per-coordinate optimizer state for a training set of ``ess`` examples,
    or a stack (K, P) of them with ``ess`` (K, 1) and ``step_count`` (K,).

    ``opt`` supplies beta1, beta2, h0, the weight decay delta and the
    optional update clip radius. ``var`` (the posterior variance implied by
    the Hessian) and ``std`` are computed on construction and kept current
    by ``ivon_step``; ``work`` is its scratch space. ``ivon_step`` changes
    only the state passed as its ``out``, so a state is changed in place
    only by the loop that owns it. ``state[rows]`` is the state of some
    rows of a stack; for a slice its arrays are views, so stepping it in
    place steps those rows of the stack.
    """

    mean: np.ndarray
    hess: np.ndarray
    grad_momentum: np.ndarray
    opt: OptimizerCfg
    ess: float | np.ndarray
    step_count: int | np.ndarray = 0
    var: np.ndarray = field(init=False, repr=False)
    std: np.ndarray = field(init=False, repr=False)
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # var = 1/(N*(h + delta)); h + delta = 0 gives var = inf, which
        # ivon_step's curvature check reports
        with np.errstate(divide="ignore"):
            self.var = 1.0 / (self.ess * (self.hess + self.opt.weight_decay))
        self.std = np.sqrt(self.var)
        self.work = np.empty((2, *self.mean.shape))

    def __getitem__(self, rows) -> IvonState:
        part = object.__new__(IvonState)
        for name, value in vars(self).items():
            if name == "work":
                value = value[:, rows]
            elif name != "opt":
                value = value[rows]
            setattr(part, name, value)
        return part


def ivon_init(dim: int, opt: OptimizerCfg, ess: float, mean) -> IvonState:
    """Fresh state at ``mean`` (the model initializer's flat parameter
    vector): Hessian filled with h0, momentum zero, step count zero."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    mean = np.asarray(mean, dtype=np.float64).copy()
    if mean.shape != (dim,):
        raise ValueError(f"mean must have shape ({dim},), got {mean.shape}")
    return IvonState(
        mean=mean, hess=np.full(dim, float(opt.h0)), grad_momentum=np.zeros(dim), opt=opt, ess=ess
    )


def ivon_restart(
    posts: list[DiagGaussian], opt: OptimizerCfg, esses: list[float], frozen: bool = False
) -> IvonState:
    """A stack of restarts, row k at ``posts[k]`` for ``esses[k]`` examples:
    its mean, the Hessian its variance implies under (ess, delta) or, with
    ``frozen``, h0, and zero momentum and step count."""
    mean = np.stack([post.mean for post in posts])
    if frozen:
        hess = np.full(mean.shape, float(opt.h0))
    else:
        hess = np.stack(
            [hessian_of(post, ess, opt.weight_decay) for post, ess in zip(posts, esses)]
        )
    return IvonState(
        mean=mean,
        hess=hess,
        grad_momentum=np.zeros(mean.shape),
        opt=opt,
        ess=np.array(esses, dtype=np.float64)[:, None],
        step_count=np.zeros(len(posts), dtype=np.int64),
    )


def posterior_of(state: IvonState) -> DiagGaussian:
    """Posterior implied by a single state, in arrays of its own."""
    return DiagGaussian(mean=state.mean.copy(), var=state.var.copy())


def hessian_of(post: DiagGaussian, ess: float, delta: float) -> np.ndarray:
    """Invert the variance relation: h = 1/(N*var) - delta, rectified at 0."""
    h = 1.0 / (ess * post.var) - delta
    if np.any(h < 0.0):
        log.warning(
            "hessian rectified at 0 for %d coordinate(s)", int(np.sum(h < 0.0))
        )
        h = np.maximum(h, 0.0)
    return h


def sample_params(state: IvonState, rng, out: np.ndarray | None = None) -> np.ndarray:
    """Draws mean + std * z from the posterior.

    A single state and generator give one vector (P,). A stacked state
    (K, P) takes one generator per row and fills ``out`` (K, S, P) with
    each row's S draws; row k's S x P normals come from ``rng[k]`` in the
    order S separate draws would take them. Returns ``out``.
    """
    dim = state.mean.shape[-1]
    single = state.mean.ndim == 1
    if single:
        rng, out = [rng], np.empty((1, 1, dim))
    for gen, block in zip(rng, out):
        gen.standard_normal(out=block)
    out *= state.std.reshape(-1, 1, dim)
    out += state.mean.reshape(-1, 1, dim)
    return out[0, 0] if single else out


def ivon_step(
    state: IvonState,
    grad: np.ndarray,
    theta_sampled: np.ndarray,
    lr: float,
    update_hessian: bool = True,
    out: IvonState | None = None,
) -> IvonState:
    """One optimizer step of size ``lr`` from gradients at posterior samples.

    For a single state, ``grad`` and ``theta_sampled`` are flat vectors or
    stacked (samples, dim) arrays; for a stack of K states they are
    (K, samples, dim) or (K, dim). Multiple samples average both the
    gradient and the per-coordinate Hessian products
    grad * (theta_sampled - mean) / var, with var taken before the update.
    The Hessian estimate enters an EMA rectified at zero, then the mean
    moves along the bias-corrected gradient momentum plus weight decay,
    preconditioned by 1/(hess + delta); with a clip radius each row's
    update is clipped to it. ``update_hessian=False`` freezes the
    curvature, which turns the rule into a deterministic preconditioned
    momentum step.

    The new state is written into ``out``, which may be ``state`` itself,
    or into a copy of ``state``, which is returned. A non-finite gradient,
    a Hessian with h + delta <= 0 or a non-finite new mean fails its row:
    once every row is stepped, RowError names the step and the first bad
    coordinate of each failed row, whose values are then meaningless.
    Floating-point warnings are silenced, as each one ends in a failed row.
    """
    opt = state.opt
    dim = state.mean.shape[-1]
    lead = state.mean.shape[:-1]
    grad = np.asarray(grad, dtype=np.float64)
    theta_sampled = np.asarray(theta_sampled, dtype=np.float64)
    if (
        grad.shape != theta_sampled.shape
        or grad.shape[-1] != dim
        or grad.shape[: len(lead)] != lead
        or grad.ndim > len(lead) + 2
    ):
        raise ValueError(f"gradient shape {grad.shape} incompatible with state dim {dim}")
    if out is None:
        out = copy.deepcopy(state)
    mean, hess, momentum, var, std = (
        a.reshape(-1, dim) for a in (out.mean, out.hess, out.grad_momentum, out.var, out.std)
    )
    work, spare = out.work.reshape(2, -1, dim)
    grad = grad.reshape(mean.shape[0], -1, dim)
    theta_sampled = theta_sampled.reshape(grad.shape)
    samples = grad.shape[1]
    steps = (np.atleast_1d(out.step_count) + 1).tolist()

    errors = {}
    for r in np.flatnonzero(~np.isfinite(grad).all(axis=(1, 2))).tolist():
        bad = int(np.argmax(np.any(~np.isfinite(grad[r]), axis=0)))
        errors[r] = f"optimizer step {steps[r]}: non-finite gradient at coordinate {bad}"
    with np.errstate(all="ignore"):
        if update_hessian:
            # the sample mean of grad * (theta - mean), summed in sample order
            np.subtract(theta_sampled[:, 0], mean, out=work)
            work *= grad[:, 0]
            for s in range(1, samples):
                np.subtract(theta_sampled[:, s], mean, out=spare)
                spare *= grad[:, s]
                work += spare
            if samples > 1:
                work /= samples
            work /= var
            hess *= opt.beta2
            work *= 1.0 - opt.beta2
            hess += work
            np.maximum(hess, 0.0, out=hess)
        curvature = np.add(hess, opt.weight_decay, out=work)
        for r in np.flatnonzero(~(curvature > 0.0).all(axis=1)).tolist():
            bad = int(np.argmin(curvature[r] > 0.0))
            errors.setdefault(
                r,
                f"optimizer step {steps[r]}: h + delta = {curvature[r, bad]:g} at coordinate "
                f"{bad}, must be > 0",
            )

        mean_grad = grad[:, 0]
        if samples > 1:
            mean_grad = spare
            mean_grad[...] = grad[:, 0]
            for s in range(1, samples):
                mean_grad += grad[:, s]
            mean_grad /= samples
        momentum *= opt.beta1
        momentum += np.multiply(mean_grad, 1.0 - opt.beta1, out=spare)

        debias = np.array([[1.0 - opt.beta1**s] for s in steps])
        update = np.divide(momentum, debias, out=spare)
        update += np.multiply(mean, opt.weight_decay, out=var)  # var is rebuilt below
        update *= lr
        update /= curvature
        if opt.clip_radius is not None:
            for row in update:
                norm = float(np.linalg.norm(row))
                if norm > opt.clip_radius:
                    row *= opt.clip_radius / norm
        mean -= update
        for r in np.flatnonzero(~np.isfinite(mean).all(axis=1)).tolist():
            bad = int(np.argmin(np.isfinite(mean[r])))
            errors.setdefault(r, f"optimizer step {steps[r]}: non-finite mean at coordinate {bad}")

        np.multiply(curvature, out.ess, out=var)
        np.divide(1.0, var, out=var)
        np.sqrt(var, out=std)
    out.step_count += 1
    if errors:
        raise RowError(errors)
    return out


def linear_lr(initial: float, final: float, step: int, total_steps: int) -> float:
    """Linearly decayed learning rate; clamps outside [0, total_steps]."""
    if total_steps <= 0:
        return final
    frac = min(max(step / total_steps, 0.0), 1.0)
    return initial + (final - initial) * frac
