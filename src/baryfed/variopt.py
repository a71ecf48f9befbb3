"""Variational online-Newton optimizer over a diagonal-Gaussian posterior.

The optimizer tracks a per-coordinate mean, Hessian estimate, and gradient
momentum. The posterior variance is tied to the Hessian through
var = 1/(N*(h + delta)) with N the effective sample size and delta the
weight decay, so the covariance can be reconstructed from the Hessian and
vice versa. Updates use a sampled-gradient second-order rule: a reparameterized
per-coordinate Hessian estimate feeds an exponential moving average, and the
mean moves along the momentum direction preconditioned by the Hessian.

A state is a stack (K, P) of K independent states, one per client of a
round, each row with its own effective sample size and step count. Every
operation acts row by row, so a row of a stack is bit-identical to that
state stepped alone as a stack of one. ``sample_params`` writes into an
``out`` buffer and ``ivon_step`` steps its state in place, so a training
loop allocates no P-long array per step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import OptimizerCfg
from .geometry import DiagGaussian
from .models import RowError

log = logging.getLogger(__name__)


@dataclass(eq=False)
class IvonState:
    """A stack of K per-coordinate optimizer states: ``mean``, ``hess`` and
    ``grad_momentum`` (K, P), row k for a training set of ``ess[k, 0]``
    examples after ``step_count[k]`` steps.

    ``opt`` supplies beta1, beta2, h0, the weight decay delta and the
    optional update clip radius. ``var`` (the posterior variance implied by
    the Hessian) and ``std`` are computed on construction and kept current
    by ``ivon_step``; ``work`` is its scratch space. ``state[rows]``, for a
    slice or a list of rows, is the state of those rows; for a slice its
    arrays are views, so stepping it in place steps those rows of the stack.
    """

    mean: np.ndarray
    hess: np.ndarray
    grad_momentum: np.ndarray
    opt: OptimizerCfg
    ess: np.ndarray
    step_count: np.ndarray
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


def posterior_of(state: IvonState) -> list[DiagGaussian]:
    """The posterior each row implies, in arrays of its own."""
    return [DiagGaussian(mean=m.copy(), var=v.copy()) for m, v in zip(state.mean, state.var)]


def hessian_of(post: DiagGaussian, ess: float, delta: float) -> np.ndarray:
    """Invert the variance relation: h = 1/(N*var) - delta, rectified at 0."""
    h = 1.0 / (ess * post.var) - delta
    if np.any(h < 0.0):
        log.warning(
            "hessian rectified at 0 for %d coordinate(s)", int(np.sum(h < 0.0))
        )
        h = np.maximum(h, 0.0)
    return h


def sample_params(state: IvonState, rngs, out: np.ndarray) -> np.ndarray:
    """Draws mean + std * z from each row's posterior.

    Takes one generator per row and fills ``out`` (K, S, P) with each row's
    S draws; row k's S x P normals come from ``rngs[k]`` in the order S
    separate draws would take them. Returns ``out``.
    """
    for gen, block in zip(rngs, out):
        gen.standard_normal(out=block)
    out *= state.std[:, None]
    out += state.mean[:, None]
    return out


def ivon_step(
    state: IvonState,
    grad: np.ndarray,
    theta_sampled: np.ndarray,
    lr: float,
    update_hessian: bool = True,
) -> None:
    """One optimizer step of size ``lr`` for every row of ``state``, in place,
    from gradients at posterior samples.

    ``grad`` and ``theta_sampled`` are (K, S, P): S samples per row. The
    samples average both the gradient and the per-coordinate Hessian
    products grad * (theta_sampled - mean) / var, with var taken before the
    update. The Hessian estimate enters an EMA rectified at zero, then the
    mean moves along the bias-corrected gradient momentum plus weight decay,
    preconditioned by 1/(hess + delta); with a clip radius each row's
    update is clipped to it. ``update_hessian=False`` freezes the
    curvature, which turns the rule into a deterministic preconditioned
    momentum step.

    A non-finite gradient, a Hessian with h + delta <= 0 or a non-finite
    new mean fails its row: once every row is stepped, RowError names the
    step and the first bad coordinate of each failed row, whose values are
    then meaningless. Floating-point warnings are silenced, as each one
    ends in a failed row.
    """
    opt = state.opt
    grad = np.asarray(grad, dtype=np.float64)
    theta_sampled = np.asarray(theta_sampled, dtype=np.float64)
    if (
        state.mean.ndim != 2
        or grad.ndim != 3
        or grad.shape != theta_sampled.shape
        or grad.shape[::2] != state.mean.shape
    ):
        raise ValueError(
            f"gradients must be (K, S, P) for a (K, P) state, got {grad.shape} "
            f"for {state.mean.shape}"
        )
    mean, hess, momentum, var, std = (
        state.mean, state.hess, state.grad_momentum, state.var, state.std
    )
    work, spare = state.work
    samples = grad.shape[1]
    steps = (state.step_count + 1).tolist()

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

        np.multiply(curvature, state.ess, out=var)
        np.divide(1.0, var, out=var)
        np.sqrt(var, out=std)
    state.step_count += 1
    if errors:
        raise RowError(errors)


def linear_lr(initial: float, final: float, step: int, total_steps: int) -> float:
    """Linearly decayed learning rate; clamps outside [0, total_steps]."""
    if total_steps <= 0:
        return final
    frac = min(max(step / total_steps, 0.0), 1.0)
    return initial + (final - initial) * frac
