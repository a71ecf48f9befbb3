"""Variational online-Newton optimizer over a diagonal-Gaussian posterior.

The optimizer tracks a per-coordinate mean, Hessian estimate, and gradient
momentum. The posterior variance is tied to the Hessian through
var = 1/(N*(h + delta)) with N the effective sample size and delta the
weight decay, so the covariance can be reconstructed from the Hessian and
vice versa. Updates use a sampled-gradient second-order rule: a reparameterized
per-coordinate Hessian estimate feeds an exponential moving average, and the
mean moves along the momentum direction preconditioned by the Hessian.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .config import OptimizerCfg
from .geometry import DiagGaussian

log = logging.getLogger(__name__)


@dataclass
class IvonState:
    """Per-coordinate optimizer state for a training set of ``ess`` examples.

    Owned by a single training loop; ``opt`` supplies beta1, beta2, h0, the
    weight decay delta and the optional update clip radius.
    """

    mean: np.ndarray
    hess: np.ndarray
    grad_momentum: np.ndarray
    opt: OptimizerCfg
    ess: float
    step_count: int = 0

    @property
    def var(self) -> np.ndarray:
        """Posterior variance implied by the Hessian: var = 1/(N*(h + delta))."""
        return 1.0 / (self.ess * (self.hess + self.opt.weight_decay))


def ivon_init(dim: int, opt: OptimizerCfg, ess: float, mean=None) -> IvonState:
    """Fresh state: Hessian filled with h0, momentum zero, step count zero.

    ``mean`` is the model initializer's flat parameter vector; when omitted
    the mean starts at zero (useful for non-network objectives).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if mean is None:
        mean = np.zeros(dim)
    mean = np.asarray(mean, dtype=np.float64).copy()
    if mean.shape != (dim,):
        raise ValueError(f"mean must have shape ({dim},), got {mean.shape}")
    return IvonState(
        mean=mean, hess=np.full(dim, float(opt.h0)), grad_momentum=np.zeros(dim), opt=opt, ess=ess
    )


def ivon_from_posterior(post: DiagGaussian, opt: OptimizerCfg, ess: float) -> IvonState:
    """Restart at ``post``: its mean, the Hessian its variance implies under
    (ess, delta), and zero momentum and step count."""
    return IvonState(
        mean=post.mean.copy(),
        hess=hessian_of(post, ess, opt.weight_decay),
        grad_momentum=np.zeros(post.dim),
        opt=opt,
        ess=ess,
    )


def posterior_of(state: IvonState) -> DiagGaussian:
    """Posterior implied by the state."""
    return DiagGaussian(mean=state.mean.copy(), var=state.var)


def hessian_of(post: DiagGaussian, ess: float, delta: float) -> np.ndarray:
    """Invert the variance relation: h = 1/(N*var) - delta, rectified at 0."""
    h = 1.0 / (ess * post.var) - delta
    if np.any(h < 0.0):
        log.warning(
            "hessian rectified at 0 for %d coordinate(s)", int(np.sum(h < 0.0))
        )
        h = np.maximum(h, 0.0)
    return h


def sample_params(state: IvonState, rng: np.random.Generator) -> np.ndarray:
    """Draw one parameter vector from the current posterior."""
    return state.mean + np.sqrt(state.var) * rng.standard_normal(state.mean.shape[0])


def ivon_step(
    state: IvonState,
    grad: np.ndarray,
    theta_sampled: np.ndarray,
    lr: float,
    update_hessian: bool = True,
) -> IvonState:
    """One optimizer step of size ``lr`` from gradients at posterior samples.

    ``grad`` and ``theta_sampled`` are either single flat vectors or stacked
    (samples, dim) arrays; multiple samples average both the gradient and the
    per-coordinate Hessian products grad * (theta_sampled - mean) / var, with
    var taken before the update. The Hessian estimate enters an EMA rectified
    at zero, then the mean moves along the bias-corrected gradient momentum
    plus weight decay, preconditioned by 1/(hess + delta).
    ``update_hessian=False`` freezes the curvature, which turns the rule into
    a deterministic preconditioned momentum step. A non-finite gradient, a
    Hessian with h + delta <= 0 or a non-finite new mean raises ValueError
    naming the step and the first bad coordinate.
    """
    opt = state.opt
    grad = np.atleast_2d(np.asarray(grad, dtype=np.float64))
    theta_sampled = np.atleast_2d(np.asarray(theta_sampled, dtype=np.float64))
    dim = state.mean.shape[0]
    if grad.shape[1] != dim or grad.shape != theta_sampled.shape:
        raise ValueError(
            f"gradient shape {grad.shape} incompatible with state dim {dim}"
        )
    steps = state.step_count + 1
    if not np.all(np.isfinite(grad)):
        bad = int(np.argmax(np.any(~np.isfinite(grad), axis=0)))
        raise ValueError(f"optimizer step {steps}: non-finite gradient at coordinate {bad}")

    if update_hessian:
        hess_sample = np.mean(grad * (theta_sampled - state.mean), axis=0) / state.var
        hess = np.maximum(opt.beta2 * state.hess + (1.0 - opt.beta2) * hess_sample, 0.0)
    else:
        hess = state.hess
    curvature = hess + opt.weight_decay
    if not np.all(curvature > 0.0):
        bad = int(np.argmin(curvature > 0.0))
        raise ValueError(
            f"optimizer step {steps}: h + delta = {curvature[bad]:g} at coordinate {bad}, "
            "must be > 0"
        )

    mean_grad = grad.mean(axis=0)
    momentum = opt.beta1 * state.grad_momentum + (1.0 - opt.beta1) * mean_grad
    debiased = momentum / (1.0 - opt.beta1**steps)

    update = lr * (debiased + opt.weight_decay * state.mean) / curvature
    if opt.clip_radius is not None:
        norm = float(np.linalg.norm(update))
        if norm > opt.clip_radius:
            update = update * (opt.clip_radius / norm)
    mean = state.mean - update
    if not np.all(np.isfinite(mean)):
        bad = int(np.argmin(np.isfinite(mean)))
        raise ValueError(f"optimizer step {steps}: non-finite mean at coordinate {bad}")

    return dataclasses.replace(
        state, mean=mean, hess=hess, grad_momentum=momentum, step_count=steps
    )


def linear_lr(initial: float, final: float, step: int, total_steps: int) -> float:
    """Linearly decayed learning rate; clamps outside [0, total_steps]."""
    if total_steps <= 0:
        return final
    frac = min(max(step / total_steps, 0.0), 1.0)
    return initial + (final - initial) * frac
