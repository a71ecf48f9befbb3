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

from .geometry import DiagGaussian

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class IvonHyper:
    """Scalar hyperparameters; ess is the client's training-set size."""

    ess: int
    lr: float = 0.1
    weight_decay: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99999
    h0: float = 5.0
    clip_radius: float | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.h0 <= 0:
            raise ValueError(f"h0 must be > 0, got {self.h0}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.ess < 1:
            raise ValueError("ess must be a positive integer")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.clip_radius is not None and self.clip_radius <= 0:
            raise ValueError("clip_radius must be > 0 or None")


@dataclass
class IvonState:
    """Per-coordinate optimizer state; owned by a single training loop."""

    mean: np.ndarray
    hess: np.ndarray
    grad_momentum: np.ndarray
    hyper: IvonHyper
    step_count: int = 0


def ivon_init(dim: int, hyper: IvonHyper, mean=None) -> IvonState:
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
        mean=mean,
        hess=np.full(dim, float(hyper.h0)),
        grad_momentum=np.zeros(dim),
        hyper=hyper,
        step_count=0,
    )


def posterior_of(state: IvonState) -> DiagGaussian:
    """Posterior implied by the state: var = 1/(N*(h + delta))."""
    var = 1.0 / (state.hyper.ess * (state.hess + state.hyper.weight_decay))
    return DiagGaussian(mean=state.mean.copy(), var=var)


def hessian_of(post: DiagGaussian, ess: int, delta: float) -> np.ndarray:
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
    sigma = np.sqrt(1.0 / (state.hyper.ess * (state.hess + state.hyper.weight_decay)))
    return state.mean + sigma * rng.standard_normal(state.mean.shape[0])


def ivon_step(
    state: IvonState,
    grad: np.ndarray,
    theta_sampled: np.ndarray,
    lr: float | None = None,
    update_hessian: bool = True,
) -> IvonState:
    """One optimizer step from gradients evaluated at posterior samples.

    ``grad`` and ``theta_sampled`` are either single flat vectors or stacked
    (samples, dim) arrays; multiple samples average both the gradient and the
    per-coordinate Hessian products grad * (theta_sampled - mean) / var, with
    var taken before the update. The Hessian estimate enters an EMA rectified
    at zero, then the mean moves along the bias-corrected gradient momentum
    plus weight decay, preconditioned by 1/(hess + delta). ``lr`` overrides
    the stored learning rate (scheduling hook); ``update_hessian=False``
    freezes the curvature, which turns the rule into a deterministic
    preconditioned momentum step.
    """
    hyper = state.hyper
    grad = np.atleast_2d(np.asarray(grad, dtype=np.float64))
    theta_sampled = np.atleast_2d(np.asarray(theta_sampled, dtype=np.float64))
    dim = state.mean.shape[0]
    if grad.shape[1] != dim or grad.shape != theta_sampled.shape:
        raise ValueError(
            f"gradient shape {grad.shape} incompatible with state dim {dim}"
        )
    if not np.all(np.isfinite(grad)):
        bad = int(np.argmax(np.any(~np.isfinite(grad), axis=0)))
        raise ValueError(f"non-finite gradient at coordinate {bad}")

    if update_hessian:
        var = 1.0 / (hyper.ess * (state.hess + hyper.weight_decay))
        hess_sample = np.mean(grad * (theta_sampled - state.mean), axis=0) / var
        hess = np.maximum(hyper.beta2 * state.hess + (1.0 - hyper.beta2) * hess_sample, 0.0)
    else:
        hess = state.hess

    mean_grad = grad.mean(axis=0)
    momentum = hyper.beta1 * state.grad_momentum + (1.0 - hyper.beta1) * mean_grad
    steps = state.step_count + 1
    debiased = momentum / (1.0 - hyper.beta1**steps)

    step_lr = hyper.lr if lr is None else lr
    update = step_lr * (debiased + hyper.weight_decay * state.mean) / (hess + hyper.weight_decay)
    if hyper.clip_radius is not None:
        norm = float(np.linalg.norm(update))
        if norm > hyper.clip_radius:
            update = update * (hyper.clip_radius / norm)

    return dataclasses.replace(
        state,
        mean=state.mean - update,
        hess=hess,
        grad_momentum=momentum,
        step_count=steps,
    )


def linear_lr(initial: float, final: float, step: int, total_steps: int) -> float:
    """Linearly decayed learning rate; clamps outside [0, total_steps]."""
    if total_steps <= 0:
        return final
    frac = min(max(step / total_steps, 0.0), 1.0)
    return initial + (final - initial) * frac
