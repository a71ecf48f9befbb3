"""Divergences, barycenters, and projections on the diagonal-Gaussian manifold.

Every distribution here is a Gaussian with independent coordinates, stored as
a mean vector and a per-coordinate variance vector. There are two
divergences, reverse KL (the mode-seeking KL(q || p) of a candidate q from a
reference p) and squared Wasserstein-2, and three weighted aggregation rules
(arithmetic averaging of statistics, Wasserstein-2 barycenter, reverse-KL
barycenter). Personalization is the projection of a global posterior onto a
divergence sphere around a local posterior, computed in closed form as a
two-point weighted barycenter with weights 1/(lambda+1) and
lambda/(lambda+1). A ``DiagGaussian`` holds one posterior or a stack of
them. ``aggregate`` fuses K posteriors, or K (L, P) stacks with (L, K)
weights, L independent fusions in one call; ``projection_divergence``
scores two stacks of one shape row by row; and ``project`` takes (J, P)
stacks of (global, local) pairs and a whole lambda grid, and makes one
stacked (J, L', P) barycenter with ``aggregate``'s formulas. A stacked
call makes the same operations in the same order as a call per row, so
each row has that call's bits.

All functions are pure and operate on immutable inputs; they are safe to call
concurrently.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

log = logging.getLogger(__name__)

VAR_FLOOR = 1e-12
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance over a flat parameter vector, or a
    stack of them.

    ``mean`` and ``var`` are float64 arrays of one shape (..., P): one
    posterior of dimension P, or a stack of posteriors along the leading
    axes. Every value must be finite and every variance strictly positive.
    ``post[i]`` is ``DiagGaussian(mean[i], var[i])``, so ``post[None]`` is a
    stack of one; a row or a stack of one is a view, not checked again. A
    contiguous float64 array is not copied: it is frozen in place and
    shared, so the caller's own array turns read-only. Any other input is
    converted into a new frozen array. A caller that keeps writing to an
    array passes a copy.
    """

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        var = np.ascontiguousarray(self.var, dtype=np.float64)
        if mean.shape != var.shape:
            raise ValueError(f"shape mismatch: mean is {mean.shape}, var is {var.shape}")
        if mean.shape[-1] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.isfinite(mean).all() or not np.isfinite(var).all():
            raise ValueError("mean and var must be finite")
        if (var <= 0.0).any():
            bad = int(np.argmax(var <= 0.0)) % var.shape[-1]
            raise ValueError(f"non-positive variance at coordinate {bad}")
        mean.setflags(write=False)
        var.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    def __getitem__(self, rows) -> DiagGaussian:
        if rows is None or (isinstance(rows, int) and self.mean.ndim > 1):
            # one row of a stack, or a stack of one, is a contiguous view of
            # checked, read-only arrays: it needs no second check
            view = object.__new__(DiagGaussian)
            object.__setattr__(view, "mean", self.mean[rows])
            object.__setattr__(view, "var", self.var[rows])
            return view
        return DiagGaussian(mean=self.mean[rows], var=self.var[rows])

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)


class Divergence(str, Enum):
    """Scalar divergence on pairs of diagonal Gaussians."""

    RKL = "RKL"
    W2SQ = "W2SQ"


class AggregationMethod(str, Enum):
    """Weighted aggregation rule over posterior sets."""

    EAA = "EAA"
    W2B = "W2B"
    RKLB = "RKLB"


def _check_same_shape(q: DiagGaussian, p: DiagGaussian):
    if q.mean.shape != p.mean.shape:
        raise ValueError(f"shape mismatch: {q.mean.shape} vs {p.mean.shape}")


def projection_divergence(d: Divergence, q: DiagGaussian, p: DiagGaussian) -> float | np.ndarray:
    """The divergence of a candidate q from a reference p, summed over
    coordinates, as it enters the sphere constraint and projection objective.
    q and p are of one shape: two posteriors give a float, and two (..., P)
    stacks the (...) divergences of their rows, each with the bits of its
    own pair.

    W2SQ is the squared Wasserstein-2 distance,
    (mu_q - mu_p)^2 + (sd_q - sd_p)^2. RKL is the mode-seeking KL(q || p),
    (var_q/var_p + (mu_p - mu_q)^2/var_p - 1 - ln(var_q/var_p)) / 2. Each is
    the objective its two-point barycenter minimizes over q: the Wasserstein
    barycenter for W2SQ, precision fusion (the product-of-experts objective)
    for RKL. That is what makes the constrained projection equal to the
    weighted barycenter.
    """
    d = Divergence(d)
    _check_same_shape(q, p)
    if d is Divergence.W2SQ:
        return np.sum((q.mean - p.mean) ** 2 + (q.std - p.std) ** 2, axis=-1)
    ratio = q.var / p.var
    mahal = (p.mean - q.mean) ** 2 / p.var
    return 0.5 * np.sum(ratio + mahal - 1.0 - np.log(ratio), axis=-1)


def _check_weights(shape: tuple[int, ...], weights) -> np.ndarray:
    """Non-negative weights of ``shape``, each row (last axis) summing to 1
    within WEIGHT_SUM_TOL."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != shape:
        raise ValueError(f"need weights of shape {shape}, got {w.shape}")
    if (w < 0.0).any():
        bad = int(np.argmax(w < 0.0)) % shape[-1]
        raise ValueError(f"negative weight at index {bad}")
    total = w.sum(axis=-1)
    if not (np.abs(total - 1.0) <= WEIGHT_SUM_TOL).all():  # NaN fails too
        raise ValueError(f"weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}")
    return w


def _floor_variance(var: np.ndarray) -> np.ndarray:
    low = var < VAR_FLOOR
    if low.any():
        log.warning("variance floor applied to %d coordinate(s)", int(low.sum()))
        var = np.maximum(var, VAR_FLOOR)
    return var


def aggregate(
    method: AggregationMethod,
    posteriors: list[DiagGaussian],
    weights,
) -> DiagGaussian:
    """Weighted aggregation of diagonal-Gaussian posteriors.

    EAA averages means and variances; W2B averages means and standard
    deviations (variance is the squared averaged std); RKLB fuses precisions
    (precision-weighted mean, harmonic combination of variances).

    The K ``posteriors`` are of one shape: K posteriors of dimension P with
    K weights, or K (L, P) stacks with (L, K) weights, which fuse L
    independent sets at once, row l of each stack weighted by row l of the
    weights. A stack's row l of the result has the bits that a call on the
    rows l and the weights of row l gives: the same operations in the same
    order.

    Weights must be non-negative and each row must sum to 1 within 1e-9;
    they are renormalized internally. Zero-weight members are dropped before
    any arithmetic, so a degenerate weight vector returns the surviving
    posterior itself, unchanged; in a stack, a member's weight must be zero
    in every row or in none.
    """
    method = AggregationMethod(method)
    if len(posteriors) == 0:
        raise ValueError("need at least one posterior")
    for p in posteriors[1:]:
        _check_same_shape(p, posteriors[0])
    w = _check_weights(posteriors[0].mean.shape[:-1] + (len(posteriors),), weights)

    kept = (w > 0.0).reshape(-1, len(posteriors))  # one row per fused set
    keep = kept[0]
    if (kept != keep).any():
        raise ValueError("a zero weight must be zero in every row of the weights")
    survivors = [p for p, k in zip(posteriors, keep) if k]
    if len(survivors) == 1:
        return survivors[0]
    w = np.compress(keep, w, axis=-1)  # C order, unlike w[..., keep], so each row sums pairwise
    w = w / w.sum(axis=-1, keepdims=True)
    # (..., 1) weight columns broadcast over each stack's last axis
    terms = [(w[..., i, None], p.mean, p.var) for i, p in enumerate(survivors)]
    mean, var = _barycenter(method, terms)
    return DiagGaussian(mean=mean, var=_floor_variance(var))


def _barycenter(method: AggregationMethod, terms) -> tuple[np.ndarray, np.ndarray]:
    """(mean, var) of the weighted barycenter of (weight, mean, var) terms.

    Weights broadcast against the rows: (1,) weights on P-long vectors give
    P-long vectors, (L, 1) weights on (L, P) stacks give (L, P) stacks, and
    (L', 1) weights on (J, 1, P) rows give (J, L', P) stacks. Broadcasting
    makes the same elementwise operations in the same order, so each entry
    has the bits that scalar weights on its own vectors give.
    """
    if method is AggregationMethod.EAA:
        mean = _sum_rows(wi * m for wi, m, _ in terms)
        var = _sum_rows(wi * v for wi, _, v in terms)
    elif method is AggregationMethod.W2B:
        mean = _sum_rows(wi * m for wi, m, _ in terms)
        std = _sum_rows(wi * np.sqrt(v) for wi, _, v in terms)
        var = std**2
    else:  # RKLB
        prec = _sum_rows(wi / v for wi, _, v in terms)
        var = 1.0 / prec
        mean = var * _sum_rows(wi * m / v for wi, m, v in terms)
    return mean, var


def _sum_rows(rows) -> np.ndarray:
    """Sum of equal-shape arrays, added one at a time onto zeros.

    These are the additions, in the same order, that ``np.sum(stack,
    axis=0)`` makes over the stacked rows, so the bits are the same; but only
    the running total and one row are alive at a time, never a (K, P) stack
    and its temporaries. NumPy sums a single column pairwise, so arrays whose
    last axis has length 1 are summed by NumPy along a new last axis, which
    sums each entry's K terms pairwise as a lone (K, 1) column does, however
    many entries share the call.
    """
    rows = iter(rows)
    first = next(rows)
    if first.shape[-1] == 1:
        return np.sum(np.stack([first, *rows], axis=-1), axis=-1)
    total = np.zeros_like(first)
    total += first
    for row in rows:
        total += row
    return total


_PROJECTION_METHOD = {
    Divergence.W2SQ: AggregationMethod.W2B,
    Divergence.RKL: AggregationMethod.RKLB,
}


def project(d: Divergence, p_g: DiagGaussian, p_k: DiagGaussian, lambdas) -> DiagGaussian:
    """Project global posteriors onto divergence spheres around local ones.

    ``p_g`` and ``p_k`` are (J, P) stacks whose rows j are the J (global,
    local) pairs. The projection of p_g onto the sphere of divergence ``d``
    around p_k is the two-point barycenter of (p_g, p_k) that minimizes
    ``d``: W2B for W2SQ, RKLB for RKL, with weights (1/(lambda+1),
    lambda/(lambda+1)), renormalized as ``aggregate`` does. The sphere
    radius shrinks as lambda grows. Returns the (J, L', P) stack for the
    grid's L' finite positive lambdas, in grid order: one stacked
    barycenter, floored once, whose entry [j, l] has the bits ``aggregate``
    gives for pair j at that lambda's weights. lambda = 0 is p_g itself and
    lambda = inf p_k itself, so they get no row.
    """
    if p_g.mean.ndim != 2 or p_g.mean.shape != p_k.mean.shape:
        raise ValueError("need two (J, P) stacks of one shape")
    for lam in lambdas:
        if not lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
    lams = np.asarray(lambdas, dtype=np.float64)
    inner = lams[(lams > 0.0) & (lams < math.inf)]
    w = np.stack([1.0 / (inner + 1.0), inner / (inner + 1.0)], axis=1)
    w = w / w.sum(axis=1, keepdims=True)
    # (L', 1) weights on (J, 1, P) rows broadcast to (J, L', P)
    terms = [(wi, p.mean[:, None], p.var[:, None]) for wi, p in zip((w[:, :1], w[:, 1:]), (p_g, p_k))]
    mean, var = _barycenter(_PROJECTION_METHOD[Divergence(d)], terms)
    return DiagGaussian(mean=mean, var=_floor_variance(var))
