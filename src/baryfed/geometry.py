"""Divergences, barycenters, and projections on the diagonal-Gaussian manifold.

Every distribution here is a Gaussian with independent coordinates, stored as
a mean vector and a per-coordinate variance vector. Two divergences are
supported, reverse KL (the mode-seeking KL(q || p) of a candidate q from a
reference p) and squared Wasserstein-2, and three weighted aggregation rules
(arithmetic averaging of statistics, Wasserstein-2 barycenter, reverse-KL
barycenter). ``Divergence.KL`` (forward KL) is named but not supported: the
config and ``project`` reject it, and ``projection_divergence`` scores it as
reverse KL. Personalization is the projection of a global posterior onto a
divergence sphere around a local posterior, computed in closed form as a
two-point weighted barycenter with weights 1/(lambda+1) and
lambda/(lambda+1). ``project`` takes (J, P) stacks of (global, local)
pairs and a whole lambda grid, and makes one stacked (J, L', P) barycenter
with ``aggregate``'s formulas, in the same order of operations.

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
    """Gaussian with diagonal covariance over a flat parameter vector.

    ``mean`` and ``var`` are float64 vectors of equal length; every variance
    must be strictly positive. A contiguous float64 array is not copied: it
    is frozen in place and shared, so the caller's own array turns read-only.
    Any other input is converted into a new frozen array. A caller that keeps
    writing to an array passes a copy (as ``variopt.posterior_of`` does for
    each row of an optimizer state).
    """

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        var = np.ascontiguousarray(self.var, dtype=np.float64)
        if mean.ndim != 1 or var.ndim != 1:
            raise ValueError("mean and var must be 1-D vectors")
        if mean.shape != var.shape:
            raise ValueError(
                f"dimension mismatch: mean has length {mean.shape[0]}, "
                f"var has length {var.shape[0]}"
            )
        if mean.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.isfinite(mean).all() or not np.isfinite(var).all():
            raise ValueError("mean and var must be finite")
        if (var <= 0.0).any():
            bad = int(np.argmax(var <= 0.0))
            raise ValueError(f"non-positive variance at coordinate {bad}")
        mean.setflags(write=False)
        var.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)


class Divergence(str, Enum):
    """Scalar divergence on pairs of diagonal Gaussians."""

    KL = "KL"
    RKL = "RKL"
    W2SQ = "W2SQ"


class AggregationMethod(str, Enum):
    """Weighted aggregation rule over posterior sets."""

    EAA = "EAA"
    W2B = "W2B"
    RKLB = "RKLB"


def _check_same_dim(q: DiagGaussian, p: DiagGaussian):
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")


def kl_gaussian(q: DiagGaussian, p: DiagGaussian) -> float:
    """Forward KL divergence KL(q || p) in closed form.

    Sum over coordinates of
    (var_q/var_p + (mu_p - mu_q)^2/var_p - 1 + ln(var_p/var_q)) / 2.
    """
    _check_same_dim(q, p)
    ratio = q.var / p.var
    mahal = (p.mean - q.mean) ** 2 / p.var
    return float(0.5 * np.sum(ratio + mahal - 1.0 - np.log(ratio)))


def w2sq_gaussian(q: DiagGaussian, p: DiagGaussian) -> float:
    """Squared Wasserstein-2 distance: sum of (mu_q-mu_p)^2 + (sd_q-sd_p)^2."""
    _check_same_dim(q, p)
    return float(np.sum((q.mean - p.mean) ** 2 + (q.std - p.std) ** 2))


def projection_divergence(d: Divergence, q: DiagGaussian, p: DiagGaussian) -> float:
    """The divergence of a candidate q from a reference p as it enters the
    sphere constraint and projection objective.

    The two-point closed forms minimize this quantity over q: the Wasserstein
    barycenter minimizes the squared W2 distance, and the precision-fusion
    barycenter minimizes the mode-seeking direction KL(q || p) (the product-
    of-experts objective). Using any other direction for the RKL family would
    break the equivalence between the constrained projection and the weighted
    barycenter, because the Lagrangian would no longer be the barycenter
    objective.
    """
    d = Divergence(d)
    if d is Divergence.W2SQ:
        return w2sq_gaussian(q, p)
    return kl_gaussian(q, p)


def _check_weights(n: int, weights) -> np.ndarray:
    """n non-negative weights summing to 1 within WEIGHT_SUM_TOL, or an
    (L, n) matrix whose every row is such a weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != n:
        raise ValueError(f"need {n} weights, got shape {w.shape}")
    if (w < 0.0).any():
        bad = ", ".join(map(str, np.argwhere(w < 0.0)[0]))
        raise ValueError(f"negative weight at index {bad}")
    totals = np.atleast_1d(w.sum(axis=-1))
    off = ~(np.abs(totals - 1.0) <= WEIGHT_SUM_TOL)  # NaN is off too
    if off.any():
        total = float(totals[off][0])
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

    Weights must be non-negative and sum to 1 within 1e-9; they are
    renormalized internally. Zero-weight entries are dropped before any
    arithmetic, so degenerate weight vectors return the surviving posterior
    unchanged.
    """
    method = AggregationMethod(method)
    if len(posteriors) == 0:
        raise ValueError("need at least one posterior")
    for p in posteriors[1:]:
        _check_same_dim(p, posteriors[0])
    w = _check_weights(len(posteriors), weights)

    keep = w > 0.0
    survivors = [p for p, k in zip(posteriors, keep) if k]
    if len(survivors) == 1:
        return survivors[0]
    w = w[keep] / w[keep].sum()
    mean, var = _barycenter(method, [(wi, p.mean, p.var) for wi, p in zip(w, survivors)])
    return DiagGaussian(mean=mean, var=_floor_variance(var))


def _barycenter(method: AggregationMethod, terms) -> tuple[np.ndarray, np.ndarray]:
    """(mean, var) of the weighted barycenter of (weight, mean, var) terms.

    Scalar weights on P-long vectors give P-long vectors. (L, 1) column
    weights on (J, 1, P) rows give (J, L, P) stacks: broadcasting makes the
    same elementwise operations in the same order, so each entry has the
    bits its scalar weights give. (At P = 1 that holds below 8 terms, where
    NumPy's pairwise sum of a column is a plain running sum; a projection
    has 2.)
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
    last axis has length 1 are stacked and summed by NumPy to keep those bits
    too.
    """
    rows = iter(rows)
    first = next(rows)
    if first.shape[-1] == 1:
        return np.sum(np.stack([first, *rows]), axis=0)
    total = np.zeros_like(first)
    total += first
    for row in rows:
        total += row
    return total


_PROJECTION_METHOD = {
    Divergence.W2SQ: AggregationMethod.W2B,
    Divergence.RKL: AggregationMethod.RKLB,
}


def project(d: Divergence, p_g, p_k, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Project global posteriors onto divergence spheres around local ones.

    ``p_g`` and ``p_k`` are (mean, var) pairs of (J, P) stacks whose rows j
    are the J (global, local) pairs. The constrained projection is solved in
    closed form as the two-point weighted barycenter of (p_g, p_k) with
    weights (1/(lambda+1), lambda/(lambda+1)); the sphere radius shrinks as
    lambda grows. Returns the read-only (mean, var) pair of (J, L', P)
    stacks for the grid's L' finite positive lambdas, in grid order: one
    stacked barycenter, floored and checked finite once, whose entry [j, l]
    has the bits ``aggregate`` gives for pair j at that lambda's weights.
    lambda = 0 is p_g itself and lambda = inf p_k itself, so they get no row.

    Only RKL and W2SQ are supported: their barycenters stay inside the
    diagonal-Gaussian family. Forward KL is rejected.
    """
    d = Divergence(d)
    if d not in _PROJECTION_METHOD:
        raise ValueError(f"unsupported divergence for projection: {d.value}")
    if len({np.shape(a) for a in (*p_g, *p_k)}) != 1 or np.ndim(p_g[0]) != 2:
        raise ValueError("need four (J, P) stacks of one shape")
    for lam in lambdas:
        if not lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
    lams = np.asarray(lambdas, dtype=np.float64)
    inner = lams[(lams > 0.0) & (lams < math.inf)]
    w = _check_weights(2, np.stack([1.0 / (inner + 1.0), inner / (inner + 1.0)], axis=1))
    w = w / w.sum(axis=1, keepdims=True)
    # (L', 1) weights on (J, 1, P) rows broadcast to (J, L', P)
    terms = [(wi, m[:, None], v[:, None]) for wi, (m, v) in zip((w[:, :1], w[:, 1:]), (p_g, p_k))]
    mean, var = _barycenter(_PROJECTION_METHOD[d], terms)
    var = _floor_variance(var)
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise ValueError("mean and var must be finite")
    mean.setflags(write=False)
    var.setflags(write=False)
    return mean, var
