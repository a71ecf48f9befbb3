"""Divergences, barycenters, and projections on the diagonal-Gaussian manifold.

Every distribution here is a Gaussian with independent coordinates, stored as
a mean vector and a per-coordinate variance vector. Three divergences are
supported (forward KL, reverse KL, squared Wasserstein-2), and three weighted
aggregation rules (arithmetic averaging of statistics, Wasserstein-2
barycenter, reverse-KL barycenter). Personalization is the projection of a
global posterior onto a divergence sphere around a local posterior, computed
in closed form as a two-point weighted barycenter with weights 1/(lambda+1)
and lambda/(lambda+1).

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
    must be strictly positive. Arrays are copied and frozen on construction.
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
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(var)):
            raise ValueError("mean and var must be finite")
        if np.any(var <= 0.0):
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
    """n non-negative weights summing to 1 within WEIGHT_SUM_TOL."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != n:
        raise ValueError(f"need {n} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        bad = int(np.argmax(w < 0.0))
        raise ValueError(f"negative weight at index {bad}")
    total = float(w.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN fails too
        raise ValueError(f"weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}")
    return w


def _floor_variance(var: np.ndarray) -> np.ndarray:
    if np.any(var < VAR_FLOOR):
        n = int(np.sum(var < VAR_FLOOR))
        log.warning("variance floor applied to %d coordinate(s)", n)
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
    dim = posteriors[0].dim
    for p in posteriors[1:]:
        if p.dim != dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {dim}")
    w = _check_weights(len(posteriors), weights)

    keep = w > 0.0
    survivors = [p for p, k in zip(posteriors, keep) if k]
    if len(survivors) == 1:
        return survivors[0]
    w = w[keep] / w[keep].sum()

    means = np.stack([p.mean for p in survivors])
    variances = np.stack([p.var for p in survivors])
    wcol = w[:, None]

    if method is AggregationMethod.EAA:
        mean = np.sum(wcol * means, axis=0)
        var = np.sum(wcol * variances, axis=0)
    elif method is AggregationMethod.W2B:
        mean = np.sum(wcol * means, axis=0)
        std = np.sum(wcol * np.sqrt(variances), axis=0)
        var = std**2
    else:  # RKLB
        prec = np.sum(wcol / variances, axis=0)
        var = 1.0 / prec
        mean = var * np.sum(wcol * means / variances, axis=0)

    return DiagGaussian(mean=mean, var=_floor_variance(var))


_PROJECTION_METHOD = {
    Divergence.W2SQ: AggregationMethod.W2B,
    Divergence.RKL: AggregationMethod.RKLB,
}


def project(
    d: Divergence,
    p_g: DiagGaussian,
    p_k: DiagGaussian,
    lam: float,
) -> DiagGaussian:
    """Project the global posterior onto a divergence sphere around the local one.

    The constrained projection is solved in closed form as the two-point
    weighted barycenter of (p_g, p_k) with weights (1/(lambda+1),
    lambda/(lambda+1)). lambda = 0 returns p_g unchanged, lambda = inf
    returns p_k unchanged; the sphere radius shrinks as lambda grows.

    Only RKL and W2SQ are supported: their barycenters stay inside the
    diagonal-Gaussian family. Forward KL is rejected.
    """
    d = Divergence(d)
    if d not in _PROJECTION_METHOD:
        raise ValueError(f"unsupported divergence for projection: {d.value}")
    _check_same_dim(p_g, p_k)
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if math.isinf(lam):
        return p_k
    return aggregate(_PROJECTION_METHOD[d], [p_g, p_k], [1.0 / (lam + 1.0), lam / (lam + 1.0)])


def geodesic_sweep(
    d: Divergence,
    p_g: DiagGaussian,
    p_k: DiagGaussian,
    lambdas,
) -> list[DiagGaussian]:
    """Project at each lambda of an ascending grid; endpoints are exact."""
    lams = list(lambdas)
    for a, b in zip(lams, lams[1:]):
        if not a <= b:
            raise ValueError("lambda grid must be sorted ascending")
    if lams and lams[0] < 0:
        raise ValueError("lambda grid must be non-negative")
    return [project(d, p_g, p_k, lam) for lam in lams]


def _feasible_var_window(mus, vk_mu_cost, v_ref, radius):
    """Per-mu variance interval where the KL-family constraint holds.

    For fixed mu the constraint c(v) = vk_mu_cost + (v/v_ref - ln(v/v_ref)
    - 1)/2 is unimodal in v with its minimum at v = v_ref, so each side of
    the interval is found by bisection. Infeasible mus get an empty window
    (lo > hi).
    """
    slack = radius - vk_mu_cost
    feasible = slack >= 0.0
    # z - ln z - 1 = 2*slack in z = v/v_ref; bracket the two roots
    z_hi0 = np.full_like(mus, 2.0 + 4.0 * max(radius, 1e-30))
    z_lo0 = np.full_like(mus, math.exp(-(1.0 + 2.0 * max(radius, 1e-30))))

    def g(z):
        return 0.5 * (z - np.log(z) - 1.0)

    lo_a, lo_b = z_lo0, np.ones_like(mus)
    hi_a, hi_b = np.ones_like(mus), z_hi0
    for _ in range(80):
        mid = 0.5 * (lo_a + lo_b)
        too_high = g(mid) > slack
        lo_a = np.where(too_high, mid, lo_a)
        lo_b = np.where(too_high, lo_b, mid)
        mid = 0.5 * (hi_a + hi_b)
        too_high = g(mid) > slack
        hi_b = np.where(too_high, mid, hi_b)
        hi_a = np.where(too_high, hi_a, mid)
    v_lo = np.where(feasible, lo_b * v_ref, np.inf)
    v_hi = np.where(feasible, hi_a * v_ref, -np.inf)
    return v_lo, v_hi


def _reduced_objective(
    d: Divergence, mus: np.ndarray, p_g: DiagGaussian, p_k: DiagGaussian, radius: float
):
    """Objective minimized exactly over sigma for every candidate mu.

    The sphere constraint pins sigma to an interval per mu (solved in closed
    form for W2SQ, by bisection for the KL family), and the objective is
    unimodal in sigma with a known unconstrained minimizer, so clipping that
    minimizer into the interval is exact. Returns (values, sds); infeasible
    mus carry +inf.
    """
    mg, vg = float(p_g.mean[0]), float(p_g.var[0])
    mk, vk = float(p_k.mean[0]), float(p_k.var[0])
    if d is Divergence.W2SQ:
        sk = math.sqrt(vk)
        sg = math.sqrt(vg)
        gap = radius - (mus - mk) ** 2
        feasible = gap >= 0.0
        half = np.sqrt(np.maximum(gap, 0.0))
        sd_lo = np.maximum(sk - half, 0.0)
        sd_hi = sk + half
        sd = np.clip(sg, sd_lo, sd_hi)
        value = (mus - mg) ** 2 + (sd - sg) ** 2
        return np.where(feasible, value, np.inf), sd
    # KL family: constraint KL(cand || p_k) <= radius, objective KL(cand || p_g)
    mu_cost_k = 0.5 * (mus - mk) ** 2 / vk
    v_lo, v_hi = _feasible_var_window(mus, mu_cost_k, vk, radius)
    v = np.clip(vg, v_lo, v_hi)
    feasible = v_lo <= v_hi
    v_safe = np.where(feasible, v, vg)
    ratio = v_safe / vg
    value = 0.5 * (ratio - np.log(ratio) - 1.0) + 0.5 * (mus - mg) ** 2 / vg
    return np.where(feasible, value, np.inf), np.sqrt(v_safe)


def numeric_projection_oracle(
    d: Divergence,
    p_g: DiagGaussian,
    p_k: DiagGaussian,
    radius: float,
) -> DiagGaussian:
    """Brute-force constrained projection for 1-D sanity checks.

    Minimizes D(p || p_g) subject to D(p || p_k) <= radius, with both sides
    evaluated by projection_divergence. The search scans mu on a grid (step
    1e-3, then a 1e-6 refinement around the best point) and, for each mu,
    resolves the optimal sigma exactly from the constraint interval, so the
    result carries no sigma discretization error. Deliberately derivative-free
    and independent of the closed-form path it validates.
    """
    d = Divergence(d)
    if p_g.dim != 1 or p_k.dim != 1:
        raise ValueError("oracle supports dimension 1 only")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0.0:
        return p_k
    if projection_divergence(d, p_g, p_k) <= radius:
        return p_g

    mg, mk = float(p_g.mean[0]), float(p_k.mean[0])
    mu_span = max(abs(mg - mk), 0.5)
    mu_lo = min(mg, mk) - 3.0 * mu_span
    mu_hi = max(mg, mk) + 3.0 * mu_span

    step1 = 1e-3
    mus = np.arange(mu_lo, mu_hi + step1, step1)
    mus = np.concatenate([mus, [mg, mk]])  # the ball always contains mk
    values, sds = _reduced_objective(d, mus, p_g, p_k, radius)
    best = int(np.argmin(values))

    step2 = 1e-6
    fine = np.arange(mus[best] - 3.0 * step1, mus[best] + 3.0 * step1 + step2, step2)
    values2, sds2 = _reduced_objective(d, fine, p_g, p_k, radius)
    best2 = int(np.argmin(values2))
    if values2[best2] <= values[best]:
        mu_star, sd_star = float(fine[best2]), float(sds2[best2])
    else:
        mu_star, sd_star = float(mus[best]), float(sds[best])
    return DiagGaussian(mean=np.array([mu_star]), var=np.array([sd_star**2]))
