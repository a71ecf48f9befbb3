"""1-D property checks of the closed forms in :mod:`baryfed.geometry`.

One function per property, shared by ``baryfed validate-geometry`` and the
tests: barycenter optimality against a grid search (``barycenter_vs_grid``),
projection against a derivative-free constrained oracle
(``projection_oracle_error``), and monotone divergences along the lambda path
(``geodesic_monotonicity``). In one dimension brute force is exact enough to
serve as ground truth.

Both brute-force searches score candidates with one elementwise function,
``divergence``, written from the divergences' definitions alone: the
oracle's sphere constraint and objective, and the W2B and RKLB grid
objectives. The oracle solves each candidate mean's best sd by bisection
on that function, with no closed form that could share an error with
:mod:`baryfed.geometry`.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    aggregate,
    project,
    projection_divergence,
)

PROPERTIES = ("barycenter-optimality", "projection-oracle-equivalence", "geodesic-monotonicity")


def random_instance(rng: np.random.Generator) -> tuple[DiagGaussian, DiagGaussian]:
    """A (global, local) pair of 1-D Gaussians: means in [-1, 1], sds in [0.3, 1.3]."""
    mus = rng.uniform(-1.0, 1.0, size=2)
    sds = rng.uniform(0.3, 1.3, size=2)
    return (
        DiagGaussian(mean=np.array([mus[0]]), var=np.array([sds[0] ** 2])),
        DiagGaussian(mean=np.array([mus[1]]), var=np.array([sds[1] ** 2])),
    )


def divergence(d: Divergence, mu, sd, ref: DiagGaussian) -> np.ndarray:
    """D(N(mu, sd^2) || ref) elementwise over arrays of candidate means and
    sds, for a 1-D reference: the candidate is scored against the reference,
    as ``projection_divergence`` does. W2SQ is the squared Wasserstein-2
    distance; RKL is the mode-seeking KL(candidate || ref)."""
    ref_mu, ref_var = float(ref.mean[0]), float(ref.var[0])
    if d is Divergence.W2SQ:
        return (mu - ref_mu) ** 2 + (sd - math.sqrt(ref_var)) ** 2
    ratio = sd**2 / ref_var
    return 0.5 * (ratio - np.log(ratio) - 1.0) + 0.5 * (mu - ref_mu) ** 2 / ref_var


def _reduced_objective(
    d: Divergence, mus: np.ndarray, p_g: DiagGaussian, p_k: DiagGaussian, radius: float
):
    """Objective minimized exactly over sigma for every candidate mu.

    For fixed mu the constraint D(. || p_k) <= radius holds on a sigma
    interval around p_k's sd, and the objective D(. || p_g) is unimodal in
    sigma with its minimum at p_g's sd. So the best feasible sigma is p_g's
    sd if that is feasible, and otherwise the sphere point between the two
    sds, which a bisection of [sd_k, sd_g] finds: it keeps a feasible and an
    infeasible end and halves until the bracket stops shrinking. Returns
    (values, sds); infeasible mus carry +inf.
    """
    sd_k, sd_g = float(p_k.std[0]), float(p_g.std[0])
    feasible = divergence(d, mus, sd_k, p_k) <= radius
    inside = np.where(divergence(d, mus, sd_g, p_k) <= radius, sd_g, sd_k)
    outside = np.full_like(mus, sd_g)
    while True:
        mid = 0.5 * (inside + outside)
        if ((mid == inside) | (mid == outside)).all():
            break
        ok = divergence(d, mus, mid, p_k) <= radius
        inside = np.where(ok, mid, inside)
        outside = np.where(ok, outside, mid)
    return np.where(feasible, divergence(d, mus, inside, p_g), np.inf), inside


def numeric_projection_oracle(
    d: Divergence, p_g: DiagGaussian, p_k: DiagGaussian, radius: float
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


def barycenter_objective(
    method: AggregationMethod, cand_mu, cand_sd, posts, weights
) -> np.ndarray:
    """Weighted objective each closed form minimizes, on grid arrays.

    EAA minimizes the squared distance between (mean, variance) statistics;
    W2B the squared Wasserstein-2 distance; RKLB the mode-seeking direction
    KL(candidate || p_k), whose minimizer is the precision fusion.
    """
    total = np.zeros_like(cand_mu)
    for post, w in zip(posts, weights):
        if method is AggregationMethod.EAA:
            term = (cand_mu - post.mean[0]) ** 2 + (cand_sd**2 - post.var[0]) ** 2
        else:
            d = Divergence.W2SQ if method is AggregationMethod.W2B else Divergence.RKL
            term = divergence(d, cand_mu, cand_sd, post)
        total += w * term
    return total


def barycenter_vs_grid(posts, weights) -> dict[AggregationMethod, tuple[float, float]]:
    """Per method: (objective at the closed-form barycenter, its minimum on a
    step-1e-3 grid over the members' means and sds widened by 0.01)."""
    mu_lo = min(float(p.mean[0]) for p in posts) - 0.01
    mu_hi = max(float(p.mean[0]) for p in posts) + 0.01
    sd_lo = max(min(float(p.std[0]) for p in posts) - 0.01, 1e-3)
    sd_hi = max(float(p.std[0]) for p in posts) + 0.01
    cand_mu, cand_sd = np.meshgrid(
        np.arange(mu_lo, mu_hi + 1e-3, 1e-3),
        np.arange(sd_lo, sd_hi + 1e-3, 1e-3),
        indexing="ij",
    )
    out = {}
    for method in AggregationMethod:
        closed = aggregate(method, posts, weights)
        ours = barycenter_objective(
            method, np.array([closed.mean[0]]), np.array([closed.std[0]]), posts, weights
        )
        best = barycenter_objective(method, cand_mu, cand_sd, posts, weights).min()
        out[method] = (float(ours[0]), float(best))
    return out


def projection_path(d: Divergence, p_g: DiagGaussian, p_k: DiagGaussian, lambdas) -> list:
    """One posterior per lambda of the grid: ``p_g`` at 0, ``p_k`` at inf, and
    between them the rows of ``project`` on the pair as a stack of one."""
    rows = iter(project(d, p_g[None], p_k[None], lambdas)[0])
    return [p_g if lam == 0.0 else p_k if lam == math.inf else next(rows) for lam in lambdas]


def projection_oracle_error(
    d: Divergence, p_g: DiagGaussian, p_k: DiagGaussian, lam: float
) -> float:
    """Largest |mean| or |sd| gap between ``project`` and the numeric oracle
    run at the radius the closed form reaches."""
    (closed,) = projection_path(d, p_g, p_k, [lam])
    radius = projection_divergence(d, closed, p_k)
    oracle = numeric_projection_oracle(d, p_g, p_k, radius)
    mean_gap = abs(float(closed.mean[0] - oracle.mean[0]))
    return max(mean_gap, abs(float(closed.std[0] - oracle.std[0])))


def geodesic_monotonicity(
    d: Divergence, p_g: DiagGaussian, p_k: DiagGaussian, lambdas, slack: float = 0.0
) -> list[str]:
    """Violations along the projection path over an ascending lambda grid:
    the divergence to ``p_k`` may not rise, nor the one to ``p_g`` fall, by
    more than ``slack`` between grid points. Empty means monotone."""
    path = projection_path(d, p_g, p_k, lambdas)
    to_k = [projection_divergence(d, q, p_k) for q in path]
    to_g = [projection_divergence(d, q, p_g) for q in path]
    bad = []
    if not all(b <= a + slack for a, b in zip(to_k, to_k[1:])):
        bad.append(f"distance-to-local not non-increasing: {to_k}")
    if not all(b >= a - slack for a, b in zip(to_g, to_g[1:])):
        bad.append(f"distance-to-global not non-decreasing: {to_g}")
    return bad


def validate_geometry_suite(n_instances: int, seed: int) -> tuple[bool, list[str]]:
    """Randomized 1-D checks of all three properties; returns (all_passed,
    report_lines). Instance i draws its pair, then its barycenter weight."""
    rng = np.random.default_rng(seed)
    failures: dict[str, list[str]] = {prop: [] for prop in PROPERTIES}
    path_lambdas = (0.0, 0.25, 1.0, 4.0, math.inf)
    for i in range(n_instances):
        p_g, p_k = random_instance(rng)
        w = float(rng.uniform(0.05, 0.95))
        pair = f"pg=({p_g.mean[0]:.4f},{p_g.var[0]:.4f}) pk=({p_k.mean[0]:.4f},{p_k.var[0]:.4f})"
        for method, (ours, best) in barycenter_vs_grid([p_g, p_k], [1.0 - w, w]).items():
            if ours > best + 1e-9:
                failures["barycenter-optimality"].append(
                    f"instance {i} method={method.value} {pair} w={w:.4f} "
                    f"closed={ours:.6e} grid={best:.6e}"
                )
        for d in (Divergence.RKL, Divergence.W2SQ):
            for lam in (0.25, 1.0, 4.0):
                err = projection_oracle_error(d, p_g, p_k, lam)
                if err > 2e-3:
                    failures["projection-oracle-equivalence"].append(
                        f"instance {i} d={d.value} lam={lam} err={err:.2e} {pair}"
                    )
            failures["geodesic-monotonicity"].extend(
                f"instance {i} d={d.value} {v}"
                for v in geodesic_monotonicity(d, p_g, p_k, path_lambdas, slack=1e-9)
            )

    lines = []
    for prop, fails in failures.items():
        status = f"FAIL ({len(fails)})" if fails else "pass"
        lines.append(f"{prop:34s} {n_instances:4d} instances  {status}")
        lines.extend(f"  counterexample: {f}" for f in fails[:3])
    return not any(failures.values()), lines
