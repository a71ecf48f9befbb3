"""Predictive metrics, their summaries, and paired significance testing.

Metrics operate on Monte-Carlo-averaged predictive probabilities: accuracy
by argmax (ties resolved to the lowest class index), negative log-likelihood
with a probability floor, and expected calibration error over equal-width
confidence bins. ``evaluate`` scores a list of posteriors on one dataset in
one stacked Monte-Carlo pass and returns one ``{"acc", "ece", "nll"}`` dict
per posterior, the metric columns of a ``metrics.csv`` row. ``metrics_of``
reduces each metric over the whole (M, n, C) probability stack in one pass,
and each posterior's value is bit-identical to reducing its own (n, C)
block alone. ``summarize`` groups such rows into the mean and population
std of each metric. The Wilcoxon signed-rank test takes its exact null
distribution from a counting recurrence over doubled (integer) ranks for
small samples and falls back to a tie-corrected normal approximation for
larger ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .data import Dataset
from .geometry import DiagGaussian
from .models import MlpSpec

PROB_FLOOR = 1e-12
EXACT_MAX_N = 20


def metrics_of(probs: np.ndarray, labels: np.ndarray, bins: int) -> list[dict[str, float]]:
    """``{"acc", "ece", "nll"}`` of each (n, C) slice of an (M, n, C) stack.

    acc is the percentage of argmax-correct predictions (argmax ties go to
    the lowest index) and nll the mean negative log-probability of the label
    with a PROB_FLOOR floor. ECE bins the max-probability confidence into
    ``bins`` equal-width bins on [0, 1]; a confidence exactly at a bin edge
    falls into the higher bin, except 1.0, which stays in the last bin.

    Each reduction runs once over all M slices and gives, bit for bit, what
    reducing one slice at a time gives. NumPy's pairwise sum depends only on
    the length of a contiguous run, so a bin's confidences are summed as one
    contiguous row in their original order, and the bins of a posterior are
    added up in bin order.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    m, n, _ = probs.shape
    preds = np.argmax(probs, axis=2)
    correct = preds == labels
    acc = 100.0 * np.mean(correct, axis=1)
    picked = np.take_along_axis(probs, labels[None, :, None], axis=2)[:, :, 0]
    nll = -np.mean(np.log(np.maximum(picked, PROB_FLOOR)), axis=1)

    conf = probs.max(axis=2)
    which = np.minimum((conf * bins).astype(np.int64), bins - 1)
    # one stable sort on (posterior, bin) keeps each bin's members in order
    key = (which + bins * np.arange(m)[:, None]).ravel()
    order = np.argsort(key, kind="stable")
    conf, correct = conf.ravel()[order], correct.ravel()[order].astype(np.float64)
    edges = np.searchsorted(key[order], np.arange(m * bins + 1))
    starts, counts = edges[:-1], np.diff(edges)
    terms = np.zeros(m * bins)
    # the bins with L members are the rows of one contiguous (k, L) matrix
    for size in sorted(set(counts[counts > 0].tolist())):
        rows = np.flatnonzero(counts == size)
        members = starts[rows, None] + np.arange(size)
        gap = np.abs(conf[members].sum(axis=1) / size - correct[members].sum(axis=1) / size)
        terms[rows] = (size / n) * gap
    # cumsum adds sequentially; an empty bin adds an exact 0.0
    ece = np.cumsum(terms.reshape(m, bins), axis=1)[:, -1]
    return [
        {"acc": a, "ece": e, "nll": l}
        for a, e, l in zip(acc.tolist(), ece.tolist(), nll.tolist())
    ]


def evaluate(
    spec: MlpSpec,
    posteriors: list[DiagGaussian],
    ds: Dataset,
    noise: np.ndarray,
    bins: int,
) -> list[dict[str, float]]:
    """All three metrics for each posterior, in order, from its draws
    mean + std * noise[s]; acc is a percentage."""
    probs = models.predict_proba_mc(spec, posteriors, ds.inputs, noise)
    return metrics_of(probs, ds.labels, bins)


def summarize(rows: list[dict], by: tuple[str, ...]) -> list[dict]:
    """One row per distinct ``by`` key, in first-seen order.

    Its columns are the key columns, ``n_clients`` (the group's size), then
    the mean and population std of acc, ece and nll across the group.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in by), []).append(row)
    out = []
    for key, members in groups.items():
        summary = {**dict(zip(by, key)), "n_clients": len(members)}
        for metric in ("acc", "ece", "nll"):
            values = np.array([m[metric] for m in members])
            summary[f"{metric}_mean"] = float(values.mean())
            summary[f"{metric}_std"] = float(values.std())
        out.append(summary)
    return out


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks where each run of tied values gets the run's mean rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_two_sided: float
    n_effective: int
    method: str  # "exact" or "normal"


def wilcoxon_signed_rank(x, y, method: str | None = None) -> WilcoxonResult:
    """Two-sided paired test on x - y; zero differences are dropped.

    Ties among absolute differences get average ranks. The statistic is
    min(W+, W-). For n <= 20 the p-value is exact: it counts the sign
    patterns whose rank sum is at most the statistic with a subset-sum
    recurrence over doubled ranks, which are integers even for midranks, so
    the count and the p-value 2*count/2^n carry no rounding. Beyond that a
    normal approximation with tie correction is used. Pass method="exact"
    or "normal" to force one path (exact is capped at n=20).
    """
    if method not in (None, "exact", "normal"):
        raise ValueError(f"method must be 'exact' or 'normal', got {method!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    diff = x - y
    if np.isnan(diff).any():
        raise ValueError("paired differences contain NaN")
    diff = diff[diff != 0.0]
    n = len(diff)
    if n == 0:
        raise ValueError("degenerate-sample: all paired differences are zero")

    ranks = midranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    stat = min(w_plus, w_minus)

    use_exact = n <= EXACT_MAX_N if method is None else method == "exact"
    if use_exact and n > EXACT_MAX_N:
        raise ValueError(f"exact test supports n <= {EXACT_MAX_N}, got {n}")
    if use_exact:
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        # counts[s]: number of sign patterns whose doubled rank sum is s
        counts = np.zeros(int(ranks2.sum()) + 1, dtype=np.int64)
        counts[0] = 1
        for r in ranks2:
            counts[r:] += counts[:-r]
        at_most = int(counts[: round(2.0 * stat) + 1].sum())
        p = min(1.0, 2.0 * at_most / (1 << n))
        return WilcoxonResult(stat, p, n, "exact")

    mean = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise ValueError("degenerate-sample: rank variance is zero")
    # continuity correction: stat <= mean by construction
    z = (stat - mean + 0.5) / math.sqrt(var)
    # 2 * Phi(z) = erfc(-z / sqrt(2))
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(stat, p, n, "normal")


def compare_aggregations(scores: dict[str, list]) -> list[dict]:
    """All unordered pairs of named score lists, tested for paired difference.

    One ``{method_a, method_b, statistic, p, n_effective, degenerate}`` dict
    per pair. Lists must be aligned (same runs in the same order). Pairs
    whose differences are all zero are degenerate, with no statistic and no
    p-value.
    """
    names = list(scores)
    if len(names) < 2:
        raise ValueError("need at least two methods to compare")
    lengths = {name: len(scores[name]) for name in names}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"score lists are misaligned: {lengths}")

    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            xa = np.asarray(scores[a], dtype=np.float64)
            xb = np.asarray(scores[b], dtype=np.float64)
            pair = {"method_a": a, "method_b": b}
            if np.all(xa == xb):
                rows.append(dict(pair, statistic=None, p=None, n_effective=0, degenerate=True))
                continue
            res = wilcoxon_signed_rank(xa, xb)
            rows.append(dict(pair, statistic=res.statistic, p=res.p_two_sided,
                             n_effective=res.n_effective, degenerate=False))
    return rows
