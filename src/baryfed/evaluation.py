"""Predictive metrics, their summaries, and paired significance testing.

Metrics operate on Monte-Carlo-averaged predictive probabilities: accuracy
by argmax (ties resolved to the lowest class index), negative log-likelihood
with a probability floor, and expected calibration error over equal-width
confidence bins. ``evaluate`` scores posteriors and posterior stacks on
one dataset in one Monte-Carlo pass and returns, per posterior, one
``{"acc", "ece", "nll"}`` dict (the metric columns of a ``metrics.csv``
row) for the whole dataset and one for each row group, such as a client's
test rows of a pooled test set. ``metrics_of`` reduces each metric over the whole (M,
n, C) probability stack and every row group in one pass, and each value
is bit-identical to reducing that posterior's (n, C) block, or the
group's rows of it, alone. ``summarize`` groups such rows into the mean
and population std of each metric. The Wilcoxon signed-rank test takes its
exact null distribution from a counting recurrence over doubled (integer)
ranks for small samples and falls back to a tie-corrected normal
approximation for larger ones.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import models
from .data import Dataset
from .models import MlpSpec

PROB_FLOOR = 1e-12
EXACT_MAX_N = 20


def metrics_of(
    probs: np.ndarray, labels: np.ndarray, bins: int, groups: Sequence[np.ndarray] = ()
) -> list[list[dict[str, float]]]:
    """``{"acc", "ece", "nll"}`` of each (n, C) slice of an (M, n, C) stack:
    per slice, a list of its metrics over all n rows, then over the rows of
    each group (an index array into the n rows, in its order).

    acc is the percentage of argmax-correct predictions (argmax ties go to
    the lowest index) and nll the mean negative log-probability of the label
    with a PROB_FLOOR floor. ECE bins the max-probability confidence into
    ``bins`` equal-width bins on [0, 1]; a confidence exactly at a bin edge
    falls into the higher bin, except 1.0, which stays in the last bin.

    Each reduction runs once over every (slice, row set) and gives, bit for
    bit, what reducing one slice's rows alone gives, so a group's metrics
    equal those of ``probs[:, group]`` with ``labels[group]``. NumPy's
    pairwise sum depends only on the length of a contiguous run, so every
    mean, and each bin's sum of confidences, is taken as NumPy sums one
    contiguous run of the values in their row order, and the bins of a row
    set are added up in bin order.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    m, n, _ = probs.shape
    preds, conf = models.class_argmax(probs)
    picked = probs[:, np.arange(n), labels]
    # per row: its confidence, 1.0 if correct, and its label's log-probability
    rows = np.stack([conf, preds == labels, np.log(np.maximum(picked, PROB_FLOOR))])
    # every row set side by side, in C order: set s holds columns
    # edges[s]..edges[s + 1] of each of the three (M, rows) matrices
    sizes = [n, *map(len, groups)]
    edges = [0, *itertools.accumulate(sizes)]
    rows = rows.take(np.concatenate([np.arange(n), *groups]), axis=2)
    # each mean runs over one set's contiguous run, which NumPy sums pairwise
    # (sums of 0/1 are exact in any order)
    means = np.stack([rows[1:, :, lo:hi].mean(axis=2) for lo, hi in zip(edges, edges[1:])], axis=2)
    acc, nll = 100.0 * means[0], -means[1]
    conf, correct = rows[0], rows[1]

    # ECE of each (slice, row set) unit, from the sums of each of its bins;
    # the bins that hold a row are renumbered 0..filled-1 in bin order, so
    # the keys span units x filled bins, however many bins there are
    units = m * len(sizes)
    unit = np.arange(m)[:, None] * len(sizes) + np.repeat(np.arange(len(sizes)), sizes)
    # clipped below too: a NaN confidence casts to a negative bin
    bin_of = np.clip((conf * bins).astype(np.int64), 0, bins - 1).ravel()
    used, rank = np.unique(bin_of, return_inverse=True)
    key = rank + len(used) * unit.ravel()
    slots = units * len(used)
    conf = conf.ravel()
    counts = np.bincount(key, minlength=slots)
    # bincount adds a bin's values one at a time from 0.0 in row order, which
    # is how NumPy sums a run of fewer than 8; sums of 0/1 are exact anyway
    sums = np.bincount(key, conf, slots)
    hits = np.bincount(key, correct.ravel(), slots)
    # NumPy sums a longer run of L <= 128 in blocks of 8, then adds the L % 8
    # left over one at a time, so zeros appended up to width 8k + 7 add
    # nothing (conf >= +0): the bins of 8 or more members that share that
    # width (or, above 128, their own) are summed again as the rows of one
    # zero-padded (k, width) matrix, each row as its own run
    big = np.flatnonzero(counts >= 8)
    members = np.flatnonzero(counts[key] >= 8)
    members = members[np.argsort(key[members], kind="stable")]  # by bin, in row order
    ordered = np.append(conf[members], 0.0)  # the last slot pads
    size = counts[big]
    start = np.cumsum(size) - size
    width = np.where(size < 128, size | 7, size)
    for w in set(width.tolist()):
        at = np.flatnonzero(width == w)
        cols = np.arange(w)
        spot = np.where(cols < size[at, None], start[at, None] + cols, len(members))
        sums[big[at]] = ordered[spot].sum(axis=1)
    filled = np.flatnonzero(counts)
    size, owner = counts[filled], filled // len(used)  # each filled bin's unit
    gap = np.abs(sums[filled] / size - hits[filled] / size)
    # each unit adds its bins' terms in bin order, from 0.0; an empty bin
    # would add an exact 0.0
    terms = (size / np.array(sizes)[owner % len(sizes)]) * gap
    ece = np.bincount(owner, terms, units).reshape(m, len(sizes))
    flat = [
        {"acc": a, "ece": e, "nll": l}
        for a, e, l in np.stack([acc, ece, nll], axis=2).reshape(-1, 3).tolist()
    ]
    return [flat[i : i + len(sizes)] for i in range(0, len(flat), len(sizes))]


def evaluate(
    spec: MlpSpec, posteriors, ds: Dataset, noise: np.ndarray, bins: int,
    groups: Sequence[np.ndarray] = (),
) -> list[list[dict]]:
    """All three metrics for each posterior, in order, from its draws
    mean + sqrt(var) * noise[s]; acc is a percentage. ``posteriors`` is a
    sequence of ``DiagGaussian``s, each one posterior or a stack of them, as
    ``models.predict_proba_mc`` takes them.

    One predictive of ``ds`` serves every row set: per posterior, a list of
    its metrics on all of ``ds``, then on each group of ``groups`` (index
    arrays into the rows of ``ds``), as ``metrics_of`` gives them."""
    probs = models.predict_proba_mc(spec, posteriors, ds.inputs, noise)
    return metrics_of(probs, ds.labels, bins, groups)


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
    counts = np.diff(np.flatnonzero(np.diff(np.sort(ranks), prepend=0.0, append=np.inf)))
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
