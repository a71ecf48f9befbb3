"""Predictive metrics and paired significance testing.

Metrics operate on Monte-Carlo-averaged predictive probabilities: accuracy
by argmax (ties resolved to the lowest class index), negative log-likelihood
with a probability floor, and expected calibration error over equal-width
confidence bins. The Wilcoxon signed-rank test enumerates sign patterns
exactly for small samples and falls back to a tie-corrected normal
approximation for larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, rankdata

from . import models
from .data import Dataset
from .geometry import DiagGaussian
from .models import MlpSpec

PROB_FLOOR = 1e-12
EXACT_MAX_N = 20


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float  # percentage in [0, 100]
    nll: float
    ece: float
    n_examples: int
    mc_samples: int
    setting: str = ""
    method: str = ""
    lam: float | None = None
    client_id: int | None = None
    seed: int | None = None
    bins: int = 15


def accuracy_of(probs: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of argmax-correct predictions; argmax ties go to the lowest index."""
    preds = np.argmax(probs, axis=1)
    return float(100.0 * np.mean(preds == labels))


def nll_of(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))


def ece_of(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Equal-width binning of max-probability confidence on [0, 1].

    Confidences exactly at a bin edge fall into the higher bin, except 1.0
    which stays in the last bin.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    conf = probs.max(axis=1)
    preds = np.argmax(probs, axis=1)
    correct = (preds == labels).astype(np.float64)
    which = np.minimum((conf * bins).astype(np.int64), bins - 1)
    n = len(labels)
    ece = 0.0
    for b in range(bins):
        mask = which == b
        if not np.any(mask):
            continue
        gap = abs(conf[mask].mean() - correct[mask].mean())
        ece += (mask.sum() / n) * gap
    return float(ece)


def evaluate(
    spec: MlpSpec,
    posterior: DiagGaussian,
    ds: Dataset,
    mc_samples: int,
    bins: int = 15,
    seed: int = 0,
    setting: str = "",
) -> MetricsReport:
    """All three metrics from one shared set of posterior draws."""
    probs = models.predict_proba_mc(spec, posterior, ds.inputs, mc_samples, seed)
    return MetricsReport(
        accuracy=accuracy_of(probs, ds.labels),
        nll=nll_of(probs, ds.labels),
        ece=ece_of(probs, ds.labels, bins),
        n_examples=ds.n,
        mc_samples=mc_samples,
        setting=setting,
        bins=bins,
    )


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_two_sided: float
    n_effective: int
    method: str  # "exact" or "normal"


def wilcoxon_signed_rank(x, y, method: str | None = None) -> WilcoxonResult:
    """Two-sided paired test on x - y; zero differences are dropped.

    Ties among absolute differences get average ranks. The statistic is
    min(W+, W-). For n <= 20 the p-value enumerates all 2^n sign patterns;
    beyond that a normal approximation with tie correction is used. Pass
    method="exact" or "normal" to force one path (exact is capped at n=20).
    """
    if method not in (None, "exact", "normal"):
        raise ValueError(f"method must be 'exact' or 'normal', got {method!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    diff = x - y
    diff = diff[diff != 0.0]
    n = len(diff)
    if n == 0:
        raise ValueError("degenerate-sample: all paired differences are zero")

    ranks = rankdata(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    stat = min(w_plus, w_minus)

    use_exact = n <= EXACT_MAX_N if method is None else method == "exact"
    if use_exact and n > EXACT_MAX_N:
        raise ValueError(f"exact enumeration supports n <= {EXACT_MAX_N}, got {n}")
    if use_exact:
        totals = np.zeros(1 << n)
        idx = np.arange(1 << n)
        for j in range(n):
            totals[(idx >> j) & 1 == 1] += ranks[j]
        p = min(1.0, 2.0 * float(np.mean(totals <= stat + 1e-9)))
        return WilcoxonResult(stat, p, n, "exact")

    mean = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise ValueError("degenerate-sample: rank variance is zero")
    # continuity correction: stat <= mean by construction
    z = (stat - mean + 0.5) / np.sqrt(var)
    p = min(1.0, 2.0 * float(norm.cdf(z)))
    return WilcoxonResult(stat, p, n, "normal")


@dataclass(frozen=True)
class SummaryRow:
    """Per-(setting, lambda) aggregate of client-level metric rows."""

    setting: str
    method: str
    lam: float | None
    n_clients: int
    acc_mean: float
    acc_std: float
    nll_mean: float
    nll_std: float
    ece_mean: float
    ece_std: float


def summarize_metrics(reports: list[MetricsReport]) -> list[SummaryRow]:
    """Mean and population std across clients, grouped by (setting, lambda).

    Rows without a client id (pooled-data evaluations of the global model)
    pass through as single-member groups.
    """
    groups: dict[tuple, list[MetricsReport]] = {}
    order = []
    for rep in reports:
        key = (rep.setting, rep.method, rep.lam)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rep)
    rows = []
    for key in order:
        members = groups[key]
        acc = np.array([m.accuracy for m in members])
        nll = np.array([m.nll for m in members])
        ece = np.array([m.ece for m in members])
        rows.append(
            SummaryRow(
                setting=key[0],
                method=key[1],
                lam=key[2],
                n_clients=len(members),
                acc_mean=float(acc.mean()),
                acc_std=float(acc.std()),
                nll_mean=float(nll.mean()),
                nll_std=float(nll.std()),
                ece_mean=float(ece.mean()),
                ece_std=float(ece.std()),
            )
        )
    return rows


@dataclass(frozen=True)
class PairwiseComparison:
    method_a: str
    method_b: str
    statistic: float | None
    p_two_sided: float | None
    n_effective: int
    degenerate: bool = False


def compare_aggregations(scores: dict[str, list]) -> list[PairwiseComparison]:
    """All unordered pairs of named score lists, tested for paired difference.

    Lists must be aligned (same runs in the same order). Pairs whose
    differences are all zero are reported as degenerate with no p-value.
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
            if np.all(xa == xb):
                rows.append(PairwiseComparison(a, b, None, None, 0, degenerate=True))
                continue
            res = wilcoxon_signed_rank(xa, xb)
            rows.append(
                PairwiseComparison(a, b, res.statistic, res.p_two_sided, res.n_effective)
            )
    return rows
