import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm, rankdata
from scipy.stats import wilcoxon as scipy_wilcoxon

from baryfed.evaluation import (
    EXACT_MAX_N,
    PROB_FLOOR,
    compare_aggregations,
    evaluate,
    metrics_of,
    midranks,
    summarize,
    wilcoxon_signed_rank,
)
from baryfed.geometry import DiagGaussian
from baryfed.models import MlpSpec, param_count, predict_proba_mc


def accuracy_of(probs, labels):
    """Reference accuracy of one (n, C) block, in percent."""
    preds = np.argmax(probs, axis=1)
    return float(100.0 * np.mean(preds == labels))


def nll_of(probs, labels):
    """Reference NLL of one (n, C) block."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))


def ece_of(probs, labels, bins):
    """Reference ECE of one (n, C) block: one stable sort by bin, then each
    bin's contiguous slice summed on its own and the bins added in order."""
    conf = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == labels).astype(np.float64)
    which = np.minimum((conf * bins).astype(np.int64), bins - 1)
    n = len(labels)
    order = np.argsort(which, kind="stable")
    conf, correct = conf[order], correct[order]
    edges = np.searchsorted(which[order], np.arange(bins + 1))
    ece = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        count = hi - lo
        if count == 0:
            continue
        gap = abs(conf[lo:hi].sum() / count - correct[lo:hi].sum() / count)
        ece += (count / n) * gap
    return float(ece)


def one(probs, labels, bins=15):
    """metrics_of on a one-posterior stack."""
    (scores,) = metrics_of(probs[None], labels, bins)
    return scores


def masked_ece(probs, labels, bins):
    """Reference ECE: one boolean mask and one masked mean per bin."""
    conf = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == labels).astype(np.float64)
    which = np.minimum((conf * bins).astype(np.int64), bins - 1)
    ece = 0.0
    for b in range(bins):
        mask = which == b
        if not np.any(mask):
            continue
        gap = abs(conf[mask].mean() - correct[mask].mean())
        ece += (mask.sum() / len(labels)) * gap
    return float(ece)


@st.composite
def ece_cases(draw):
    """Seeded random rows with some confidences set exactly to bin edges k/bins.

    k = bins gives confidence 1.0. ECE reads only each row's max and
    argmax, so a row is [c, u*c] with u in [0, 1], its columns optionally
    swapped. Bins hold up to hundreds of distinct values, where the order
    of summation shows in the last bits.
    """
    bins = draw(st.integers(1, 20))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conf = rng.uniform(0.0, 1.0, n)
    for i, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, bins)))):
        conf[i] = k / bins
    probs = np.column_stack([conf, rng.uniform(0.0, 1.0, n) * conf])
    swap = rng.random(n) < 0.5
    probs[swap] = probs[swap][:, ::-1]
    return probs, rng.integers(0, 2, n), bins


def stack_case(m, n, classes, bins, seed):
    """An (M, n, C) probability stack, labels and a bin count, seeded.

    About a tenth of the rows tie their top two columns, and another tenth
    are [k/bins, 0, ...], a confidence exactly at a bin edge (1.0 at
    k = bins) with zero probability, under the NLL floor, on the other
    classes. Rows need not sum to 1: every metric reads them as they are.
    """
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(classes, 0.5), size=(m, n))
    tie = rng.random((m, n)) < 0.1
    probs[tie, 1] = probs[tie, 0]
    edge = rng.random((m, n)) < 0.1
    probs[edge] = 0.0
    probs[edge, 0] = rng.integers(0, bins + 1, size=(m, n))[edge] / bins
    return probs, rng.integers(0, classes, n), bins


@st.composite
def metric_stacks(draw):
    """Stacks up to and past the widest evaluate call of the benchmark
    (M = 41 posteriors, n = 400 pooled test examples), where the order of a
    reduction shows in the last bits."""
    return stack_case(
        m=draw(st.integers(0, 48)),
        n=draw(st.integers(1, 900)),
        classes=draw(st.integers(2, 4)),
        bins=draw(st.integers(1, 19)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def enumerated_p(x, y):
    """Reference exact p-value: sum the ranks of all 2^n sign patterns."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = len(diff)
    ranks = rankdata(np.abs(diff))
    stat = min(float(ranks[diff > 0].sum()), float(ranks[diff < 0].sum()))
    totals = np.zeros(1 << n)
    idx = np.arange(1 << n)
    for j in range(n):
        totals[(idx >> j) & 1 == 1] += ranks[j]
    return min(1.0, 2.0 * float(np.mean(totals <= stat + 1e-9)))


class TestMetrics:
    def test_accuracy_percentage(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        labels = np.array([0, 1, 1, 0])
        assert one(probs, labels)["acc"] == 50.0

    def test_accuracy_tie_goes_low(self):
        probs = np.array([[0.5, 0.5]])
        assert one(probs, np.array([0]))["acc"] == 100.0
        assert one(probs, np.array([1]))["acc"] == 0.0

    def test_nll_hand_value(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([0, 1])
        expected = -(math.log(0.5) + math.log(0.75)) / 2
        assert one(probs, labels)["nll"] == pytest.approx(expected, rel=1e-12)

    def test_nll_floor(self):
        probs = np.array([[1.0, 0.0]])
        labels = np.array([1])
        assert one(probs, labels)["nll"] == pytest.approx(-math.log(1e-12))

    def test_ece_hand_case(self):
        # two bins: conf .6 (correct), conf .9 and .8 (one right, one wrong)
        probs = np.array([[0.6, 0.4], [0.9, 0.1], [0.2, 0.8]])
        labels = np.array([0, 1, 1])
        # bins=2: conf .6 -> bin 1, .9 -> bin 1, .8 -> bin 1; all in top bin
        # mean conf = (0.6+0.9+0.8)/3, mean acc = 2/3
        expected = abs((0.6 + 0.9 + 0.8) / 3 - 2 / 3)
        assert one(probs, labels, bins=2)["ece"] == pytest.approx(expected, rel=1e-12)

    def test_ece_full_confidence_top_bin(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        # conf 1.0 stays in the last bin; gap = |1.0 - 0.5| = 0.5
        assert one(probs, labels, bins=15)["ece"] == pytest.approx(0.5)

    def test_ece_perfect_calibration_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        assert one(probs, labels, 15)["ece"] == pytest.approx(0.0)

    def test_ece_bins_validation(self):
        with pytest.raises(ValueError):
            metrics_of(np.array([[[1.0, 0.0]]]), np.array([0]), bins=0)

    @given(ece_cases())
    @example((np.array([[1.0, 0.0]]), np.array([1]), 1))
    @example((np.array([[0.5, 0.5]]), np.array([0]), 15))
    @example((np.array([[0.2, 0.0], [0.4, 0.1], [1.0, 0.0], [0.0, 0.6]]), np.array([0, 1, 0, 1]), 5))
    def test_ece_matches_masked_loop(self, case):
        probs, labels, bins = case
        assert one(probs, labels, bins)["ece"] == masked_ece(probs, labels, bins)


    @settings(deadline=None)
    @given(metric_stacks())
    @example(stack_case(m=41, n=400, classes=10, bins=15, seed=0))
    @example(stack_case(m=3, n=900, classes=2, bins=1, seed=1))
    def test_stack_matches_per_posterior_oracles(self, case):
        probs, labels, bins = case
        scores = metrics_of(probs, labels, bins)
        assert len(scores) == len(probs)
        for p, got in zip(probs, scores):
            assert got == {
                "acc": accuracy_of(p, labels),
                "ece": ece_of(p, labels, bins),
                "nll": nll_of(p, labels),
            }

    def test_empty_stack(self):
        assert metrics_of(np.empty((0, 5, 3)), np.zeros(5, dtype=np.int64), 15) == []


class TestEvaluate:
    def test_report_fields(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        post = DiagGaussian(
            mean=np.zeros(param_count(spec)), var=np.full(param_count(spec), 1e-4)
        )
        from baryfed.data import synth_blobs

        ds = synth_blobs(classes=3, dim=2, n_per_class=5, spread=0.1, seed=0)
        noise = np.random.default_rng(3).standard_normal((4, post.dim))
        other = DiagGaussian(mean=np.full(post.dim, 0.5), var=post.var)
        reps = evaluate(spec, [post, other], ds, noise, bins=10)
        assert len(reps) == 2
        for p, rep in zip([post, other], reps):
            probs = predict_proba_mc(spec, [p], ds.inputs, noise)[0]
            assert rep == {
                "acc": accuracy_of(probs, ds.labels),
                "ece": ece_of(probs, ds.labels, 10),
                "nll": nll_of(probs, ds.labels),
            }
            assert list(rep) == ["acc", "ece", "nll"]
            assert 0.0 <= rep["acc"] <= 100.0
            assert rep["nll"] > 0.0
            assert 0.0 <= rep["ece"] <= 1.0
        assert reps[0] != reps[1]
        assert evaluate(spec, [], ds, noise, bins=10) == []


class TestRuntimeDependencies:
    def test_cli_import_leaves_scipy_out(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys, baryfed.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_normal_path_with_ties_leaves_numpy_ma_out(self):
        # importing numpy.ma costs ~17 ms in a cold interpreter; compare-agg
        # runs with more than 20 seeds take the normal path
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from baryfed.evaluation import wilcoxon_signed_rank\n"
            "x = np.round(np.random.default_rng(0).normal(size=25), 1)\n"
            "assert len(set(np.abs(x).tolist())) < 25\n"
            "assert wilcoxon_signed_rank(x, np.zeros(25)).method == 'normal'\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False"]


class TestMidranks:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            max_size=60,
        )
    )
    @example([])
    @example([1.0, 1.0, 1.0, 1.0])
    @example([3.0, 1.0, 3.0, 2.0, 1.0, 3.0])
    def test_equals_scipy_average_ranks(self, values):
        values = np.array(values, dtype=np.float64)
        ours, ref = midranks(values), rankdata(values)
        assert ours.shape == ref.shape
        assert np.all(ours == ref)


def normal_p_with_unique_ties(d):
    """The normal-path p-value of differences ``d``, its tie term taken from
    np.unique's counts of the midranks."""
    d = d[d != 0.0]
    n = len(d)
    ranks = midranks(np.abs(d))
    stat = min(float(ranks[d > 0].sum()), float(ranks[d < 0].sum()))
    _, counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(counts**3 - counts)) / 48.0
    z = (stat - n * (n + 1) / 4.0 + 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


class TestWilcoxon:
    def test_nan_difference_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(np.array([1.0, math.nan, 3.0]), np.zeros(3))

    def test_exact_all_positive_n6(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.zeros(6)
        res = wilcoxon_signed_rank(x, y)
        assert res.method == "exact"
        assert res.n_effective == 6
        assert res.p_two_sided == pytest.approx(2.0 / 64.0, abs=1e-15)

    def test_zeros_dropped(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = wilcoxon_signed_rank(x, y)
        assert res.n_effective == 6
        assert res.p_two_sided == pytest.approx(2.0 / 64.0, abs=1e-15)

    def test_all_zero_degenerate(self):
        with pytest.raises(ValueError, match="degenerate-sample"):
            wilcoxon_signed_rank(np.ones(5), np.ones(5))

    def test_symmetric_sample_p_one(self):
        x = np.array([1.0, -1.0])
        res = wilcoxon_signed_rank(x, np.zeros(2))
        assert res.p_two_sided == 1.0

    def test_method_forcing(self):
        x = np.arange(1.0, 9.0)
        y = np.zeros(8)
        exact = wilcoxon_signed_rank(x, y, method="exact")
        normal = wilcoxon_signed_rank(x, y, method="normal")
        assert exact.method == "exact"
        assert normal.method == "normal"
        assert abs(exact.p_two_sided - normal.p_two_sided) < 0.02

    def test_exact_cap(self):
        n = EXACT_MAX_N + 1
        with pytest.raises(ValueError, match="exact"):
            wilcoxon_signed_rank(np.arange(1.0, n + 1), np.zeros(n), method="exact")

    def test_bad_method(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [0.0], method="approximate")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([[1.0]], [[0.0]])

    def test_exact_matches_normal_at_boundary(self):
        # tie-free draws at the exact-path cap
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=EXACT_MAX_N)
            y = rng.normal(size=EXACT_MAX_N)
            exact = wilcoxon_signed_rank(x, y, method="exact")
            approx = wilcoxon_signed_rank(x, y, method="normal")
            worst = max(worst, abs(exact.p_two_sided - approx.p_two_sided))
        assert worst <= 0.01

    @pytest.mark.parametrize("n", range(1, 15))
    def test_exact_matches_enumeration_with_ties(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            # rounding to one decimal makes tied |d| common
            x = np.round(rng.normal(size=n), 1)
            if np.all(x == 0.0):
                continue
            res = wilcoxon_signed_rank(x, np.zeros(n), method="exact")
            assert res.p_two_sided == enumerated_p(x, np.zeros(n))

    @pytest.mark.parametrize("n", [5, 9, 13, 17, EXACT_MAX_N])
    def test_exact_matches_scipy_without_ties(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            res = wilcoxon_signed_rank(x, y)
            assert res.method == "exact"
            ref = scipy_wilcoxon(x, y, method="exact").pvalue
            assert res.p_two_sided == pytest.approx(ref, abs=1e-12)

    def test_exact_counts_tied_ranks(self):
        # five tied |d| share rank 3; W- = 3 and sign patterns with at most one
        # positive sign give 6 of 32, so p = 12/32 (SciPy's exact path gives 10/32)
        x = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
        res = wilcoxon_signed_rank(x, np.zeros(5))
        assert res.statistic == 3.0
        assert res.p_two_sided == 12.0 / 32.0

    @pytest.mark.parametrize("n", [6, 21, 25, 40])
    def test_normal_tie_term_equals_unique_counts(self, n):
        # the tie term counts runs of tied midranks; np.unique's counts are the
        # oracle, and the p-value must have the bits they give
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            x = np.round(rng.normal(size=n), 1)
            if np.all(x == 0.0):
                continue
            res = wilcoxon_signed_rank(x, np.zeros(n), method="normal")
            assert res.p_two_sided == normal_p_with_unique_ties(x)

    def test_tie_correction_applied(self):
        x = np.array([1.0, 1.0, 1.0, -1.0, 2.0, 2.0])
        res = wilcoxon_signed_rank(x, np.zeros(6), method="normal")
        ranks_abs = np.array([2.5, 2.5, 2.5, 2.5, 5.5, 5.5])
        stat = float(ranks_abs[3])
        mean = 6 * 7 / 4.0
        tie = ((4**3 - 4) + (2**3 - 2)) / 48.0
        var = 6 * 7 * 13 / 24.0 - tie
        expected = min(1.0, 2.0 * float(norm.cdf((stat - mean + 0.5) / math.sqrt(var))))
        assert res.statistic == stat
        assert res.p_two_sided == pytest.approx(expected, rel=1e-12)


class TestSummaries:
    BY = ("setting", "method", "lambda")

    def rows(self):
        mk = lambda acc, lam, cid: {
            "setting": "PM-LD",
            "method": "eaa",
            "lambda": lam,
            "client_id": cid,
            "acc": acc,
            "ece": 0.1,
            "nll": 1.0,
        }
        return [mk(60.0, 1.0, 0), mk(80.0, 1.0, 1), mk(50.0, 2.0, 0)]

    def test_grouping_and_stats(self):
        rows = summarize(self.rows(), self.BY)
        assert len(rows) == 2
        first = rows[0]
        assert (first["setting"], first["lambda"], first["n_clients"]) == ("PM-LD", 1.0, 2)
        assert first["acc_mean"] == 70.0
        assert first["acc_std"] == 10.0  # population std
        assert (first["nll_mean"], first["nll_std"]) == (1.0, 0.0)
        assert rows[1]["n_clients"] == 1

    def test_insertion_order(self):
        rows = summarize(self.rows(), self.BY)
        assert [r["lambda"] for r in rows] == [1.0, 2.0]
        rows = summarize(self.rows()[::-1], self.BY)
        assert [r["lambda"] for r in rows] == [2.0, 1.0]

    def test_columns(self):
        rows = summarize(self.rows(), ("lambda", "setting"))
        assert list(rows[0]) == [
            "lambda", "setting", "n_clients",
            "acc_mean", "acc_std", "ece_mean", "ece_std", "nll_mean", "nll_std",
        ]


class TestCompareAggregations:
    def test_pair_count_and_order(self):
        scores = {
            "eaa": [1.0, 2.0, 3.0, 4.0, 5.0],
            "w2b": [2.0, 3.0, 4.0, 5.0, 6.0],
            "rklb": [0.5, 1.5, 2.5, 3.5, 4.5],
        }
        rows = compare_aggregations(scores)
        assert [(r["method_a"], r["method_b"]) for r in rows] == [
            ("eaa", "w2b"),
            ("eaa", "rklb"),
            ("w2b", "rklb"),
        ]
        assert all(not r["degenerate"] for r in rows)
        assert all(0.0 < r["p"] <= 1.0 for r in rows)

    def test_degenerate_pair(self):
        scores = {"eaa": [1.0, 2.0], "w2b": [1.0, 2.0]}
        rows = compare_aggregations(scores)
        assert rows[0]["degenerate"]
        assert rows[0]["p"] is None
        assert rows[0]["statistic"] is None

    def test_validation(self):
        with pytest.raises(ValueError, match="two methods"):
            compare_aggregations({"eaa": [1.0]})
        with pytest.raises(ValueError, match="misaligned"):
            compare_aggregations({"eaa": [1.0, 2.0], "w2b": [1.0]})
