import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryfed import geometry
from baryfed.checks import (
    geodesic_monotonicity,
    numeric_projection_oracle,
    projection_oracle_error,
    projection_path,
    random_instance,
)
from baryfed.geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    VAR_FLOOR,
    aggregate,
    kl_gaussian,
    project,
    projection_divergence,
    w2sq_gaussian,
)


def g(mean, var):
    return DiagGaussian(mean=np.atleast_1d(np.asarray(mean, dtype=np.float64)),
                        var=np.atleast_1d(np.asarray(var, dtype=np.float64)))


STD_NORMAL = g(0.0, 1.0)


def one(p: DiagGaussian):
    """A posterior as a (mean, var) pair of stacks of one."""
    return p.mean[None], p.var[None]


# Property-test inputs. Means in [-10, 10] and variances in [1e-3, 1e3] keep
# the rounding error of a reordered weighted sum far below the 1e-12 tolerance.
DIM = 3
METHODS = st.sampled_from(list(AggregationMethod))
POSTERIORS = st.builds(
    g,
    st.lists(st.floats(-10.0, 10.0), min_size=DIM, max_size=DIM),
    st.lists(st.floats(1e-3, 1e3), min_size=DIM, max_size=DIM),
)


@st.composite
def weighted_sets(draw, min_size=1, max_size=12):
    """Posteriors with positive weights normalized to sum to 1."""
    k = draw(st.integers(min_size, max_size))
    posts = draw(st.lists(POSTERIORS, min_size=k, max_size=k))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return posts, raw / raw.sum()


@st.composite
def projection_instances(draw):
    """(p_g, p_k, grid): P of 1, 2 or 51; means that may be +0.0 or -0.0;
    variances that may be small enough for a projection to floor them; and
    an unsorted grid that may repeat lambdas and hold 0, 1e-300, 1e300, inf."""
    dim = draw(st.sampled_from([1, 2, 51]))
    means = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    variances = st.one_of(st.sampled_from([1e-14, 1e-13]), st.floats(1e-3, 1e3))
    p_g, p_k = (
        g(
            draw(st.lists(means, min_size=dim, max_size=dim)),
            draw(st.lists(variances, min_size=dim, max_size=dim)),
        )
        for _ in range(2)
    )
    lams = st.one_of(st.sampled_from([0.0, 1e-300, 1e300, math.inf]), st.floats(1e-3, 1e3))
    return p_g, p_k, draw(st.lists(lams, min_size=1, max_size=8))


def assert_close(a: DiagGaussian, b: DiagGaussian):
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.var, b.var, rtol=1e-12, atol=1e-12)


class TestDiagGaussian:
    def test_validation(self):
        with pytest.raises(ValueError):
            g([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            g(0.0, -1.0)
        with pytest.raises(ValueError):
            g(0.0, 0.0)
        with pytest.raises(ValueError):
            g(np.nan, 1.0)
        with pytest.raises(ValueError):
            g(0.0, np.inf)

    def test_arrays_frozen(self):
        p = g([1.0, 2.0], [0.5, 2.0])
        with pytest.raises(ValueError):
            p.mean[0] = 3.0
        assert p.dim == 2
        assert np.allclose(p.std, np.sqrt(p.var))

    def test_contiguous_float64_is_shared_not_copied(self):
        # frozen in place: a caller that keeps writing passes a copy
        m, v = np.zeros(3), np.ones(3)
        p = DiagGaussian(mean=m, var=v)
        assert p.mean is m and p.var is v
        assert not m.flags.writeable and not v.flags.writeable
        # anything else is converted into an array of the posterior's own
        ints = np.ones(3, dtype=np.int64)
        q = DiagGaussian(mean=ints, var=ints)
        assert q.var is not ints and ints.flags.writeable and not q.var.flags.writeable

    def test_projected_rows_are_read_only(self):
        p_g, p_k = g([0.0, 1.0], [1.0, 0.5]), g([4.0, -2.0], [9.0, 0.1])
        for d in (Divergence.RKL, Divergence.W2SQ):
            mean, var = project(d, one(p_g), one(p_k), [0.5, 1.0, 3.0])
            assert mean.shape == var.shape == (1, 3, 2)
            assert not mean.flags.writeable and not var.flags.writeable
            with pytest.raises(ValueError):
                var[0, 0, 0] = 1.0


class TestDivergences:
    def test_kl_pinned_values(self):
        # mean shift only: 0.5 * 1^2 / 1
        assert kl_gaussian(g(1.0, 1.0), STD_NORMAL) == pytest.approx(0.5, abs=1e-15)
        # variance ratio 2: 0.5 * (2 - 1 - ln 2)
        expect = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert kl_gaussian(g(0.0, 2.0), STD_NORMAL) == pytest.approx(expect, abs=1e-15)
        assert kl_gaussian(STD_NORMAL, STD_NORMAL) == 0.0

    def test_kl_asymmetry(self):
        a, b = g(0.0, 1.0), g(0.0, 4.0)
        assert kl_gaussian(a, b) != pytest.approx(kl_gaussian(b, a), abs=1e-6)

    def test_w2sq_pinned_values(self):
        assert w2sq_gaussian(g(4.0, 9.0), g(1.0, 9.0)) == pytest.approx(9.0)
        assert w2sq_gaussian(g(0.0, 4.0), g(0.0, 1.0)) == pytest.approx(1.0)
        assert w2sq_gaussian(g(2.0, 3.0), g(2.0, 3.0)) == 0.0

    def test_w2sq_symmetric(self):
        a, b = g(1.0, 2.0), g(-3.0, 0.25)
        assert w2sq_gaussian(a, b) == pytest.approx(w2sq_gaussian(b, a), abs=1e-15)

    def test_projection_divergence_is_candidate_first(self):
        # both KL-family entries score the candidate against the reference
        cand, ref = g(0.5, 2.0), g(0.0, 1.0)
        for d in (Divergence.KL, Divergence.RKL):
            assert projection_divergence(d, cand, ref) == pytest.approx(
                kl_gaussian(cand, ref), abs=1e-15
            )
        assert projection_divergence(Divergence.W2SQ, cand, ref) == pytest.approx(
            w2sq_gaussian(cand, ref), abs=1e-15
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(g([0.0, 0.0], [1.0, 1.0]), STD_NORMAL)


class TestAggregate:
    trio = [g(0.0, 1.0), g(2.0, 1.0 / 3.0)]
    half = [0.5, 0.5]

    def test_eaa_worked_example(self):
        out = aggregate(AggregationMethod.EAA, [g(0.0, 1.0), g(0.0, 9.0)], self.half)
        assert out.var[0] == pytest.approx(5.0, abs=1e-15)

    def test_w2b_worked_example(self):
        out = aggregate(AggregationMethod.W2B, [g(0.0, 1.0), g(0.0, 9.0)], self.half)
        assert out.var[0] == pytest.approx(4.0, abs=1e-15)

    def test_rklb_worked_example(self):
        out = aggregate(AggregationMethod.RKLB, self.trio, self.half)
        assert out.mean[0] == pytest.approx(1.5, abs=1e-12)
        assert out.var[0] == pytest.approx(0.5, abs=1e-12)

    def test_mean_rules_agree_for_eaa_w2b(self):
        ps = [g(-1.0, 0.5), g(3.0, 2.0)]
        for method in (AggregationMethod.EAA, AggregationMethod.W2B):
            out = aggregate(method, ps, [0.25, 0.75])
            assert out.mean[0] == pytest.approx(-0.25 + 2.25, abs=1e-15)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [0.6, 0.6])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [-0.1, 1.1])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [1.0])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, [], [])

    def test_weight_normalization_within_tolerance(self):
        # drift below 1e-9 is renormalized, not rejected
        out = aggregate(AggregationMethod.EAA, self.trio, [0.5, 0.5 + 1e-10])
        assert math.isfinite(out.mean[0])

    @settings(deadline=None)
    @given(METHODS, weighted_sets(), POSTERIORS, st.data())
    def test_zero_weight_entry_is_bit_exact_identity(self, method, members, extra, data):
        posts, w = members
        at = data.draw(st.integers(0, len(posts)))
        out = aggregate(method, posts[:at] + [extra] + posts[at:], np.insert(w, at, 0.0))
        ref = aggregate(method, posts, w)  # a lone member comes back as itself
        assert np.array_equal(out.mean, ref.mean)
        assert np.array_equal(out.var, ref.var)

    @settings(deadline=None)
    @given(METHODS, weighted_sets(min_size=2), st.data())
    def test_permutation_invariant(self, method, members, data):
        posts, w = members
        perm = data.draw(st.permutations(range(len(posts))))
        shuffled = aggregate(method, [posts[i] for i in perm], w[list(perm)])
        assert_close(shuffled, aggregate(method, posts, w))

    @settings(deadline=None)
    @given(METHODS, POSTERIORS, st.floats(0.0, 1.0))
    def test_self_aggregate_is_identity(self, method, p, w):
        assert_close(aggregate(method, [p, p], [w, 1.0 - w]), p)

    def test_many_members_weighted(self):
        ps = [g(float(i), 1.0 + i) for i in range(4)]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        out = aggregate(AggregationMethod.EAA, ps, w)
        assert out.mean[0] == pytest.approx(float(np.sum(w * np.arange(4))))
        assert out.var[0] == pytest.approx(float(np.sum(w * (1.0 + np.arange(4)))))

    @pytest.mark.parametrize("dim", [1, 2, 51, 1000])
    @pytest.mark.parametrize("k", [2, 7, 8, 20])
    def test_bits_equal_stacked_sums(self, k, dim):
        # the stacked form every rule was first written in: one (k, dim)
        # array per statistic, reduced with np.sum over axis 0
        rng = np.random.default_rng(k * dim)
        means = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-4, 5, (k, 1))
        means[:, 0] = -0.0  # a column of negative zeros sums to +0.0, as before
        posts = [g(m, np.exp(3.0 * rng.standard_normal(dim))) for m in means]
        w = rng.random(k)
        w /= w.sum()
        wcol = (w / w.sum())[:, None]  # aggregate renormalizes its weights
        means, variances = np.stack([p.mean for p in posts]), np.stack([p.var for p in posts])
        prec = np.sum(wcol / variances, axis=0)
        expect = {
            AggregationMethod.EAA: (np.sum(wcol * means, axis=0), np.sum(wcol * variances, axis=0)),
            AggregationMethod.W2B: (np.sum(wcol * means, axis=0), np.sum(wcol * np.sqrt(variances), axis=0) ** 2),
            AggregationMethod.RKLB: ((1.0 / prec) * np.sum(wcol * means / variances, axis=0), 1.0 / prec),
        }
        for method, (mean, var) in expect.items():
            out = aggregate(method, posts, w)
            assert out.mean.tobytes() == mean.tobytes(), method
            assert out.var.tobytes() == np.maximum(var, VAR_FLOOR).tobytes(), method

    def test_variance_floor(self, caplog):
        tiny = [g(0.0, 1e-14), g(0.0, 1e-14)]
        with caplog.at_level("WARNING"):
            out = aggregate(AggregationMethod.EAA, tiny, self.half)
        assert out.var[0] >= VAR_FLOOR


class TestProjectionWeights:
    """project is the barycenter of (p_g, p_k) with weights 1/(lam+1), lam/(lam+1)."""

    p_g = g([0.0, 1.0], [1.0, 0.5])
    p_k = g([4.0, -2.0], [9.0, 0.1])

    def test_from_lambda(self):
        pairs = {
            Divergence.W2SQ: AggregationMethod.W2B,
            Divergence.RKL: AggregationMethod.RKLB,
        }
        grid = [1.0, 0.0, 3.0, math.inf]
        weights = [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]
        for d, method in pairs.items():
            # 0 and inf get no row: they are the global and local posteriors
            mean, var = project(d, one(self.p_g), one(self.p_k), grid)
            assert mean.shape == (1, 2, 2)
            for m, v, w in zip(mean[0], var[0], weights[::2]):
                ref = aggregate(method, [self.p_g, self.p_k], w)
                assert np.array_equal(m, ref.mean)
                assert np.array_equal(v, ref.var)
            *_, at_inf = projection_path(d, self.p_g, self.p_k, grid)
            assert at_inf is self.p_k
        mean, var = project(Divergence.RKL, one(self.p_g), one(self.p_k), [])
        assert mean.shape == var.shape == (1, 0, 2)

    def test_stacks_must_share_one_shape(self):
        with pytest.raises(ValueError, match="four \\(J, P\\) stacks of one shape"):
            project(Divergence.W2SQ, one(self.p_g), (self.p_k.mean[None], self.p_k.var), [1.0])

    def test_from_lambda_rejects_negative(self, monkeypatch):
        # anywhere in the grid, before any arithmetic
        def refuse(*args):
            raise AssertionError("barycenter computed before every lambda was checked")

        monkeypatch.setattr(geometry, "_barycenter", refuse)
        for bad in (-0.5, -math.inf, math.nan):
            for at in (0, 2, 4):
                grid = [0.0, 1.0, 1e300, math.inf]
                grid.insert(at, bad)
                with pytest.raises(ValueError, match=f"lambda must be >= 0, got {bad}"):
                    project(Divergence.W2SQ, one(self.p_g), one(self.p_k), grid)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(projection_instances())
    def test_grid_rows_bit_equal_aggregate(self, instance):
        p_g, p_k, grid = instance
        pairs = {
            Divergence.W2SQ: AggregationMethod.W2B,
            Divergence.RKL: AggregationMethod.RKLB,
        }
        inner = [lam for lam in grid if 0.0 < lam < math.inf]
        # a block of J = 3 pairs: each row has the bits of its pair alone
        block = [(p_g, p_k), (p_k, p_g), (p_g, p_g)]
        stacks = [tuple(np.stack([getattr(q[i], f) for q in block]) for f in ("mean", "var"))
                  for i in (0, 1)]
        for d, method in pairs.items():
            mean, var = project(d, *stacks, grid)
            assert mean.shape == var.shape == (3, len(inner), p_g.dim)
            for j, (a, b) in enumerate(block):
                for l, lam in enumerate(inner):
                    ref = aggregate(method, [a, b], [1.0 / (lam + 1.0), lam / (lam + 1.0)])
                    assert mean[j, l].tobytes() == ref.mean.tobytes(), (d, j, lam)
                    assert var[j, l].tobytes() == ref.var.tobytes(), (d, j, lam)

    def test_variance_floor_per_row(self, caplog):
        # a tiny global variance is floored near lambda = 0 only; one warning
        # per grid counts the floored coordinates of every row
        p_g, p_k = g([0.0, 1.0], [1e-14, 1e-14]), g([0.5, -0.0], [1.0, 2.0])
        with caplog.at_level("WARNING"):
            _, ((low, high),) = project(Divergence.RKL, one(p_g), one(p_k), [1e-300, 1e300])
        assert np.array_equal(low, [VAR_FLOOR, VAR_FLOOR])
        assert high.tobytes() == aggregate(
            AggregationMethod.RKLB, [p_g, p_k], [1.0 / (1e300 + 1.0), 1e300 / (1e300 + 1.0)]
        ).var.tobytes()
        assert high.min() > VAR_FLOOR
        floors = [r.getMessage() for r in caplog.records if "variance floor" in r.getMessage()]
        assert floors == ["variance floor applied to 2 coordinate(s)"]


class TestProject:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_w2sq_worked_example(self):
        mean, var = project(Divergence.W2SQ, one(self.p_g), one(self.p_k), [1.0])
        assert mean[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert var[0, 0, 0] == pytest.approx(4.0, abs=1e-12)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_zero_is_global_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            # no row is computed: the path at lambda = 0 is p_g itself
            assert project(d, one(p_g), one(p_k), [0.0])[0].shape == (1, 0, p_g.dim)
            (out,) = projection_path(d, p_g, p_k, [0.0])
            assert np.array_equal(out.mean, p_g.mean)
            assert np.array_equal(out.var, p_g.var)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_inf_is_local_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            assert project(d, one(p_g), one(p_k), [math.inf])[0].shape == (1, 0, p_g.dim)
            (out,) = projection_path(d, p_g, p_k, [math.inf])
            assert np.array_equal(out.mean, p_k.mean)
            assert np.array_equal(out.var, p_k.var)

    def test_forward_kl_rejected(self):
        with pytest.raises(ValueError):
            project(Divergence.KL, one(self.p_g), one(self.p_k), [1.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            project(Divergence.W2SQ, one(self.p_g), one(self.p_k), [-1.0])

    def test_rkl_matches_two_point_fusion(self):
        mean, var = project(Divergence.RKL, one(g(0.0, 1.0)), one(g(2.0, 1.0 / 3.0)), [1.0])
        assert mean[0, 0, 0] == pytest.approx(1.5, abs=1e-12)
        assert var[0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_along_grid(self):
        grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0, math.inf]
        for d in (Divergence.RKL, Divergence.W2SQ):
            assert geodesic_monotonicity(d, self.p_g, self.p_k, grid) == []


class TestNumericOracle:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_radius_zero_returns_local(self):
        out = numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, 0.0)
        assert np.array_equal(out.mean, self.p_k.mean)

    def test_global_inside_ball_returns_global(self):
        r = projection_divergence(Divergence.W2SQ, self.p_g, self.p_k) + 1.0
        out = numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, r)
        assert np.array_equal(out.mean, self.p_g.mean)

    @pytest.mark.parametrize("d", [Divergence.RKL, Divergence.W2SQ])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_matches_closed_form(self, d, lam):
        assert projection_oracle_error(d, self.p_g, self.p_k, lam) < 2e-3

    def test_small_variance_instances(self):
        # tight posteriors stress the constrained search
        p_g, p_k = g(0.2739, 0.1163), g(-0.4604, 0.1002)
        for d in (Divergence.RKL, Divergence.W2SQ):
            for lam in (0.25, 1.0, 4.0):
                assert projection_oracle_error(d, p_g, p_k, lam) < 2e-3

    @pytest.mark.parametrize("d", [Divergence.RKL, Divergence.W2SQ])
    def test_candidate_on_sphere_between_sds(self, d):
        # p_g outside the sphere: the best candidate lies on it, its sd
        # between p_k's and p_g's
        rng = np.random.default_rng(5)
        for _ in range(20):
            p_g, p_k = random_instance(rng)
            radius = rng.uniform(0.05, 0.95) * projection_divergence(d, p_g, p_k)
            cand = numeric_projection_oracle(d, p_g, p_k, radius)
            gap = abs(projection_divergence(d, cand, p_k) - radius)
            assert gap <= 1e-9 * max(1.0, radius), (p_g, p_k, radius, gap)
            lo, hi = sorted((p_k.std[0], p_g.std[0]))
            assert lo <= cand.std[0] <= hi

    def test_rejects_multidim(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(
                Divergence.W2SQ, g([0.0, 0.0], [1.0, 1.0]), g([1.0, 1.0], [1.0, 1.0]), 1.0
            )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, -0.1)

