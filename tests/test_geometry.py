import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryfed.geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    VAR_FLOOR,
    aggregate,
    geodesic_sweep,
    kl_gaussian,
    numeric_projection_oracle,
    project,
    projection_divergence,
    w2sq_gaussian,
)


def g(mean, var):
    return DiagGaussian(mean=np.atleast_1d(np.asarray(mean, dtype=np.float64)),
                        var=np.atleast_1d(np.asarray(var, dtype=np.float64)))


STD_NORMAL = g(0.0, 1.0)


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
        for d, method in pairs.items():
            for lam, w in ((1.0, [0.5, 0.5]), (0.0, [1.0, 0.0]), (3.0, [0.25, 0.75])):
                out = project(d, self.p_g, self.p_k, lam)
                ref = aggregate(method, [self.p_g, self.p_k], w)
                assert np.array_equal(out.mean, ref.mean)
                assert np.array_equal(out.var, ref.var)
            assert project(d, self.p_g, self.p_k, math.inf) is self.p_k

    def test_from_lambda_rejects_negative(self):
        for lam in (-0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda must be >= 0"):
                project(Divergence.W2SQ, self.p_g, self.p_k, lam)


class TestProject:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_w2sq_worked_example(self):
        out = project(Divergence.W2SQ, self.p_g, self.p_k, 1.0)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert out.var[0] == pytest.approx(4.0, abs=1e-12)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_zero_is_global_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            out = project(d, p_g, p_k, 0.0)
            assert np.array_equal(out.mean, p_g.mean)
            assert np.array_equal(out.var, p_g.var)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_inf_is_local_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            out = project(d, p_g, p_k, math.inf)
            assert np.array_equal(out.mean, p_k.mean)
            assert np.array_equal(out.var, p_k.var)

    def test_forward_kl_rejected(self):
        with pytest.raises(ValueError):
            project(Divergence.KL, self.p_g, self.p_k, 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            project(Divergence.W2SQ, self.p_g, self.p_k, -1.0)

    def test_rkl_matches_two_point_fusion(self):
        out = project(Divergence.RKL, g(0.0, 1.0), g(2.0, 1.0 / 3.0), 1.0)
        assert out.mean[0] == pytest.approx(1.5, abs=1e-12)
        assert out.var[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_along_grid(self):
        grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0, math.inf]
        for d in (Divergence.RKL, Divergence.W2SQ):
            sweep = geodesic_sweep(d, self.p_g, self.p_k, grid)
            to_k = [projection_divergence(d, q, self.p_k) for q in sweep]
            to_g = [projection_divergence(d, q, self.p_g) for q in sweep]
            assert all(b <= a for a, b in zip(to_k, to_k[1:]))
            assert all(b >= a for a, b in zip(to_g, to_g[1:]))

    def test_geodesic_sweep_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            geodesic_sweep(Divergence.W2SQ, self.p_g, self.p_k, [1.0, 0.5])
        with pytest.raises(ValueError):
            geodesic_sweep(Divergence.W2SQ, self.p_g, self.p_k, [-1.0, 0.5])


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
        closed = project(d, self.p_g, self.p_k, lam)
        radius = projection_divergence(d, closed, self.p_k)
        got = numeric_projection_oracle(d, self.p_g, self.p_k, radius)
        assert abs(got.mean[0] - closed.mean[0]) < 2e-3
        assert abs(math.sqrt(got.var[0]) - math.sqrt(closed.var[0])) < 2e-3

    def test_small_variance_instances(self):
        # tight posteriors stress the constrained search
        p_g, p_k = g(0.2739, 0.1163), g(-0.4604, 0.1002)
        for d in (Divergence.RKL, Divergence.W2SQ):
            for lam in (0.25, 1.0, 4.0):
                closed = project(d, p_g, p_k, lam)
                radius = projection_divergence(d, closed, p_k)
                got = numeric_projection_oracle(d, p_g, p_k, radius)
                assert abs(got.mean[0] - closed.mean[0]) < 2e-3
                assert abs(math.sqrt(got.var[0]) - math.sqrt(closed.var[0])) < 2e-3

    def test_rejects_multidim(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(
                Divergence.W2SQ, g([0.0, 0.0], [1.0, 1.0]), g([1.0, 1.0], [1.0, 1.0]), 1.0
            )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, -0.1)

