import math

import numpy as np
import pytest

from baryfed.geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    ProjectionWeights,
    VAR_FLOOR,
    aggregate,
    divergence,
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

    def test_rkl_is_flipped_kl(self):
        a, b = g(0.3, 1.7), g(-1.0, 0.2)
        assert divergence(Divergence.RKL, a, b) == pytest.approx(
            kl_gaussian(b, a), abs=1e-15
        )
        assert divergence(Divergence.KL, a, b) == kl_gaussian(a, b)
        assert divergence(Divergence.W2SQ, a, b) == w2sq_gaussian(a, b)

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

    def test_zero_weight_entry_is_bit_exact_identity(self):
        keep, drop = g([0.3, -0.7], [1.2, 0.8]), g([9.0, 9.0], [100.0, 100.0])
        for method in AggregationMethod:
            out = aggregate(method, [keep, drop], [1.0, 0.0])
            assert np.array_equal(out.mean, keep.mean)
            assert np.array_equal(out.var, keep.var)

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
    def test_from_lambda(self):
        w = ProjectionWeights.from_lambda(1.0)
        assert (w.w_g, w.w_k) == (0.5, 0.5)
        w = ProjectionWeights.from_lambda(0.0)
        assert (w.w_g, w.w_k) == (1.0, 0.0)
        w = ProjectionWeights.from_lambda(math.inf)
        assert (w.w_g, w.w_k) == (0.0, 1.0)

    def test_from_lambda_rejects_negative(self):
        with pytest.raises(ValueError):
            ProjectionWeights.from_lambda(-0.5)

    def test_direct_validation(self):
        with pytest.raises(ValueError):
            ProjectionWeights(0.7, 0.7)


class TestProject:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_w2sq_worked_example(self):
        out = project(Divergence.W2SQ, self.p_g, self.p_k, 1.0)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert out.var[0] == pytest.approx(4.0, abs=1e-12)

    def test_lambda_zero_is_global_bit_exact(self):
        for d in (Divergence.RKL, Divergence.W2SQ):
            out = project(d, self.p_g, self.p_k, 0.0)
            assert np.array_equal(out.mean, self.p_g.mean)
            assert np.array_equal(out.var, self.p_g.var)

    def test_lambda_inf_is_local_bit_exact(self):
        for d in (Divergence.RKL, Divergence.W2SQ):
            out = project(d, self.p_g, self.p_k, math.inf)
            assert np.array_equal(out.mean, self.p_k.mean)
            assert np.array_equal(out.var, self.p_k.var)

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
