import math

import numpy as np
import pytest

from baryfed.config import OptimizerCfg
from baryfed.geometry import DiagGaussian, kl_gaussian
from baryfed.variopt import (
    IvonState,
    hessian_of,
    ivon_from_posterior,
    ivon_init,
    ivon_step,
    linear_lr,
    posterior_of,
    sample_params,
)


LR = 0.1


def fresh(dim=3, **kw):
    ess = kw.pop("ess", 100)
    return ivon_init(dim, OptimizerCfg(**kw), ess)


class TestDuality:
    def test_round_trip_tight(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(10, 100000))
            h = float(rng.uniform(0.01, 50.0))
            d = float(rng.uniform(1e-6, 1e-2))
            st = ivon_init(4, OptimizerCfg(weight_decay=d, h0=h), n)
            post = posterior_of(st)
            assert np.allclose(post.var, 1.0 / (n * (h + d)), rtol=1e-12)
            back = hessian_of(post, n, d)
            assert np.allclose(back, h, rtol=1e-12)

    def test_pinned_substitution(self):
        st = ivon_init(1, OptimizerCfg(weight_decay=2e-4, h0=5.0), 1000)
        assert posterior_of(st).var[0] == pytest.approx(1.99992e-4, rel=1e-5)

    def test_rectification_logs(self, caplog):
        post = DiagGaussian(mean=np.zeros(2), var=np.array([1.0, 1e6]))
        with caplog.at_level("WARNING"):
            h = hessian_of(post, 10, 0.5)
        assert h[1] == 0.0
        assert any("rectified" in r.message for r in caplog.records)


class TestStep:
    def test_first_step_direction(self):
        st = fresh()
        g = np.array([1.0, -2.0, 0.0])
        out = ivon_step(st, g, st.mean, LR, update_hessian=False)
        # bias correction makes the first debiased momentum equal the gradient
        expect = st.mean - LR * g / (st.hess + st.opt.weight_decay)
        assert np.allclose(out.mean, expect, atol=1e-12)
        assert out.step_count == 1

    def test_update_hessian_false_freezes_curvature(self):
        st = fresh()
        rng = np.random.default_rng(1)
        theta = sample_params(st, rng)
        out = ivon_step(st, np.ones(3), theta, LR, update_hessian=False)
        assert np.array_equal(out.hess, st.hess)

    def test_hessian_ema_moves_toward_sample(self):
        st = fresh(beta2=0.5)
        rng = np.random.default_rng(2)
        theta = sample_params(st, rng)
        out = ivon_step(st, np.ones(3), theta, LR)
        assert not np.array_equal(out.hess, st.hess)
        assert np.all(out.hess >= 0.0)

    def test_stacked_samples_average(self):
        st = fresh()
        g = np.stack([np.ones(3), 3.0 * np.ones(3)])
        th = np.stack([st.mean, st.mean])
        out = ivon_step(st, g, th, LR, update_hessian=False)
        single = ivon_step(st, 2.0 * np.ones(3), st.mean, LR, update_hessian=False)
        assert np.allclose(out.mean, single.mean, atol=1e-15)

    def test_clip_radius(self):
        st = fresh(clip_radius=1e-6)
        out = ivon_step(st, 100.0 * np.ones(3), st.mean, LR, update_hessian=False)
        assert np.linalg.norm(out.mean - st.mean) <= 1e-6 + 1e-12

    def test_lr_override(self):
        st = fresh()
        a = ivon_step(st, np.ones(3), st.mean, lr=0.01, update_hessian=False)
        b = ivon_step(st, np.ones(3), st.mean, lr=0.1, update_hessian=False)
        assert np.linalg.norm(b.mean - st.mean) > np.linalg.norm(a.mean - st.mean)

    def test_shape_mismatch(self):
        st = fresh()
        with pytest.raises(ValueError):
            ivon_step(st, np.ones(4), np.ones(4), LR)

    def test_non_finite_gradient(self):
        st = fresh()
        g = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            ivon_step(st, g, st.mean, LR)

    def test_weight_decay_pulls_toward_zero(self):
        st = IvonState(
            mean=np.array([10.0]), hess=np.array([5.0]),
            grad_momentum=np.zeros(1), opt=OptimizerCfg(weight_decay=0.5), ess=100,
        )
        out = ivon_step(st, np.zeros(1), st.mean, LR, update_hessian=False)
        assert out.mean[0] < 10.0

    def test_zero_curvature_names_step_and_coordinate(self):
        # delta = 0 and a Hessian rectified to 0: the update would divide by zero
        st = IvonState(
            mean=np.zeros(3), hess=np.array([5.0, 0.0, 0.0]),
            grad_momentum=np.zeros(3), opt=OptimizerCfg(weight_decay=0.0), ess=100,
            step_count=6,
        )
        with pytest.raises(ValueError, match=r"optimizer step 7: h \+ delta = 0 at coordinate 1,"):
            ivon_step(st, np.ones(3), st.mean, LR, update_hessian=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mean_names_step_and_coordinate(self):
        st = IvonState(
            mean=np.zeros(3), hess=np.array([5.0, 5.0, 1e-300]),
            grad_momentum=np.zeros(3), opt=OptimizerCfg(weight_decay=0.0), ess=100,
        )
        with pytest.raises(ValueError, match="optimizer step 1: non-finite mean at coordinate 2"):
            ivon_step(st, np.ones(3), st.mean, 1e10, update_hessian=False)

    def test_restart_from_posterior(self):
        post = DiagGaussian(mean=np.array([0.5, -1.0]), var=np.array([1e-3, 2e-3]))
        st = ivon_from_posterior(post, OptimizerCfg(weight_decay=0.01), 40)
        assert np.array_equal(st.mean, post.mean) and st.step_count == 0
        assert np.array_equal(st.hess, hessian_of(post, 40, 0.01))
        assert np.allclose(posterior_of(st).var, post.var, rtol=1e-12)


class TestObjective:
    def test_linear_lr_endpoints(self):
        assert linear_lr(0.1, 0.01, 0, 100) == pytest.approx(0.1)
        assert linear_lr(0.1, 0.01, 100, 100) == pytest.approx(0.01)
        mid = linear_lr(0.1, 0.01, 50, 100)
        assert 0.01 < mid < 0.1


class TestConvergence:
    def test_conjugate_linear_regression(self):
        # analytic posterior is diagonal once the design columns are orthogonal
        rng = np.random.default_rng(7)
        n, dim = 20, 2
        X = rng.normal(size=(n, dim))
        X[:, 1] -= X[:, 0] * (X[:, 0] @ X[:, 1]) / (X[:, 0] @ X[:, 0])
        y = X @ np.array([1.5, -0.7]) + 0.3 * rng.normal(size=n)

        delta = 2e-4
        prec = n * delta + np.einsum("ij,ij->j", X, X)
        analytic = DiagGaussian(mean=(X.T @ y) / prec, var=1.0 / prec)

        state = ivon_init(dim, OptimizerCfg(weight_decay=delta, beta2=0.995, h0=5.0), n)
        step_rng = np.random.default_rng(11)
        total = 2000
        for t in range(total):
            theta = sample_params(state, step_rng)
            grad = -(X.T @ (y - X @ theta)) / n
            state = ivon_step(state, grad, theta, lr=linear_lr(0.1, 0.01, t, total))
        assert kl_gaussian(posterior_of(state), analytic) < 0.05


class TestCheckpoint:
    def test_sampling_is_seeded(self):
        st = fresh()
        a = sample_params(st, np.random.default_rng(5))
        b = sample_params(st, np.random.default_rng(5))
        assert np.array_equal(a, b)
