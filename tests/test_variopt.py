
import numpy as np
import pytest

from baryfed.config import OptimizerCfg
from baryfed.geometry import DiagGaussian, kl_gaussian
from baryfed.models import RowError
from baryfed.variopt import (
    IvonState,
    hessian_of,
    ivon_restart,
    ivon_step,
    linear_lr,
    posterior_of,
    sample_params,
)


LR = 0.1


def fresh(dim=3, **kw):
    """A stack of one state at the origin with its Hessian filled with h0."""
    ess = kw.pop("ess", 100)
    origin = DiagGaussian(mean=np.zeros(dim), var=np.ones(dim))
    return ivon_restart([origin], OptimizerCfg(**kw), [ess], frozen=True)


def stepped(st, grad, theta, lr, update_hessian=True):
    """A copy of the stack of one ``st`` after one step with a single
    gradient (P,) or a few (S, P)."""
    out = st[[0]]
    ivon_step(out, np.reshape(grad, (1, -1, st.mean.shape[1])),
              np.reshape(theta, (1, -1, st.mean.shape[1])), lr, update_hessian)
    return out


def draw(st, rng):
    """One draw (P,) from the stack of one ``st``."""
    return sample_params(st, [rng], np.empty((1, 1, st.mean.shape[1])))[0, 0]


class TestDuality:
    def test_round_trip_tight(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(10, 100000))
            h = float(rng.uniform(0.01, 50.0))
            d = float(rng.uniform(1e-6, 1e-2))
            (post,) = posterior_of(fresh(4, weight_decay=d, h0=h, ess=n))
            assert np.allclose(post.var, 1.0 / (n * (h + d)), rtol=1e-12)
            back = hessian_of(post, n, d)
            assert np.allclose(back, h, rtol=1e-12)

    def test_pinned_substitution(self):
        st = fresh(1, weight_decay=2e-4, h0=5.0, ess=1000)
        assert posterior_of(st)[0].var[0] == pytest.approx(1.99992e-4, rel=1e-5)

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
        out = stepped(st, g, st.mean, LR, update_hessian=False)
        # bias correction makes the first debiased momentum equal the gradient
        expect = st.mean - LR * g / (st.hess + st.opt.weight_decay)
        assert np.allclose(out.mean, expect, atol=1e-12)
        assert out.step_count.tolist() == [1]

    def test_update_hessian_false_freezes_curvature(self):
        st = fresh()
        rng = np.random.default_rng(1)
        theta = draw(st, rng)
        out = stepped(st, np.ones(3), theta, LR, update_hessian=False)
        assert np.array_equal(out.hess, st.hess)

    def test_hessian_ema_moves_toward_sample(self):
        st = fresh(beta2=0.5)
        rng = np.random.default_rng(2)
        theta = draw(st, rng)
        out = stepped(st, np.ones(3), theta, LR)
        assert not np.array_equal(out.hess, st.hess)
        assert np.all(out.hess >= 0.0)

    def test_new_state_var_matches_its_hessian(self):
        st = fresh(beta2=0.5, weight_decay=0.01)
        rng = np.random.default_rng(3)
        out = stepped(st, np.ones(3), draw(st, rng), LR)
        assert not np.array_equal(out.hess, st.hess)
        assert np.array_equal(out.var, 1.0 / (out.ess * (out.hess + 0.01)))

    def test_stacked_samples_average(self):
        st = fresh()
        g = np.stack([np.ones(3), 3.0 * np.ones(3)])
        th = np.stack([st.mean[0], st.mean[0]])
        out = stepped(st, g, th, LR, update_hessian=False)
        single = stepped(st, 2.0 * np.ones(3), st.mean, LR, update_hessian=False)
        assert np.allclose(out.mean, single.mean, atol=1e-15)

    def test_clip_radius(self):
        st = fresh(clip_radius=1e-6)
        out = stepped(st, 100.0 * np.ones(3), st.mean, LR, update_hessian=False)
        assert np.linalg.norm(out.mean - st.mean) <= 1e-6 + 1e-12

    def test_lr_override(self):
        st = fresh()
        a = stepped(st, np.ones(3), st.mean, lr=0.01, update_hessian=False)
        b = stepped(st, np.ones(3), st.mean, lr=0.1, update_hessian=False)
        assert np.linalg.norm(b.mean - st.mean) > np.linalg.norm(a.mean - st.mean)

    def test_shape_mismatch(self):
        st = fresh()
        # a wrong P, a (K, P) gradient without its sample axis, a 1-D state
        # with a stacked gradient and with a 1-D one
        for state, shape in ((st, (1, 1, 4)), (st, (1, 3)), (st[0], (1, 1, 3)), (st[0], (3,))):
            with pytest.raises(ValueError, match="gradients must be"):
                ivon_step(state, np.ones(shape), np.ones(shape), LR)

    def test_non_finite_gradient(self):
        st = fresh()
        g = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            stepped(st, g, st.mean, LR)

    def test_weight_decay_pulls_toward_zero(self):
        st = IvonState(
            mean=np.array([[10.0]]), hess=np.array([[5.0]]), grad_momentum=np.zeros((1, 1)),
            opt=OptimizerCfg(weight_decay=0.5), ess=np.array([[100.0]]),
            step_count=np.array([0]),
        )
        out = stepped(st, np.zeros(1), st.mean, LR, update_hessian=False)
        assert out.mean[0, 0] < 10.0

    def test_zero_curvature_names_step_and_coordinate(self):
        # delta = 0 and a Hessian rectified to 0: the update would divide by zero
        st = IvonState(
            mean=np.zeros((1, 3)), hess=np.array([[5.0, 0.0, 0.0]]),
            grad_momentum=np.zeros((1, 3)), opt=OptimizerCfg(weight_decay=0.0),
            ess=np.array([[100.0]]), step_count=np.array([6]),
        )
        with pytest.raises(ValueError, match=r"optimizer step 7: h \+ delta = 0 at coordinate 1,"):
            stepped(st, np.ones(3), st.mean, LR, update_hessian=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mean_names_step_and_coordinate(self):
        st = IvonState(
            mean=np.zeros((1, 3)), hess=np.array([[5.0, 5.0, 1e-300]]),
            grad_momentum=np.zeros((1, 3)), opt=OptimizerCfg(weight_decay=0.0),
            ess=np.array([[100.0]]), step_count=np.array([0]),
        )
        with pytest.raises(ValueError, match="optimizer step 1: non-finite mean at coordinate 2"):
            stepped(st, np.ones(3), st.mean, 1e10, update_hessian=False)

    def test_restart_from_posterior(self):
        post = DiagGaussian(mean=np.array([0.5, -1.0]), var=np.array([1e-3, 2e-3]))
        st = ivon_restart([post], OptimizerCfg(weight_decay=0.01), [40])
        assert np.array_equal(st.mean[0], post.mean) and st.step_count.tolist() == [0]
        assert np.array_equal(st.hess[0], hessian_of(post, 40, 0.01))
        assert np.allclose(posterior_of(st)[0].var, post.var, rtol=1e-12)


class TestStack:
    """A stack of states steps each row as that state alone would."""

    def singles(self, opt, dims=5):
        """Three stacks of one state each."""
        rng = np.random.default_rng(9)
        return [
            IvonState(
                mean=rng.normal(size=(1, dims)), hess=rng.uniform(0.5, 2.0, size=(1, dims)),
                grad_momentum=rng.normal(size=(1, dims)), opt=opt, ess=np.array([[ess]]),
                step_count=np.array([steps]),
            )
            for ess, steps in ((10.0, 0), (40.0, 3), (7.0, 1))
        ]

    @pytest.mark.parametrize("samples", [1, 2, 3])
    @pytest.mark.parametrize("clip", [None, 0.05])
    def test_rows_equal_single_steps(self, samples, clip):
        opt = OptimizerCfg(beta2=0.9, weight_decay=0.01, clip_radius=clip)
        singles = self.singles(opt)
        stack = IvonState(
            **{name: np.concatenate([getattr(st, name) for st in singles])
               for name in ("mean", "hess", "grad_momentum")},
            opt=opt, ess=np.array([[10.0], [40.0], [7.0]]), step_count=np.array([0, 3, 1]),
        )
        rngs = [np.random.default_rng(k) for k in range(3)]
        thetas = sample_params(stack, rngs, out=np.empty((3, samples, 5)))
        grads = np.random.default_rng(5).normal(size=thetas.shape)
        before = stack.mean.copy()
        ivon_step(stack, grads, thetas, LR)
        assert not np.array_equal(stack.mean, before)
        for k, st in enumerate(singles):
            rng = np.random.default_rng(k)
            draws = np.stack([draw(st, rng) for _ in range(samples)])
            assert np.array_equal(draws, thetas[k])
            ivon_step(st, grads[k : k + 1], thetas[k : k + 1], LR)
            for name in ("mean", "hess", "grad_momentum", "var", "std"):
                assert np.array_equal(getattr(st, name)[0], getattr(stack, name)[k])
            assert st.step_count[0] == stack.step_count[k]

    def test_prefix_view_steps_in_place(self):
        opt = OptimizerCfg()
        stack = ivon_restart(posterior_of(fresh(dim=4)) * 3, opt, [5.0, 6.0, 7.0])
        untouched = stack.mean[2].copy()
        view = stack[:2]
        ivon_step(view, np.ones((2, 1, 4)), view.mean[:, None], LR, update_hessian=False)
        assert stack.step_count.tolist() == [1, 1, 0]
        assert np.array_equal(stack.mean[2], untouched)
        assert not np.array_equal(stack.mean[0], untouched)

    def test_failed_rows_named_and_others_stepped(self):
        opt = OptimizerCfg(weight_decay=0.0)
        stack = ivon_restart(posterior_of(fresh(dim=3)) * 3, opt, [100.0, 100.0, 100.0])
        grads = np.ones((3, 1, 3))
        grads[1, 0, 2] = np.nan
        good = stepped(stack, grads[0], stack.mean[0], LR, update_hessian=False)
        with pytest.raises(RowError) as info:
            ivon_step(stack, grads, stack.mean[:, None], LR, update_hessian=False)
        assert info.value.errors == {1: "optimizer step 1: non-finite gradient at coordinate 2"}
        assert np.array_equal(stack.mean[0], good.mean[0])


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

        state = fresh(dim, weight_decay=delta, beta2=0.995, h0=5.0, ess=n)
        step_rng = np.random.default_rng(11)
        theta = np.empty((1, 1, dim))
        total = 2000
        for t in range(total):
            sample_params(state, [step_rng], theta)
            grad = -(X.T @ (y - X @ theta[0, 0])) / n
            ivon_step(state, grad[None, None], theta, lr=linear_lr(0.1, 0.01, t, total))
        assert kl_gaussian(posterior_of(state)[0], analytic) < 0.05


class TestCheckpoint:
    def test_sampling_is_seeded(self):
        st = fresh()
        a = draw(st, np.random.default_rng(5))
        b = draw(st, np.random.default_rng(5))
        assert np.array_equal(a, b)
