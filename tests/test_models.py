import numpy as np
import pytest

from baryfed.geometry import DiagGaussian
from baryfed.models import (
    Batch,
    MlpSpec,
    forward,
    init_params,
    loss_and_grad,
    pack,
    param_count,
    predict_proba_mc,
    unpack,
)


SMALL = MlpSpec(layer_sizes=(2, 3, 2))


def small_batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.normal(size=(n, 2)),
        labels=rng.integers(0, 2, size=n).astype(np.int64),
    )


class TestSpecAndBatch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4,))
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4, 0, 2))
        assert MlpSpec(layer_sizes=(4, 8, 3)).n_classes == 3

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros(3), labels=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))
        assert small_batch(7).size == 7

    def test_param_count_by_hand(self):
        assert param_count(SMALL) == (2 * 3 + 3) + (3 * 2 + 2)
        assert param_count(MlpSpec(layer_sizes=(784, 120, 84, 10))) == 105214


class TestPacking:
    def test_round_trip_bit_exact(self):
        theta = init_params(SMALL, seed=4)
        again = pack(unpack(theta, SMALL))
        assert np.array_equal(theta, again)

    def test_unpack_shapes(self):
        layers = unpack(init_params(SMALL, seed=0), SMALL)
        assert layers[0][0].shape == (2, 3)
        assert layers[0][1].shape == (3,)
        assert layers[1][0].shape == (3, 2)
        assert layers[1][1].shape == (2,)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unpack(np.zeros(param_count(SMALL) + 1), SMALL)


class TestInit:
    def test_seeded_and_bounded(self):
        a = init_params(SMALL, seed=9)
        b = init_params(SMALL, seed=9)
        c = init_params(SMALL, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        (w1, b1), (w2, b2) = unpack(a, SMALL)
        assert np.all(np.abs(w1) <= np.sqrt(6.0 / 5.0))
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / 5.0))
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)


class TestForward:
    def test_shapes_and_determinism(self):
        theta = init_params(SMALL, seed=1)
        x = np.random.default_rng(0).normal(size=(6, 2))
        out = forward(SMALL, theta, x)
        assert out.shape == (6, 2)
        assert np.array_equal(out, forward(SMALL, theta, x))

    def test_input_shape_rejected(self):
        theta = init_params(SMALL, seed=1)
        with pytest.raises(ValueError):
            forward(SMALL, theta, np.zeros((3, 5)))

    def test_zero_hidden_relu_kills_signal(self):
        # negative pre-activations everywhere -> logits reduce to output biases
        theta = init_params(SMALL, seed=1)
        layers = unpack(theta, SMALL)
        layers[0][0].fill(0.0)
        layers[0][1].fill(-1.0)
        layers[1][1][:] = [0.5, -0.5]
        out = forward(SMALL, pack(layers), np.ones((4, 2)))
        assert np.allclose(out, [0.5, -0.5])


class TestLossAndGrad:
    def test_loss_at_uniform_logits(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        theta = np.zeros(param_count(spec))
        batch = Batch(
            inputs=np.ones((6, 2)), labels=np.arange(6, dtype=np.int64) % 3
        )
        loss, _ = loss_and_grad(spec, theta, batch)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("k", range(5))
    def test_matches_finite_differences(self, k):
        rng = np.random.default_rng(40 + k)
        spec = MlpSpec(
            layer_sizes=(
                int(rng.integers(2, 5)),
                int(rng.integers(3, 7)),
                int(rng.integers(2, 4)),
            )
        )
        theta = init_params(spec, seed=k)
        batch = Batch(
            inputs=rng.normal(size=(5, spec.layer_sizes[0])),
            labels=rng.integers(0, spec.n_classes, size=5).astype(np.int64),
        )
        _, grad = loss_and_grad(spec, theta, batch)
        eps = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (
                loss_and_grad(spec, up, batch)[0] - loss_and_grad(spec, down, batch)[0]
            ) / (2 * eps)
        rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4

    def test_gradient_descends(self):
        theta = init_params(SMALL, seed=2)
        batch = small_batch(20, seed=3)
        loss0, grad = loss_and_grad(SMALL, theta, batch)
        loss1, _ = loss_and_grad(SMALL, theta - 0.1 * grad, batch)
        assert loss1 < loss0


class TestPredictiveAndCounters:
    def test_mc_probabilities(self):
        theta = init_params(SMALL, seed=5)
        post = DiagGaussian(mean=theta, var=np.full(theta.size, 1e-3))
        x = np.random.default_rng(1).normal(size=(8, 2))
        probs = predict_proba_mc(SMALL, post, x, samples=6, seed=7)
        assert probs.shape == (8, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(probs, predict_proba_mc(SMALL, post, x, samples=6, seed=7))
        other = predict_proba_mc(SMALL, post, x, samples=6, seed=8)
        assert not np.array_equal(probs, other)

    def test_sample_count_validated(self):
        theta = init_params(SMALL, seed=5)
        post = DiagGaussian(mean=theta, var=np.full(theta.size, 1e-3))
        with pytest.raises(ValueError):
            predict_proba_mc(SMALL, post, np.zeros((1, 2)), samples=0, seed=0)
