import numpy as np
import pytest

from baryfed import models
from baryfed.geometry import DiagGaussian
from baryfed.models import (
    Batch,
    _log_softmax,
    MlpSpec,
    forward,
    init_params,
    loss_and_grad,
    param_count,
    predict_proba_mc,
    unpack,
)


SMALL = MlpSpec(layer_sizes=(2, 3, 2))


def one_batch(inputs, labels):
    """A stack of one minibatch."""
    return Batch(inputs=inputs[None], labels=labels[None], counts=[len(labels)])


def one_loss_and_grad(spec, theta, batch):
    """loss_and_grad of one vector (P,) as a stack of one: (loss, gradient (P,))."""
    losses, grads = loss_and_grad(spec, theta[None], batch)
    return losses[0], grads[0]


def small_batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return one_batch(rng.normal(size=(n, 2)), rng.integers(0, 2, size=n).astype(np.int64))


class TestSpecAndBatch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4,))
        with pytest.raises(ValueError):
            MlpSpec(layer_sizes=(4, 0, 2))
        assert MlpSpec(layer_sizes=(4, 8, 3)).n_classes == 3

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="3-d"):
            Batch(inputs=np.zeros(3), labels=np.zeros(3, dtype=np.int64), counts=[3])
        with pytest.raises(ValueError, match="3-d"):
            Batch(inputs=np.zeros((3, 2)), labels=np.zeros(3, dtype=np.int64), counts=[3])
        with pytest.raises(ValueError, match="labels"):
            Batch(inputs=np.zeros((1, 3, 2)), labels=np.zeros((1, 2), dtype=np.int64), counts=[2])
        with pytest.raises(TypeError, match="counts"):
            Batch(inputs=np.zeros((1, 3, 2)), labels=np.zeros((1, 3), dtype=np.int64))
        assert small_batch(7).size == 7

    def test_stacked_batch_size_counts_real_rows(self):
        # perfbench's gradient work per call is batch.size rows: padding is no work
        stacked = Batch(
            inputs=np.zeros((3, 5, 2)), labels=np.zeros((3, 5), dtype=np.int64), counts=[5, 2, 1]
        )
        assert stacked.size == 8
        for counts in ([5, 0, 1], [6, 2, 1], [5, 2]):
            with pytest.raises(ValueError, match="counts"):
                Batch(inputs=np.zeros((3, 5, 2)), labels=np.zeros((3, 5)), counts=counts)

    def test_param_count_by_hand(self):
        assert param_count(SMALL) == (2 * 3 + 3) + (3 * 2 + 2)
        assert param_count(MlpSpec(layer_sizes=(784, 120, 84, 10))) == 105214


class TestPacking:
    def test_round_trip_bit_exact(self):
        # unpack gives views: writing each layer through them rebuilds the vector
        theta = init_params(SMALL, seed=4)
        again = np.zeros_like(theta)
        for (w, b), (w2, b2) in zip(unpack(theta, SMALL), unpack(again, SMALL)):
            w2[...], b2[...] = w, b
        assert np.array_equal(theta, again)

    def test_unpack_shapes(self):
        layers = unpack(init_params(SMALL, seed=0), SMALL)
        assert layers[0][0].shape == (2, 3)
        assert layers[0][1].shape == (3,)
        assert layers[1][0].shape == (3, 2)
        assert layers[1][1].shape == (2,)

    def test_unpack_rejects_wrong_length(self):
        dim = param_count(SMALL)
        with pytest.raises(ValueError, match=f"expected \\(\\.\\.\\., {dim}\\)"):
            unpack(np.zeros(dim + 1), SMALL)
        with pytest.raises(ValueError, match=str(dim)):
            unpack(np.zeros((2, dim - 1)), SMALL)


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
        # a stack (2, 3, P) gives (2, 3, n, C), each slice bit-identical
        thetas = np.random.default_rng(2).normal(size=(2, 3, theta.size))
        out = forward(SMALL, thetas, x)
        assert out.shape == (2, 3, 6, 2)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], forward(SMALL, thetas[i, j], x))

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
        out = forward(SMALL, theta, np.ones((4, 2)))  # the layers are views of theta
        assert np.allclose(out, [0.5, -0.5])


class TestLossAndGrad:
    def test_loss_at_uniform_logits(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        theta = np.zeros(param_count(spec))
        batch = one_batch(np.ones((6, 2)), np.arange(6, dtype=np.int64) % 3)
        loss, _ = one_loss_and_grad(spec, theta, batch)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)
        with pytest.raises(ValueError, match="parameter stack"):
            loss_and_grad(spec, theta, batch)

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
        batch = one_batch(
            rng.normal(size=(5, spec.layer_sizes[0])),
            rng.integers(0, spec.n_classes, size=5).astype(np.int64),
        )
        _, grad = one_loss_and_grad(spec, theta, batch)
        eps = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (
                one_loss_and_grad(spec, up, batch)[0] - one_loss_and_grad(spec, down, batch)[0]
            ) / (2 * eps)
        rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4

    @pytest.mark.parametrize("hidden", [(8,), (16, 3)])
    def test_stacked_rows_equal_single_calls(self, hidden):
        # ragged counts (1 row included), runs of equal counts and a lone row
        rng = np.random.default_rng(len(hidden))
        spec = MlpSpec(layer_sizes=(9, *hidden, 3))
        counts = np.array([13, 13, 7, 1, 1, 12])
        n = counts.max() + 2
        thetas = rng.normal(scale=0.5, size=(len(counts), param_count(spec)))
        inputs = rng.normal(size=(len(counts), n, 9))
        labels = rng.integers(0, 3, size=(len(counts), n))
        losses, grads = loss_and_grad(spec, thetas, Batch(inputs, labels, counts))
        for theta, x, y, m, loss, grad in zip(thetas, inputs, labels, counts, losses, grads):
            ref_loss, ref_grad = one_loss_and_grad(spec, theta, one_batch(x[:m], y[:m]))
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)

    def test_stacked_non_finite_rows_raise_row_error(self):
        thetas = np.stack([init_params(SMALL, seed=s) for s in range(3)])
        thetas[[0, 2]] *= 1e200
        batch = Batch(np.ones((3, 4, 2)), np.zeros((3, 4), dtype=np.int64), [4, 4, 2])
        with np.errstate(all="ignore"), pytest.raises(models.RowError) as info:
            loss_and_grad(SMALL, thetas, batch)
        assert info.value.errors == dict.fromkeys([0, 2], "non-finite activation in forward pass")

    def test_gradient_descends(self):
        theta = init_params(SMALL, seed=2)
        batch = small_batch(20, seed=3)
        loss0, grad = one_loss_and_grad(SMALL, theta, batch)
        loss1, _ = one_loss_and_grad(SMALL, theta - 0.1 * grad, batch)
        assert loss1 < loss0


def reseeded_proba(spec, posterior, inputs, samples, seed):
    """Reference predictive: reseed and draw one P-long vector per sample."""
    rng = np.random.default_rng(seed)
    sigma = posterior.std
    probs = np.zeros((inputs.shape[0], spec.n_classes))
    for _ in range(samples):
        theta = posterior.mean + sigma * rng.standard_normal(posterior.dim)
        probs += np.exp(_log_softmax(forward(spec, theta, inputs)))
    return probs / samples


def noise_block(samples, dim, seed):
    return np.random.default_rng(seed).standard_normal((samples, dim))


class TestPredictiveAndCounters:
    def small_posterior(self):
        theta = init_params(SMALL, seed=5)
        return DiagGaussian(mean=theta, var=np.full(theta.size, 1e-3))

    def posteriors(self, spec, count, seed):
        rng = np.random.default_rng(seed)
        theta = init_params(spec, seed=1)
        return [
            DiagGaussian(
                mean=theta + rng.normal(size=theta.size),
                var=rng.uniform(1e-3, 0.5, size=theta.size),
            )
            for _ in range(count)
        ]

    def test_mc_probabilities(self):
        post = self.small_posterior()
        x = np.random.default_rng(1).normal(size=(8, 2))
        probs = predict_proba_mc(SMALL, [post], x, noise_block(6, post.dim, 7))
        assert probs.shape == (1, 8, 2)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert np.array_equal(probs, predict_proba_mc(SMALL, [post], x, noise_block(6, post.dim, 7)))
        other = predict_proba_mc(SMALL, [post], x, noise_block(6, post.dim, 8))
        assert not np.array_equal(probs, other)
        assert predict_proba_mc(SMALL, [], x, noise_block(6, post.dim, 7)).shape == (0, 8, 2)

    @pytest.mark.parametrize(
        "layers,samples,seed",
        [
            ((2, 3, 2), 1, 0),
            ((2, 3, 2), 6, 7),
            ((4, 5, 3), 10, 11),
            ((3, 8, 8, 4), 3, 2**40),
            ((5, 7, 12), 4, 3),
        ],
    )
    def test_shared_block_matches_reseeded_draws(self, layers, samples, seed):
        # one (S, P) block is the S successive P-long draws of a reseeded
        # stream, and stacking posteriors changes no bit of any one of them
        spec = MlpSpec(layer_sizes=layers)
        posts = self.posteriors(spec, 5, seed=3)
        x = np.random.default_rng(4).normal(size=(9, layers[0]))
        noise = noise_block(samples, posts[0].dim, seed)
        probs = predict_proba_mc(spec, posts, x, noise)
        assert probs.shape == (5, 9, spec.n_classes)
        for post, got in zip(posts, probs):
            assert np.array_equal(got, reseeded_proba(spec, post, x, samples, seed))

    def test_chunks_respect_budget_and_keep_bits(self, monkeypatch):
        spec = MlpSpec(layer_sizes=(4, 5, 3))
        posts = self.posteriors(spec, 7, seed=5)
        x = np.random.default_rng(6).normal(size=(9, 4))
        noise = noise_block(4, posts[0].dim, 9)
        whole = predict_proba_mc(spec, posts, x, noise)

        budget = 2 * noise.size + 1  # two posteriors' draws per chunk
        sizes = []

        def recording(spec, thetas, inputs):
            sizes.append(thetas.size)
            return forward(spec, thetas, inputs)

        monkeypatch.setattr(models, "MC_CHUNK_PARAMS", budget)
        monkeypatch.setattr(models, "forward", recording)
        chunked = predict_proba_mc(spec, posts, x, noise)
        assert len(sizes) >= 3
        assert max(sizes) <= budget
        assert np.array_equal(chunked, whole)

    def test_posterior_dimension_validated(self):
        post = self.small_posterior()
        wrong = DiagGaussian(mean=np.zeros(post.dim + 1), var=np.ones(post.dim + 1))
        with pytest.raises(ValueError, match="posterior dimension"):
            predict_proba_mc(SMALL, [post, wrong], np.zeros((1, 2)), np.zeros((3, post.dim)))

    def test_sample_count_validated(self):
        # an empty noise block is zero samples
        post = self.small_posterior()
        with pytest.raises(ValueError, match="noise"):
            predict_proba_mc(SMALL, [post], np.zeros((1, 2)), np.zeros((0, post.dim)))

    def test_noise_width_must_be_param_count(self):
        post = self.small_posterior()
        with pytest.raises(ValueError, match="noise"):
            predict_proba_mc(SMALL, [post], np.zeros((1, 2)), np.zeros((3, post.dim - 1)))
