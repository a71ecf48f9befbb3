import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryfed import models
from baryfed.geometry import DiagGaussian
from baryfed.models import (
    Batch,
    _log_softmax,
    MlpSpec,
    class_argmax,
    class_max,
    class_sum,
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

    def test_stacked_non_finite_rows_get_nan_loss(self):
        thetas = np.stack([init_params(SMALL, seed=s) for s in range(3)])
        thetas[[0, 2]] *= 1e200
        batch = Batch(np.ones((3, 4, 2)), np.zeros((3, 4), dtype=np.int64), [4, 4, 2])
        losses, grads = loss_and_grad(SMALL, thetas, batch)
        assert np.flatnonzero(np.isnan(losses)).tolist() == [0, 2]
        # the finite row keeps the bits of row 1 alone
        ref_loss, ref_grad = one_loss_and_grad(
            SMALL, thetas[1], one_batch(batch.inputs[1], batch.labels[1])
        )
        assert losses[1] == ref_loss
        assert np.array_equal(grads[1], ref_grad)

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


def stacked(posts):
    """Posteriors as the rows of one (M, P) stack."""
    return DiagGaussian(mean=np.stack([p.mean for p in posts]), var=np.stack([p.var for p in posts]))


def test_log_softmax_bits_equal_max_reduction():
    # the running column maximum gives the values of max(axis=-1): ties,
    # signed zeros, infinities and NaN included
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
    for classes in (1, 2, 3, 10):
        logits = rng.normal(size=(4, 5, 50, classes))
        logits[0] = rng.choice(special, size=(5, 50, classes))
        logits[1] = np.round(logits[1])  # ties
        with np.errstate(invalid="ignore"):
            shifted = logits - logits.max(axis=-1, keepdims=True)
            ref = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            assert _log_softmax(logits).tobytes() == ref.tobytes()


# class counts whose sums take every branch of NumPy's pairwise order: a
# plain loop below 8, 8 accumulators up to 128, halving above that
CLASS_COUNTS = [*range(1, 141), 255, 256, 257, 513]
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, np.inf, -np.inf, np.nan])


def same_bits_or_nan(got, ref):
    """Equal bit for bit where NumPy's value is a number, NaN where it is NaN
    (the sign of a NaN is not kept)."""
    nan = np.isnan(ref)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == ref[~nan].tobytes()


@st.composite
def class_arrays(draw):
    """(..., C) arrays with wide exponents, special values, ties and signed
    zeros, for a class count of CLASS_COUNTS."""
    classes = draw(st.sampled_from(CLASS_COUNTS))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (classes,)) * 10.0 ** rng.integers(-30, 30, lead + (classes,))
    special = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    if draw(st.booleans()):
        x = np.round(x)  # ties
    return x


class TestClassAxisKernels:
    """The column kernels give NumPy's class-axis reductions bit for bit."""

    @pytest.mark.parametrize("lead", [(1,), (5,), (3, 4), (2, 3, 7)])
    def test_sum_bits_equal_numpy_sum(self, lead):
        rng = np.random.default_rng(len(lead))
        for classes in CLASS_COUNTS:
            x = rng.standard_normal(lead + (classes,)) * 10.0 ** rng.integers(-12, 12, classes)
            assert class_sum(x).tobytes() == x.sum(axis=-1, keepdims=True).tobytes(), classes

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(class_arrays())
    @example(np.full((2, 9), -0.0))
    @example(np.array([[np.inf, -np.inf, 1.0], [np.nan, 1.0, np.inf]]))
    def test_sum_matches_numpy_on_any_values(self, x):
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits_or_nan(class_sum(x), x.sum(axis=-1, keepdims=True))

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(class_arrays())
    @example(np.array([[1.0, 1.0, 0.5], [0.0, -0.0, -1.0], [-0.0, 0.0, -1.0]]))
    @example(np.array([[1.0, np.nan, np.nan], [np.nan, np.inf, 1.0], [-np.inf, -np.inf, -np.inf]]))
    def test_argmax_and_max_equal_numpy(self, x):
        index, top = class_argmax(x)
        assert index.tolist() == np.argmax(x, axis=-1).tolist()
        assert same_bits_or_nan(top, x.max(axis=-1))
        assert same_bits_or_nan(class_max(x), x.max(axis=-1, keepdims=True))


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
        # a posterior and its stack of one score alike
        again = predict_proba_mc(SMALL, [post[None]], x, noise_block(6, post.dim, 7))
        assert np.array_equal(probs, again)
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
        probs = predict_proba_mc(spec, [stacked(posts)], x, noise)
        assert probs.shape == (5, 9, spec.n_classes)
        for post, got in zip(posts, probs):
            assert np.array_equal(got, reseeded_proba(spec, post, x, samples, seed))

    def test_chunks_respect_budget_and_keep_bits(self, monkeypatch):
        spec = MlpSpec(layer_sizes=(4, 5, 3))
        posts = self.posteriors(spec, 7, seed=5)
        x = np.random.default_rng(6).normal(size=(9, 4))
        noise = noise_block(4, posts[0].dim, 9)
        whole = predict_proba_mc(spec, [stacked(posts)], x, noise)
        # the same rows as three stacks, one of them empty
        empty = DiagGaussian(mean=np.empty((0, posts[0].dim)), var=np.empty((0, posts[0].dim)))
        parts = [stacked(posts[:3]), empty, stacked(posts[3:])]
        assert np.array_equal(predict_proba_mc(spec, parts, x, noise), whole)

        budget = 2 * noise.size + 1  # two posteriors' draws per chunk: one spans two stacks
        sizes = []

        def recording(spec, thetas, inputs):
            sizes.append(thetas.size)
            return forward(spec, thetas, inputs)

        monkeypatch.setattr(models, "MC_CHUNK_PARAMS", budget)
        monkeypatch.setattr(models, "forward", recording)
        chunked = predict_proba_mc(spec, parts, x, noise)
        assert len(sizes) >= 3
        assert max(sizes) <= budget
        assert np.array_equal(chunked, whole)

    def test_stack_scores_its_posteriors_in_c_order(self):
        spec = MlpSpec(layer_sizes=(4, 5, 3))
        flat = stacked(self.posteriors(spec, 6, seed=5))
        x = np.random.default_rng(6).normal(size=(9, 4))
        noise = noise_block(4, flat.dim, 9)
        cube = DiagGaussian(mean=flat.mean.reshape(2, 3, -1), var=flat.var.reshape(2, 3, -1))
        got = predict_proba_mc(spec, [cube], x, noise)
        assert np.array_equal(got, predict_proba_mc(spec, [flat], x, noise))

    def test_posterior_dimension_validated(self):
        post = self.small_posterior()
        wrong = DiagGaussian(mean=np.zeros(post.dim + 1), var=np.ones(post.dim + 1))
        with pytest.raises(ValueError, match="posterior dimension"):
            predict_proba_mc(SMALL, [post, wrong], np.zeros((1, 2)), np.zeros((3, post.dim)))
        with pytest.raises(ValueError, match=f"need {post.dim}, got {post.dim + 1}"):
            stack = stacked([wrong, wrong])[None]
            predict_proba_mc(SMALL, [post[None], stack], np.zeros((1, 2)), np.zeros((3, post.dim)))

    def test_sample_count_validated(self):
        # an empty noise block is zero samples
        post = self.small_posterior()
        with pytest.raises(ValueError, match="noise"):
            predict_proba_mc(SMALL, [post], np.zeros((1, 2)), np.zeros((0, post.dim)))

    def test_noise_width_must_be_param_count(self):
        post = self.small_posterior()
        with pytest.raises(ValueError, match="noise"):
            predict_proba_mc(SMALL, [post], np.zeros((1, 2)), np.zeros((3, post.dim - 1)))
