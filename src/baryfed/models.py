"""Small fully connected classifiers on flat parameter vectors.

Networks are described by layer sizes only: ReLU between hidden layers,
softmax read off the final logits. Parameters live in a single flat float64
vector so the posterior machinery never needs to know the architecture;
unpack views the flat vector as per-layer (W, b) pairs.
``forward`` also takes a stack (..., P) of vectors, which lets
``predict_proba_mc`` score every sampled parameter of a list of posteriors
in one pass instead of one call per posterior and draw. ``loss_and_grad``
takes a stack (K, P) with a ``Batch`` of K minibatches, so every client of
a round computes its gradient in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DiagGaussian

# Sampled parameters one stacked forward pass may hold: 4 MiB of float64.
MC_CHUNK_PARAMS = 1 << 19


class RowError(ValueError):
    """Rows of a stacked call that failed, ``errors`` = {row: message}; the
    message is the lowest failing row's, which is what a call on that row
    alone raises."""

    def __init__(self, errors: dict[int, str]):
        self.errors = dict(sorted(errors.items()))
        super().__init__(next(iter(self.errors.values())))


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer_sizes[0] inputs through layer_sizes[-1] logits."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class Batch:
    """A stack of K minibatches padded to one length: inputs (K, n, d),
    labels (K, n), and in ``counts`` (K,) the number of real rows at the
    start of each. Padding rows never reach a loss or a gradient, so any
    finite values will do."""

    inputs: np.ndarray
    labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if inputs.ndim != 3:
            raise ValueError(f"inputs must be 3-d (K, n, d), got shape {inputs.shape}")
        if labels.shape != inputs.shape[:-1]:
            raise ValueError("labels must match the leading axes of inputs")
        if counts.shape != inputs.shape[:1] or np.any(counts < 1) or np.any(
            counts > inputs.shape[1]
        ):
            raise ValueError(f"counts must give 1..{inputs.shape[1]} real rows per minibatch")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        """Real rows over the whole batch; padding is not counted."""
        return int(self.counts.sum())


def param_count(spec: MlpSpec) -> int:
    """Total flat length: sum of in*out + out over consecutive layer pairs."""
    sizes = spec.layer_sizes
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); biases zero."""
    rng = np.random.default_rng(seed)
    chunks = []
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def unpack(theta: np.ndarray, spec: MlpSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector, or a stack (..., P) of them, to per-layer (W, b) views.

    W has shape (..., fan_in, fan_out) and b (..., fan_out); no copies.
    """
    theta = np.asarray(theta, dtype=np.float64)
    expected = param_count(spec)
    if theta.ndim == 0 or theta.shape[-1] != expected:
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected (..., {expected})"
        )
    lead = theta.shape[:-1]
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = theta[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        b = theta[..., offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def forward(spec: MlpSpec, thetas: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Logits (..., n, C) for one parameter vector (P,) or a stack (..., P).

    Each vector of the stack is applied to the same (n, d) inputs; its
    logits are bit-identical to a separate call on that vector alone.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.layer_sizes[0]:
        raise ValueError(
            f"inputs must have shape (n, {spec.layer_sizes[0]}), got {inputs.shape}"
        )
    layers = unpack(thetas, spec)
    act = inputs
    for i, (w, b) in enumerate(layers):
        act = act @ w
        act += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(act, 0.0, out=act)
    return act


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _runs(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(lo, hi, m) for each maximal run of rows lo..hi-1 with m real rows each."""
    edges = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), len(counts)]
    return [(lo, hi, int(counts[lo])) for lo, hi in zip(edges[:-1], edges[1:])]


def loss_and_grad(spec: MlpSpec, thetas: np.ndarray, batch: Batch):
    """Mean cross-entropy of each minibatch and its exact flat gradient.

    A stack (K, P) with a batch of K minibatches gives (losses (K,),
    gradients (K, P)): row k is scored on its own ``counts[k]`` rows and is
    bit-identical to a stack of one with that vector and those rows alone.
    Every matrix product runs on real rows only, one stacked product per
    run of rows with equal counts, because the BLAS result for a row
    depends on how many rows share the product. Raises RowError naming the
    rows whose logits are non-finite, before any gradient is computed.
    """
    inputs, labels, counts = batch.inputs, batch.labels, batch.counts
    if thetas.ndim != 2 or thetas.shape[0] != labels.shape[0]:
        raise ValueError(
            f"parameter stack of shape {thetas.shape} for {labels.shape[0]} minibatches"
        )
    if np.any(labels < 0) or np.any(labels >= spec.n_classes):
        raise ValueError("labels out of range for the output layer")
    layers = unpack(thetas, spec)
    runs = _runs(counts)
    k, n = labels.shape

    acts = [inputs]
    pre = []
    for i, (w, b) in enumerate(layers):
        z = np.zeros((k, n, w.shape[-1]))
        for lo, hi, m in runs:
            np.matmul(acts[-1][lo:hi, :m], w[lo:hi], out=z[lo:hi, :m])
        z += b[:, None, :]
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    logits = acts[-1]
    real = np.arange(n) < counts[:, None]
    bad = np.flatnonzero(np.any(~np.isfinite(logits).all(axis=-1) & real, axis=1))
    if bad.size:
        raise RowError({int(r): "non-finite activation in forward pass" for r in bad})

    log_probs = _log_softmax(logits)
    picked = log_probs[np.arange(k)[:, None], np.arange(n), labels]
    losses = np.empty(k)
    for lo, hi, m in runs:
        losses[lo:hi] = -np.mean(picked[lo:hi, :m], axis=1)

    delta = np.exp(log_probs)
    delta[np.arange(k)[:, None], np.arange(n), labels] -= 1.0
    delta /= counts[:, None, None]

    grads = np.empty(thetas.shape)
    for i, (gw, gb) in reversed(list(enumerate(unpack(grads, spec)))):
        for lo, hi, m in runs:
            np.matmul(acts[i][lo:hi, :m].transpose(0, 2, 1), delta[lo:hi, :m], out=gw[lo:hi])
            np.sum(delta[lo:hi, :m], axis=1, out=gb[lo:hi])
        if i > 0:
            back = np.zeros(pre[i - 1].shape)
            w_t = layers[i][0].transpose(0, 2, 1)
            for lo, hi, m in runs:
                np.matmul(delta[lo:hi, :m], w_t[lo:hi], out=back[lo:hi, :m])
            back *= pre[i - 1] > 0.0
            delta = back
    return losses, grads


def predict_proba_mc(
    spec: MlpSpec,
    posteriors: list[DiagGaussian],
    inputs: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Class probabilities (M, n, C) of M posteriors, each averaged over the
    draws mean + std * noise[s].

    ``noise`` is an (S, P) block of standard normals shared by every
    posterior, so all of them are scored on common random numbers. The
    posteriors run through ``forward`` as one stack, in chunks of at most
    MC_CHUNK_PARAMS sampled parameters; a posterior's S draws are never
    split, so when S * P alone exceeds the budget a chunk holds one
    posterior. Every (n, C) slice is bit-identical to drawing and summing
    that posterior's S forward passes one at a time.
    """
    noise = np.asarray(noise, dtype=np.float64)
    dim = param_count(spec)
    for posterior in posteriors:
        if posterior.dim != dim:
            raise ValueError(
                f"posterior dimension {posterior.dim} != parameter count {dim}"
            )
    if noise.ndim != 2 or noise.shape[0] < 1 or noise.shape[1] != dim:
        raise ValueError(f"noise must have shape (S >= 1, {dim}), got {noise.shape}")
    samples = noise.shape[0]
    per_chunk = max(1, MC_CHUNK_PARAMS // (samples * dim))
    probs = np.empty((len(posteriors), np.asarray(inputs).shape[0], spec.n_classes))
    # one reused buffer: fresh multi-MiB blocks per chunk cost page faults
    buffer = np.empty((min(per_chunk, len(posteriors)), samples, dim))
    for lo in range(0, len(posteriors), per_chunk):
        chunk = posteriors[lo : lo + per_chunk]
        thetas = buffer[: len(chunk)]
        for block, p in zip(thetas, chunk):
            np.multiply(p.std, noise, out=block)
            block += p.mean
        # summing over the draw axis adds the draws in order, like a loop
        draws = np.exp(_log_softmax(forward(spec, thetas, inputs)))
        probs[lo : lo + per_chunk] = draws.sum(axis=1) / samples
    return probs
