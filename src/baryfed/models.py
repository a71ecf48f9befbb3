"""Small fully connected classifiers on flat parameter vectors.

Networks are described by layer sizes only: ReLU between hidden layers,
softmax read off the final logits. Parameters live in a single flat float64
vector so the posterior machinery never needs to know the architecture;
pack/unpack convert between the flat vector and per-layer (W, b) pairs.
``forward`` also takes a stack (..., P) of vectors, which lets
``predict_proba_mc`` score every sampled parameter of a list of posteriors
in one pass instead of one call per posterior and draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DiagGaussian

# Sampled parameters one stacked forward pass may hold: 4 MiB of float64.
MC_CHUNK_PARAMS = 1 << 19


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
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("labels must be 1-d and match the batch size")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


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


def pack(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Inverse of unpack; round-trips bit-exactly."""
    chunks = []
    for w, b in layers:
        chunks.append(np.asarray(w, dtype=np.float64).ravel())
        chunks.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(chunks)


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


def loss_and_grad(
    spec: MlpSpec, theta: np.ndarray, batch: Batch
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact flat gradient."""
    layers = unpack(theta, spec)
    if np.any(batch.labels < 0) or np.any(batch.labels >= spec.n_classes):
        raise ValueError("labels out of range for the output layer")

    acts = [np.asarray(batch.inputs, dtype=np.float64)]
    pre = []
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    logits = acts[-1]
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite activation in forward pass")

    n = batch.size
    log_probs = _log_softmax(logits)
    loss = float(-log_probs[np.arange(n), batch.labels].mean())

    delta = np.exp(log_probs)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.T) * (pre[i - 1] > 0.0)
    return loss, pack(grads)


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
