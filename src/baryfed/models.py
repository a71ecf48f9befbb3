"""Small fully connected classifiers on flat parameter vectors.

Networks are described by layer sizes only: ReLU between hidden layers,
softmax read off the final logits. Parameters live in a single flat float64
vector so the posterior machinery never needs to know the architecture;
pack/unpack convert between the flat vector and per-layer (W, b) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DiagGaussian

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
    """Flat vector to per-layer (W, b); views where possible, no copies."""
    theta = np.asarray(theta, dtype=np.float64)
    expected = param_count(spec)
    if theta.shape != (expected,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected ({expected},)"
        )
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = theta[offset : offset + fan_out]
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


def forward(spec: MlpSpec, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs; deterministic in (theta, inputs)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.layer_sizes[0]:
        raise ValueError(
            f"inputs must have shape (n, {spec.layer_sizes[0]}), got {inputs.shape}"
        )
    layers = unpack(theta, spec)
    act = inputs
    for i, (w, b) in enumerate(layers):
        act = act @ w + b
        if i < len(layers) - 1:
            act = np.maximum(act, 0.0)
    return act


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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
    posterior: DiagGaussian,
    inputs: np.ndarray,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Posterior-averaged class probabilities over seeded parameter draws."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if posterior.dim != param_count(spec):
        raise ValueError(
            f"posterior dimension {posterior.dim} != parameter count {param_count(spec)}"
        )
    rng = np.random.default_rng(seed)
    sigma = posterior.std
    probs = np.zeros((np.asarray(inputs).shape[0], spec.n_classes))
    for _ in range(samples):
        theta = posterior.mean + sigma * rng.standard_normal(posterior.dim)
        probs += np.exp(_log_softmax(forward(spec, theta, inputs)))
    return probs / samples
