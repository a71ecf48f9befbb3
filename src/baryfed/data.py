"""Datasets and label-skewed client partitioning.

Two sources: IDX image/label file pairs (big-endian, standard magic numbers)
and synthetic Gaussian blobs. Partitioning draws per-class client proportions
from a symmetric Dirichlet, assigns examples by label only, and can reuse the
same draw for a paired test split so each client's test shard mirrors its
training skew.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, PartitionCfg

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MAX_PARTITION_ATTEMPTS = 100


class IdxFormatError(ValueError):
    """Raised with a stable code: idx-bad-magic, idx-truncated, idx-count-mismatch."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1], integer labels, and the class count."""

    inputs: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("labels must be 1-d and match inputs")
        if inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one example")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if np.any(labels < 0) or np.any(labels >= self.classes):
            raise ValueError("labels must lie in [0, classes)")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            inputs=self.inputs[indices], labels=self.labels[indices], classes=self.classes
        )


def _read_idx_header(raw: bytes, path: str, expected_magic: int, n_dims: int):
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise IdxFormatError("idx-truncated", f"{path} shorter than its header")
    fields = struct.unpack(f">{1 + n_dims}I", raw[:header_len])
    if fields[0] != expected_magic:
        raise IdxFormatError(
            "idx-bad-magic",
            f"{path} has magic 0x{fields[0]:08x}, expected 0x{expected_magic:08x}",
        )
    return fields[1:], raw[header_len:]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label pair; pixels are scaled from [0,255] to [0,1]."""
    with open(images_path, "rb") as fh:
        raw_images = fh.read()
    with open(labels_path, "rb") as fh:
        raw_labels = fh.read()

    (n_img, rows, cols), body = _read_idx_header(
        raw_images, images_path, IDX_IMAGES_MAGIC, 3
    )
    if len(body) < n_img * rows * cols:
        raise IdxFormatError(
            "idx-truncated",
            f"{images_path} declares {n_img} images of {rows}x{cols} "
            f"but holds {len(body)} payload bytes",
        )
    images = np.frombuffer(body[: n_img * rows * cols], dtype=np.uint8)
    images = images.reshape(n_img, rows * cols).astype(np.float64) / 255.0

    (n_lab,), lab_body = _read_idx_header(raw_labels, labels_path, IDX_LABELS_MAGIC, 1)
    if len(lab_body) < n_lab:
        raise IdxFormatError(
            "idx-truncated",
            f"{labels_path} declares {n_lab} labels but holds {len(lab_body)} bytes",
        )
    if n_img != n_lab:
        raise IdxFormatError(
            "idx-count-mismatch", f"{n_img} images vs {n_lab} labels"
        )
    labels = np.frombuffer(lab_body[:n_lab], dtype=np.uint8).astype(np.int64)
    classes = int(labels.max()) + 1 if n_lab else 0
    return Dataset(inputs=images, labels=labels, classes=max(classes, 2))


def synth_blobs(n_per_class: int, classes: int, dim: int, spread: float, seed: int) -> Dataset:
    """Balanced Gaussian clusters at seeded random centers, scaled to [0, 1].

    ``spread`` is the cluster standard deviation relative to the unit cube the
    centers are drawn from; smaller values give more separable classes. A
    spread so large that the features overflow is a ConfigError on
    ``dataset.spread``.
    """
    if n_per_class < 1 or classes < 2 or dim < 1:
        raise ValueError("n_per_class >= 1, classes >= 2, dim >= 1 required")
    if spread <= 0:
        raise ValueError("spread must be > 0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(classes, dim))
    with np.errstate(all="ignore"):  # an overflow is the ConfigError below
        inputs = np.repeat(centers, n_per_class, axis=0) + spread * rng.standard_normal(
            (classes * n_per_class, dim)
        )
        lo = inputs.min(axis=0)
        span = inputs.max(axis=0) - lo
        span[span == 0.0] = 1.0
        inputs = (inputs - lo) / span
    if not np.isfinite(inputs).all():
        raise ConfigError("dataset.spread", f"{spread} overflows the features")
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    return Dataset(inputs=inputs, labels=labels, classes=classes)


@dataclass(frozen=True)
class PartitionDraw:
    """Per-class client proportions; reusable across paired dataset splits."""

    proportions: np.ndarray  # (classes, n_clients)
    attempts: int = 1


def _split_by_proportions(
    ds: Dataset, proportions: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    shards: list[list[np.ndarray]] = [[] for _ in range(proportions.shape[1])]
    for c in range(ds.classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        cuts = np.floor(np.cumsum(proportions[c]) * len(idx)).astype(np.int64)
        cuts[-1] = len(idx)
        start = 0
        for k, stop in enumerate(cuts):
            shards[k].append(idx[start:stop])
            start = stop
    return [np.sort(np.concatenate(parts)) for parts in shards]


def partition_indices(
    ds: Dataset, pcfg: PartitionCfg, seed: int
) -> tuple[list[np.ndarray], PartitionDraw]:
    """Label-skewed shard indices plus the accepted Dirichlet draw.

    Each draw gives every class a Dirichlet(beta) split over the n_clients.
    Draws are resampled until every shard holds at least min_shard examples,
    up to MAX_PARTITION_ATTEMPTS; features never influence the assignment.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(1, MAX_PARTITION_ATTEMPTS + 1):
        proportions = rng.dirichlet(np.full(pcfg.n_clients, pcfg.beta), size=ds.classes)
        shards = _split_by_proportions(ds, proportions, rng)
        if min(len(s) for s in shards) >= pcfg.min_shard:
            return shards, PartitionDraw(proportions=proportions, attempts=attempt)
    raise ValueError(
        f"no draw met min_shard={pcfg.min_shard} in {MAX_PARTITION_ATTEMPTS} attempts; "
        "increase beta, reduce n_clients, or lower min_shard"
    )


def partition_with_draw(
    ds: Dataset, draw: PartitionDraw, seed: int
) -> list[np.ndarray]:
    """Apply an existing draw to another dataset (paired test split)."""
    rng = np.random.default_rng(seed)
    if draw.proportions.shape[0] != ds.classes:
        raise ValueError("draw covers a different number of classes")
    return _split_by_proportions(ds, draw.proportions, rng)


def train_test_split(
    ds: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Stratified split: the same fraction of every class goes to test, at
    least one example of each. A split that leaves no training example is
    a ConfigError on ``dataset.test_fraction``."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    test_parts = []
    for c in range(ds.classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        n_test = max(1, int(round(test_fraction * len(idx))))
        test_parts.append(idx[:n_test])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(ds.n, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    if train_idx.size == 0:
        detail = f"holding out {test_fraction} of each class, at least 1, leaves no training row"
        raise ConfigError("dataset.test_fraction", detail)
    return ds.subset(train_idx), ds.subset(test_idx)
