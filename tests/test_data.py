import struct

import numpy as np
import pytest

from baryfed.data import (
    Dataset,
    IdxFormatError,
    PartitionConfig,
    draw_proportions,
    load_idx,
    partition_indices,
    partition_with_draw,
    synth_blobs,
    train_test_split,
)


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    n, r, c = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, r, c))
        fh.write(images.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())
    return str(img_path), str(lab_path)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros(4), labels=np.zeros(4, dtype=np.int64), classes=2)
        with pytest.raises(ValueError):
            Dataset(
                inputs=np.zeros((4, 2)), labels=np.array([0, 1, 2, 1]), classes=2
            )
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), classes=2)

    def test_subset_and_counts(self):
        ds = synth_blobs(classes=3, dim=2, n_per_class=10, spread=0.1, seed=0)
        sub = ds.subset(np.array([0, 5, 6]))
        assert sub.n == 3
        assert np.array_equal(ds.label_counts(), [10, 10, 10])


class TestSynthBlobs:
    def test_shapes_balance_and_range(self):
        ds = synth_blobs(classes=4, dim=3, n_per_class=25, spread=0.2, seed=1)
        assert ds.n == 100
        assert ds.dim == 3
        assert np.array_equal(ds.label_counts(), [25, 25, 25, 25])
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_seed_determinism(self):
        a = synth_blobs(classes=3, dim=2, n_per_class=20, spread=0.1, seed=5)
        b = synth_blobs(classes=3, dim=2, n_per_class=20, spread=0.1, seed=5)
        c = synth_blobs(classes=3, dim=2, n_per_class=20, spread=0.1, seed=6)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(classes=1, dim=2, n_per_class=10, spread=0.1, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(classes=3, dim=0, n_per_class=10, spread=0.1, seed=0)


class TestIdxLoader:
    def test_round_trip_and_scaling(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        img, lab = write_idx_pair(tmp_path, images, [1, 0])
        ds = load_idx(img, lab)
        assert ds.n == 2 and ds.dim == 12
        assert np.array_equal(ds.labels, [1, 0])
        assert ds.inputs[0, 5] == pytest.approx(5.0 / 255.0)
        assert ds.inputs.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        raw = bytearray(open(img, "rb").read())
        raw[3] = 0x99
        open(img, "wb").write(bytes(raw))
        with pytest.raises(IdxFormatError) as err:
            load_idx(img, lab)
        assert err.value.code == "idx-bad-magic"

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        raw = open(img, "rb").read()
        open(img, "wb").write(raw[:-3])
        with pytest.raises(IdxFormatError) as err:
            load_idx(img, lab)
        assert err.value.code == "idx-truncated"

    def test_truncated_header(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        open(img, "wb").write(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError) as err:
            load_idx(img, lab)
        assert err.value.code == "idx-truncated"

    def test_count_mismatch(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        img, _ = write_idx_pair(a, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        _, lab = write_idx_pair(b, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 1])
        with pytest.raises(IdxFormatError) as err:
            load_idx(img, lab)
        assert err.value.code == "idx-count-mismatch"


class TestSplit:
    def test_stratified_exact(self):
        ds = synth_blobs(classes=3, dim=2, n_per_class=40, spread=0.1, seed=2)
        tr, te = train_test_split(ds, test_fraction=0.25, seed=2)
        assert np.array_equal(tr.label_counts(), [30, 30, 30])
        assert np.array_equal(te.label_counts(), [10, 10, 10])

    def test_disjoint_cover(self):
        ds = synth_blobs(classes=2, dim=2, n_per_class=20, spread=0.1, seed=3)
        tr, te = train_test_split(ds, test_fraction=0.3, seed=3)
        joined = np.vstack([tr.inputs, te.inputs])
        assert joined.shape[0] == ds.n
        assert len(np.unique(joined, axis=0)) == ds.n

    def test_seeded(self):
        ds = synth_blobs(classes=2, dim=2, n_per_class=20, spread=0.1, seed=3)
        a = train_test_split(ds, 0.25, seed=1)[0]
        b = train_test_split(ds, 0.25, seed=1)[0]
        assert np.array_equal(a.inputs, b.inputs)


class TestPartition:
    def test_min_shard_and_cover(self):
        ds = synth_blobs(classes=3, dim=2, n_per_class=100, spread=0.1, seed=4)
        cfg = PartitionConfig(n_clients=6, beta=0.5, seed=4, min_shard=10)
        shards, draw = partition_indices(ds, cfg)
        assert len(shards) == 6
        assert min(len(s) for s in shards) >= 10
        joined = np.sort(np.concatenate(shards))
        assert np.array_equal(joined, np.arange(ds.n))
        assert draw.proportions.shape == (3, 6)
        assert np.allclose(draw.proportions.sum(axis=1), 1.0)

    def test_deterministic(self):
        ds = synth_blobs(classes=3, dim=2, n_per_class=50, spread=0.1, seed=5)
        cfg = PartitionConfig(n_clients=4, beta=0.5, seed=9)
        a, _ = partition_indices(ds, cfg)
        b, _ = partition_indices(ds, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_assignment_ignores_features(self):
        base = synth_blobs(classes=3, dim=2, n_per_class=50, spread=0.1, seed=6)
        other = Dataset(
            inputs=np.random.default_rng(0).uniform(size=base.inputs.shape),
            labels=base.labels,
            classes=base.classes,
        )
        cfg = PartitionConfig(n_clients=4, beta=0.5, seed=6)
        a, _ = partition_indices(base, cfg)
        b, _ = partition_indices(other, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_paired_test_split_reuses_draw(self):
        ds = synth_blobs(classes=3, dim=2, n_per_class=100, spread=0.1, seed=7)
        tr, te = train_test_split(ds, 0.25, seed=7)
        cfg = PartitionConfig(n_clients=5, beta=1.0, seed=7)
        tr_shards, draw = partition_indices(tr, cfg)
        te_shards = partition_with_draw(te, draw, seed=8)
        assert len(te_shards) == 5
        # same Dirichlet draw: client shares of each class track between splits
        for k in range(5):
            tr_frac = len(tr_shards[k]) / tr.n
            te_frac = len(te_shards[k]) / te.n
            assert abs(tr_frac - te_frac) < 0.15

    def test_unsatisfiable_min_shard(self):
        ds = synth_blobs(classes=2, dim=2, n_per_class=10, spread=0.1, seed=8)
        cfg = PartitionConfig(n_clients=10, beta=0.1, seed=8, min_shard=10)
        with pytest.raises(ValueError, match="min_shard"):
            partition_indices(ds, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PartitionConfig(n_clients=0, beta=0.5, seed=0)
        with pytest.raises(ValueError):
            PartitionConfig(n_clients=4, beta=0.0, seed=0)
        with pytest.raises(ValueError):
            PartitionConfig(n_clients=4, beta=0.5, seed=0, min_shard=0)

    def test_draw_proportions_shape(self):
        cfg = PartitionConfig(n_clients=7, beta=0.3, seed=1)
        rng = np.random.default_rng(0)
        props = draw_proportions(4, cfg, rng)
        assert props.shape == (4, 7)
        assert np.allclose(props.sum(axis=1), 1.0)
