import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from xbnn.data import (
    Dataset,
    DatasetError,
    ingest,
    load_cifar_batch,
    load_idx_images,
    load_idx_labels,
    make_digit_corpus,
    write_digit_corpus,
    write_idx_images,
    write_idx_labels,
)


class TestIdxFormat:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28)).astype(np.uint8)
        path = tmp_path / "imgs"
        write_idx_images(path, images)
        np.testing.assert_array_equal(load_idx_images(path), images)

    def test_label_roundtrip(self, tmp_path):
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        path = tmp_path / "lbls"
        write_idx_labels(path, labels)
        np.testing.assert_array_equal(load_idx_labels(path), labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DatasetError, match="bad magic"):
            load_idx_images(path)

    def test_truncated_names_byte_counts(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 10, 28, 28) + b"\x00" * 100)
        with pytest.raises(DatasetError, match="expected 7840 bytes, got 100"):
            load_idx_images(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 1, 2, 2) + b"\x00" * 5)
        with pytest.raises(DatasetError, match="trailing"):
            load_idx_images(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl"
        path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([3, 11]))
        with pytest.raises(DatasetError, match="out of range"):
            load_idx_labels(path)

    def test_gzip_files_load(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(6, 5, 4)).astype(np.uint8)
        labels = np.array([3, 1, 4, 1, 5, 9], dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        for name in ("imgs", "lbls"):
            (tmp_path / f"{name}.gz").write_bytes(gzip.compress((tmp_path / name).read_bytes()))
        np.testing.assert_array_equal(load_idx_images(tmp_path / "imgs.gz"), images)
        np.testing.assert_array_equal(load_idx_labels(tmp_path / "lbls.gz"), labels)

    @pytest.mark.parametrize("at, bad", [(-9, b""), (-8, b"\x00" * 8), (10, b"\xff" * 8)],
                             ids=["truncated", "crc", "deflate"])
    def test_corrupt_gzip_rejected(self, tmp_path, at, bad):
        # the stream cut short, the trailer's CRC and size zeroed, or the
        # deflate data overwritten from its first byte
        write_idx_images(tmp_path / "imgs", np.arange(100, dtype=np.uint8).reshape(4, 5, 5))
        raw = gzip.compress((tmp_path / "imgs").read_bytes())
        path = tmp_path / "imgs.gz"
        path.write_bytes(raw[:at] + bad + raw[at + len(bad):] if bad else raw[:at])
        with pytest.raises(DatasetError, match="corrupt gzip data"):
            load_idx_images(path)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("loader, header, claim", [
        (load_idx_images, struct.pack(">IIII", 0x00000803, 100000, 1000, 1000), 10**11),
        (load_idx_labels, struct.pack(">II", 0x00000801, 2**32 - 1), 2**32 - 1),
    ], ids=["images", "labels"])
    def test_header_bigger_than_file_rejected_before_allocating(self, tmp_path, loader,
                                                                header, claim, gz):
        # the header, then 64 bytes where it names far more
        raw = header + b"\x00" * 64
        path = tmp_path / "idx"
        path.write_bytes(gzip.compress(raw) if gz else raw)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetError, match=f"expected {claim} bytes, got 64"):
                loader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCifarFormat:
    def test_record_layout(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(4, 3072)).astype(np.uint8)
        labels = np.array([0, 9, 3, 7], dtype=np.uint8)
        records = np.concatenate([labels[:, None], pixels], axis=1)
        path = tmp_path / "batch.bin"
        path.write_bytes(records.tobytes())
        images, got_labels = load_cifar_batch(path)
        assert images.shape == (4, 3, 32, 32)
        np.testing.assert_array_equal(got_labels, labels)
        np.testing.assert_array_equal(images[2].reshape(-1), pixels[2])

    def test_bad_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(DatasetError, match="3073"):
            load_cifar_batch(path)

    def test_label_out_of_range(self, tmp_path):
        rec = bytes([12]) + b"\x00" * 3072
        path = tmp_path / "lbl.bin"
        path.write_bytes(rec)
        with pytest.raises(DatasetError, match="out of range"):
            load_cifar_batch(path)

    def test_ingest_cifar_dir(self, tmp_path):
        rng = np.random.default_rng(2)
        for name, n in (("data_batch_1.bin", 6), ("test_batch.bin", 3)):
            pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
            labels = rng.integers(0, 10, size=(n, 1)).astype(np.uint8)
            (tmp_path / name).write_bytes(
                np.concatenate([labels, pixels], axis=1).tobytes()
            )
        train = ingest(tmp_path, "CIFAR", "train")
        val = ingest(tmp_path, "CIFAR", "val")
        assert train.images.shape == (6, 3, 32, 32)
        assert val.images.shape == (3, 3, 32, 32)
        assert train.images.max() <= 1.0


class TestDataset:
    def test_count_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset(images=np.zeros((3, 1, 2, 2), dtype=np.float32),
                    labels=np.zeros(4, dtype=np.int64))

    def test_normalized_zero_mean_unit_variance(self, tmp_path):
        write_digit_corpus(tmp_path, n_train=300, n_val=50, seed=3)
        ds = ingest(tmp_path, "IDX", "train").normalized()
        mean = ds.images.mean(axis=(0, 2, 3))
        std = ds.images.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-5)
        np.testing.assert_allclose(std, 1.0, atol=1e-4)

    def test_val_uses_train_stats(self, tmp_path):
        write_digit_corpus(tmp_path, n_train=300, n_val=50, seed=4)
        train = ingest(tmp_path, "IDX", "train").normalized()
        val = ingest(tmp_path, "IDX", "val").normalized(train.stats)
        assert val.stats is train.stats

    @pytest.mark.parametrize("split, stem", [("train", "train-images-idx3-ubyte"),
                                             ("val", "t10k-images-idx3-ubyte")])
    def test_empty_split_rejected(self, tmp_path, split, stem):
        write_digit_corpus(tmp_path, n_train=0, n_val=0, seed=6)
        with pytest.raises(DatasetError, match=f"{stem}: the {split} split holds no images"):
            ingest(tmp_path, "IDX", split)

    def test_subset(self, tmp_path):
        write_digit_corpus(tmp_path, n_train=100, n_val=20, seed=5)
        ds = ingest(tmp_path, "IDX", "train").subset(17)
        assert ds.n == 17


class TestSyntheticCorpus:
    def test_deterministic(self):
        a_img, a_lbl = make_digit_corpus(50, seed=7)
        b_img, b_lbl = make_digit_corpus(50, seed=7)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lbl, b_lbl)

    def test_different_seeds_differ(self):
        a_img, _ = make_digit_corpus(50, seed=7)
        b_img, _ = make_digit_corpus(50, seed=8)
        assert not np.array_equal(a_img, b_img)

    def test_shapes_and_ranges(self):
        images, labels = make_digit_corpus(200, seed=9)
        assert images.shape == (200, 28, 28)
        assert images.dtype == np.uint8
        assert labels.min() >= 0 and labels.max() <= 9

    def test_ingest_dir_layout(self, tmp_path):
        write_digit_corpus(tmp_path, n_train=40, n_val=10, seed=10)
        train = ingest(tmp_path, "IDX", "train")
        val = ingest(tmp_path, "IDX", "val")
        assert train.images.shape == (40, 1, 28, 28)
        assert val.n == 10

    def test_missing_files_named(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            ingest(tmp_path, "IDX", "train")
