"""Dataset ingestion (IDX and CIFAR binary formats) and batch preparation.

Also ships a deterministic synthetic digit corpus writer: it renders jittered
glyph bitmaps into genuine IDX files, so the full ingestion path can be
exercised (and desk-scale training demonstrated) on machines that do not have
the real corpora on disk. Point the loaders at real MNIST/CIFAR files when
available; the formats are identical.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixels


class DatasetError(ValueError):
    """Malformed dataset file (bad magic, truncation, bad labels)."""


@dataclass(frozen=True)
class Stats:
    mean: np.ndarray  # per channel
    std: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Images as float32 (N, C, H, W); integer labels; optional norm stats."""

    images: np.ndarray
    labels: np.ndarray
    stats: Stats | None = None

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DatasetError(
                f"image/label count mismatch: {self.images.shape[0]} vs {self.labels.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.images.shape[0]

    def subset(self, count: int) -> "Dataset":
        return replace(self, images=self.images[:count], labels=self.labels[:count])

    def normalized(self, stats: Stats | None = None) -> "Dataset":
        """Zero-mean unit-variance per channel; pass train-split stats in for
        a val split so both share the same transform."""
        if stats is None:
            mean = self.images.mean(axis=(0, 2, 3))
            std = self.images.std(axis=(0, 2, 3))
            std = np.where(std < 1e-8, 1.0, std)
            stats = Stats(mean=mean, std=std)
        images = (self.images - stats.mean[None, :, None, None]) / stats.std[None, :, None, None]
        return replace(self, images=images.astype(np.float32), stats=stats)


def _file_bytes(path: Path) -> bytes:
    """A file's bytes, gunzipped if it starts with the gzip magic."""
    raw = path.read_bytes()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DatasetError(f"{path}: corrupt gzip data: {exc}") from exc


def _read_idx(path: Path, magic: int, n_dims: int, what: str) -> tuple[list[int], memoryview]:
    """An IDX file's dims and the bytes after its header, after checking its
    magic and that it holds the prod(dims) bytes the header names. The check
    runs on the bytes the file holds, so a header that names more cannot ask
    for a huge allocation."""
    buf = _file_bytes(path)
    head = 4 * (1 + n_dims)
    if len(buf) < head:
        raise DatasetError(f"{path}: truncated header: expected {head} bytes, got {len(buf)}")
    found, *dims = struct.unpack_from(f">{1 + n_dims}I", buf)
    if found != magic:
        raise DatasetError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    count, data = math.prod(dims), memoryview(buf)[head:]
    if len(data) < count:
        raise DatasetError(f"{path}: truncated {what}: expected {count} bytes, got {len(data)}")
    return dims, data


def load_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file (magic 0x00000803) -> uint8 (N, H, W)."""
    path = Path(path)
    (n, rows, cols), data = _read_idx(path, IDX_MAGIC_IMAGES, 3, "pixel data")
    if len(data) > n * rows * cols:
        raise DatasetError(f"{path}: trailing bytes after {n} images")
    return np.frombuffer(data, dtype=np.uint8).reshape(n, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """Big-endian IDX label file (magic 0x00000801) -> int64 (N,) in [0, 10)."""
    path = Path(path)
    (n,), data = _read_idx(path, IDX_MAGIC_LABELS, 1, "label data")
    labels = np.frombuffer(data[:n], dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() >= 10:
        raise DatasetError(f"{path}: label {labels.max()} out of range [0, 10)")
    return labels


def load_cifar_batch(path) -> tuple[np.ndarray, np.ndarray]:
    """CIFAR-10 binary batch: 3073-byte records -> (uint8 (N,3,32,32), labels)."""
    path = Path(path)
    raw = _file_bytes(path)
    if not raw or len(raw) % CIFAR_RECORD_BYTES:
        raise DatasetError(
            f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}-byte records"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = rec[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise DatasetError(f"{path}: label {labels.max()} out of range [0, 10)")
    images = rec[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "val": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_file(directory: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        p = directory / name
        if p.exists():
            return p
    raise DatasetError(f"{directory}: missing {stem}[.gz]")


def ingest(path, fmt: str = "IDX", split: str = "train") -> Dataset:
    """Load one split from a dataset directory; pixels scaled to [0, 1].

    fmt="IDX" expects the conventional MNIST-style file names; fmt="CIFAR"
    expects data_batch_*.bin (train) and test_batch.bin (val).
    """
    directory = Path(path)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a directory")
    if split not in ("train", "val"):
        raise DatasetError(f"unknown split {split!r}")
    if fmt.upper() == "IDX":
        img_name, lbl_name = _IDX_NAMES[split]
        img_path = _find_file(directory, img_name)
        images = load_idx_images(img_path)
        if not len(images):
            raise DatasetError(f"{img_path}: the {split} split holds no images")
        labels = load_idx_labels(_find_file(directory, lbl_name))
        images = images[:, None, :, :]  # single channel
    elif fmt.upper().startswith("CIFAR"):
        if split == "train":
            paths = sorted(directory.glob("data_batch_*.bin"))
            if not paths:
                raise DatasetError(f"{directory}: no data_batch_*.bin files")
        else:
            paths = [_find_file(directory, "test_batch.bin")]
        parts = [load_cifar_batch(p) for p in paths]
        images = np.concatenate([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    return Dataset(images=(images.astype(np.float32) / 255.0), labels=labels)


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_MAGIC_LABELS, labels.size))
        fh.write(labels.tobytes())


# ---------------------------------------------------------------------------
# synthetic digit corpus

_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11111 00010 00100 00010 00001 10001 01110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _glyph_bitmaps(scale: int = 3) -> np.ndarray:
    glyphs = []
    for spec in _GLYPHS:
        rows = [[int(c) for c in row] for row in spec.split()]
        g = np.array(rows, dtype=np.float32)
        glyphs.append(np.kron(g, np.ones((scale, scale), dtype=np.float32)))
    return np.stack(glyphs)  # (10, 21, 15)


def make_digit_corpus(count: int, seed: int = 0, *,
                      noise: float = 0.12) -> tuple[np.ndarray, np.ndarray]:
    """Render a balanced, jittered digit classification corpus.

    Each sample is a glyph placed at a random offset with random intensity,
    plus Gaussian pixel noise. Returns (uint8 images (count, 28, 28), uint8
    labels). Fully determined by the seed.
    """
    rng = np.random.default_rng(seed)
    glyphs = _glyph_bitmaps()
    gh, gw = glyphs.shape[1:]
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.zeros((count, 28, 28), dtype=np.float32)
    ys = rng.integers(0, 28 - gh + 1, size=count)
    xs = rng.integers(0, 28 - gw + 1, size=count)
    intensity = rng.uniform(0.6, 1.0, size=count)
    for i in range(count):
        images[i, ys[i]:ys[i] + gh, xs[i]:xs[i] + gw] = glyphs[labels[i]] * intensity[i]
    images += rng.normal(0.0, noise, size=images.shape)
    return (np.clip(images, 0.0, 1.0) * 255).astype(np.uint8), labels


def write_digit_corpus(directory, n_train: int = 10000, n_val: int = 2000,
                       seed: int = 0, noise: float = 0.12) -> None:
    """Write the synthetic corpus as MNIST-style IDX files into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tr_img, tr_lbl = make_digit_corpus(n_train, seed=seed, noise=noise)
    va_img, va_lbl = make_digit_corpus(n_val, seed=seed + 1, noise=noise)
    write_idx_images(directory / "train-images-idx3-ubyte", tr_img)
    write_idx_labels(directory / "train-labels-idx1-ubyte", tr_lbl)
    write_idx_images(directory / "t10k-images-idx3-ubyte", va_img)
    write_idx_labels(directory / "t10k-labels-idx1-ubyte", va_lbl)
