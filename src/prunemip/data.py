"""Dataset ingestion: IDX-format MNIST files and synthetic Gaussian blobs."""

import gzip
import struct
from pathlib import Path

import numpy as np

from .nn import Dataset

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise IdxFormatError(f"truncated file while reading {what}")
    return data


def load_idx_images(path):
    with _open_maybe_gzip(path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IMAGES_MAGIC:
            raise IdxFormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
        if (rows, cols) != (28, 28):
            raise IdxFormatError(f"unexpected image dimensions {rows}x{cols}, expected 28x28")
        raw = _read_exact(f, count * rows * cols, "image pixels")
        if f.read(1):
            raise IdxFormatError("trailing bytes after image pixels")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(float) / 255.0


def load_idx_labels(path):
    with _open_maybe_gzip(path) as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != LABELS_MAGIC:
            raise IdxFormatError(f"bad label magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
        raw = _read_exact(f, count, "labels")
        if f.read(1):
            raise IdxFormatError("trailing bytes after labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


_SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find(directory, stem):
    for name in (stem, stem + ".gz"):
        p = Path(directory) / name
        if p.exists():
            return p
    raise FileNotFoundError(f"{stem}[.gz] not found in {directory}")


def load_mnist(directory, split="train"):
    """Standard MNIST IDX files from a directory (gzipped accepted)."""
    img_stem, lbl_stem = _SPLIT_FILES[split]
    images = load_idx_images(_find(directory, img_stem))
    labels = load_idx_labels(_find(directory, lbl_stem))
    if len(images) != len(labels):
        raise IdxFormatError(
            f"image count {len(images)} does not match label count {len(labels)}"
        )
    return Dataset(images, labels, 10)


def gen_synthetic(dims, classes, samples, margin, seed):
    """Deterministic Gaussian-blob classification set.

    Class centers sit at margin times seeded random unit directions; unit
    Gaussian noise is added around each center. Larger margins give more
    separable data, and margin also sets the absolute feature scale (the
    points are deliberately not renormalized: squashing them into [0, 1]
    would make every margin look alike to the training gradients).
    """
    if dims < 1 or classes < 2 or samples < classes:
        raise ValueError("need dims >= 1, classes >= 2, samples >= classes")
    if not (np.isfinite(margin) and margin >= 0):
        raise ValueError("margin must be finite and >= 0")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(classes, dims))
    if classes <= dims:
        # orthonormal center directions: pairwise center distance is
        # sqrt(2)*margin, so margin really controls separability
        dirs, _ = np.linalg.qr(dirs.T)
        dirs = dirs.T[:classes]
    else:
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = margin * dirs
    labels = np.arange(samples) % classes
    points = centers[labels] + rng.normal(size=(samples, dims))
    order = rng.permutation(samples)
    return Dataset(points[order], labels[order], classes)
