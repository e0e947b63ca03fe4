"""Dataset ingestion: IDX-format MNIST files and synthetic Gaussian blobs."""

import gzip
import math
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
    """n bytes of f, read at most 1 MiB at a time, so that a header
    claiming more than the file holds fails as truncated before n bytes
    are allocated."""
    data = bytearray()
    while len(data) < n and (chunk := f.read(min(n - len(data), 1 << 20))):
        data += chunk
    if len(data) != n:
        raise IdxFormatError(f"truncated file while reading {what}")
    return data


def _read_idx(path, magic, kind, payload, dims=()):
    """The item count and payload bytes of an IDX file whose header is the
    magic, the count and each item's dimensions `dims`, and whose payload
    fills the rest of the file exactly."""
    with _open_maybe_gzip(path) as f:
        header = _read_exact(f, 8 + 4 * len(dims), f"{kind} header")
        found, count, *shape = struct.unpack(f">{2 + len(dims)}I", header)
        if found != magic:
            raise IdxFormatError(f"bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
        if tuple(shape) != dims:
            raise IdxFormatError(f"unexpected {kind} dimensions {'x'.join(map(str, shape))}, "
                                 f"expected {'x'.join(map(str, dims))}")
        raw = _read_exact(f, count * math.prod(dims), payload)
        if f.read(1):
            raise IdxFormatError(f"trailing bytes after {payload}")
    return count, np.frombuffer(raw, dtype=np.uint8)


def load_idx_images(path):
    count, pixels = _read_idx(path, IMAGES_MAGIC, "image", "image pixels", dims=(28, 28))
    return pixels.reshape(count, 28 * 28).astype(float) / 255.0


def load_idx_labels(path):
    _, labels = _read_idx(path, LABELS_MAGIC, "label", "labels")
    return labels.astype(np.int64)


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
