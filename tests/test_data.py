"""Dataset tests: IDX fixtures with distinct error cases, synthetic blobs."""

import gzip
import math
import struct

import numpy as np
import pytest

from prunemip.data import (
    IdxFormatError,
    gen_synthetic,
    load_idx_images,
    load_idx_labels,
    load_mnist,
)


def _images_bytes(count=2, rows=28, cols=28, magic=0x00000803, pixel_fn=None):
    header = struct.pack(">IIII", magic, count, rows, cols)
    body = bytes((pixel_fn(i) if pixel_fn else i) % 256 for i in range(count * rows * cols))
    return header + body


def _labels_bytes(labels, magic=0x00000801):
    return struct.pack(">II", magic, len(labels)) + bytes(labels)


def test_idx_fixture_round_trip(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_images_bytes())
    images = load_idx_images(path)
    assert images.shape == (2, 784)
    # parsed pixels match fixture bytes / 255
    assert images[0][10] == pytest.approx((10 % 256) / 255.0)
    assert images[1][5] == pytest.approx(((784 + 5) % 256) / 255.0)
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_idx_gzip_accepted(tmp_path):
    path = tmp_path / "imgs.gz"
    path.write_bytes(gzip.compress(_images_bytes()))
    assert load_idx_images(path).shape == (2, 784)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_images_bytes(magic=0x12345678))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx_images(path)


def test_idx_bad_dimensions(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_images_bytes(rows=14, cols=14))
    with pytest.raises(IdxFormatError, match="dimensions"):
        load_idx_images(path)


def test_idx_truncated(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_images_bytes()[:-100])
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx_images(path)


def test_idx_trailing_bytes(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_images_bytes() + b"\x00")
    with pytest.raises(IdxFormatError, match="trailing"):
        load_idx_images(path)


def test_labels_fixture_and_errors(tmp_path):
    good = tmp_path / "lbls"
    good.write_bytes(_labels_bytes([3, 9]))
    assert load_idx_labels(good).tolist() == [3, 9]
    bad = tmp_path / "bad"
    bad.write_bytes(_labels_bytes([3, 9], magic=0x00000803))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx_labels(bad)


def test_mnist_count_mismatch(tmp_path):
    (tmp_path / "train-images-idx3-ubyte").write_bytes(_images_bytes(count=2))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(_labels_bytes([1, 2, 3]))
    with pytest.raises(IdxFormatError, match="count"):
        load_mnist(tmp_path, split="train")


def test_mnist_loads_fixture_directory(tmp_path):
    (tmp_path / "train-images-idx3-ubyte").write_bytes(_images_bytes(count=3))
    (tmp_path / "train-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(_labels_bytes([0, 5, 9])))
    data = load_mnist(tmp_path, split="train")
    assert len(data) == 3
    assert data.num_classes == 10
    assert data.labels.tolist() == [0, 5, 9]


def test_mnist_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mnist(tmp_path, split="test")


def test_synthetic_deterministic():
    a = gen_synthetic(6, 3, 120, 4.0, seed=7)
    b = gen_synthetic(6, 3, 120, 4.0, seed=7)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = gen_synthetic(6, 3, 120, 4.0, seed=8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_synthetic_large_margin_linearly_separable():
    """A linear classifier (one least-squares pass) reaches 100%."""
    data = gen_synthetic(4, 3, 300, 50.0, seed=0)
    X = np.hstack([data.inputs, np.ones((len(data), 1))])
    Y = np.eye(3)[data.labels]
    W, *_ = np.linalg.lstsq(X, Y, rcond=None)
    pred = (X @ W).argmax(axis=1)
    assert np.mean(pred == data.labels) == 1.0


def test_synthetic_zero_margin_near_chance():
    data = gen_synthetic(4, 2, 2000, 0.0, seed=0)
    # any classifier is near chance; the labels carry no signal, so even the
    # best linear fit stays within binomial bounds of 0.5
    X = np.hstack([data.inputs, np.ones((len(data), 1))])
    Y = np.eye(2)[data.labels]
    W, *_ = np.linalg.lstsq(X, Y, rcond=None)
    pred = (X @ W).argmax(axis=1)
    assert abs(np.mean(pred == data.labels) - 0.5) < 0.05


def test_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(0, 3, 10, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 1, 10, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 3, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 3, 10, -1.0, seed=0)
    for margin in (math.nan, math.inf):
        with pytest.raises(ValueError):
            gen_synthetic(3, 3, 10, margin, seed=0)


def test_dataset_subset(separable_data):
    sub = separable_data.subset(np.arange(10))
    assert len(sub) == 10
    assert sub.num_classes == 3
