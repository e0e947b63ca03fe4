"""Feed-forward ReLU networks: forward pass, backprop, plain SGD training.

All hidden layers use ReLU; the final layer is affine (logits). Training is
deterministic for a fixed seed: single-threaded numpy, full shuffle each
epoch from one seeded generator.
"""

import json
from dataclasses import dataclass

import numpy as np

from .archs import format_arch
from .spr import spr_penalty, spr_step

MODEL_FORMAT_VERSION = 1


def _check_finite(layers):
    for i, (W, b) in enumerate(layers):
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i}: non-finite parameters")


@dataclass
class Mlp:
    """Layers as (W, b) pairs; W is (out, in), b is (out,)."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for i, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: inconsistent W/b shapes")
            if i > 0 and W.shape[1] != self.layers[i - 1][0].shape[0]:
                raise ValueError(f"layer {i}: input dim does not chain")
        _check_finite(self.layers)

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self):
        return self.layers[-1][0].shape[0]

    @property
    def hidden_widths(self):
        return [W.shape[0] for W, _ in self.layers[:-1]]

    @property
    def arch(self):
        return format_arch(self.hidden_widths)

    def copy(self):
        return Mlp([(W.copy(), b.copy()) for W, b in self.layers])


@dataclass
class Dataset:
    inputs: np.ndarray  # (N, d); image data scaled to [0, 1]
    labels: np.ndarray  # (N,) int class indices
    num_classes: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (N, d), labels (N,)")
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs/labels length mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self):
        return len(self.labels)

    def subset(self, idx):
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 0.1
    seed: int = 0
    regularizer: object = None  # optional SprConfig

    def __post_init__(self):
        if not self.learning_rate >= 0:  # NaN fails too
            raise ValueError("learning_rate must be >= 0")
        if not (self.batch_size >= 1 and self.epochs >= 0):
            raise ValueError("batch_size >= 1 and epochs >= 0 required")


def init_mlp(input_dim, hidden_widths, num_classes, seed):
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] init, seeded."""
    rng = np.random.default_rng(seed)
    sizes = [input_dim] + list(hidden_widths) + [num_classes]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((W, b))
    return Mlp(layers)


def forward(mlp, X):
    """Logits and per-layer pre-activations of one input (d,) or of a batch
    (N, d), shaped (m,) or (N, m) to match."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != mlp.input_dim:
        raise ValueError(f"input has shape {X.shape}, expected ({mlp.input_dim},) "
                         f"or (N, {mlp.input_dim})")
    preacts = []
    A = X
    last = len(mlp.layers) - 1
    for i, (W, b) in enumerate(mlp.layers):
        Z = A @ W.T + b
        preacts.append(Z)
        A = Z if i == last else np.maximum(Z, 0.0)
    return A, preacts


def _softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def cross_entropy_loss(mlp, X, y):
    return _mean_log_loss(forward(mlp, X)[0], y)


def regularized_loss(mlp, X, y, cfg):
    """Batch cross-entropy plus lam times the summed per-neuron SPR penalty.

    The group for hidden neuron j of layer l is row j of W_l concatenated
    with b_l[j]; output-layer neurons are excluded.
    """
    return cross_entropy_loss(mlp, X, y) + spr_penalty(mlp, cfg)


def _mean_log_loss(logits, y):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(y)), y].mean())


def grad_cross_entropy(mlp, X, y):
    """Mean gradient of softmax cross-entropy over the batch.

    Returns a list of (dW, db) matching mlp.layers.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(X) == 0:
        raise ValueError("empty batch")
    logits, preacts = forward(mlp, X)
    acts = [X] + [np.maximum(Z, 0.0) for Z in preacts[:-1]]
    delta = _softmax(logits)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grads = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        W, _ = mlp.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W) * (preacts[i - 1] > 0)
    return grads


def accuracy(mlp, data):
    """Fraction of correct argmax predictions; argmax ties go to the smallest index."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    logits, _ = forward(mlp, data.inputs)
    return float((logits.argmax(axis=1) == data.labels).mean())


def sgd_train(mlp, data, cfg):
    """Plain SGD on shuffled mini-batches; optional SPR regularizer.

    Returns (trained Mlp, history), history being one dict per epoch with
    the cross-entropy loss and the accuracy of the net on the whole training
    data at the end of that epoch, from one forward pass.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    reg = cfg.regularizer
    net = mlp.copy()
    rng = np.random.default_rng(cfg.seed)
    history = []
    n = len(data)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X, y = data.inputs[idx], data.labels[idx]
            grads = grad_cross_entropy(net, X, y)
            lr = cfg.learning_rate
            for (W, b), (dW, db) in zip(net.layers, grads):
                W -= lr * dW
                b -= lr * db
            if reg is not None and reg.lam > 0:
                spr_step(net, reg, lr)
        logits, _ = forward(net, data.inputs)
        entry = {"epoch": epoch, "loss": _mean_log_loss(logits, data.labels),
                 "accuracy": float((logits.argmax(axis=1) == data.labels).mean())}
        if reg is not None:
            entry["spr_penalty"] = spr_penalty(net, reg)
        history.append(entry)
    return net, history


def save_model(mlp, path, training_meta=None):
    """Write mlp to path; ValueError, before the file is opened, if a
    parameter is not finite (training diverged), since load_model would
    reject the file."""
    _check_finite(mlp.layers)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "arch": mlp.arch,
        "input_dim": mlp.input_dim,
        "num_classes": mlp.output_dim,
        "layers": [
            {
                "rows": int(W.shape[0]),
                "cols": int(W.shape[1]),
                "weights": W.ravel().tolist(),
                "bias": b.tolist(),
            }
            for W, b in mlp.layers
        ],
        "training_meta": training_meta or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path):
    """(Mlp, training_meta) from a save_model file; ValueError if a field is
    missing or malformed."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: not a model file of format_version {MODEL_FORMAT_VERSION}")
    try:
        layers = [(np.array(entry["weights"], dtype=float).reshape(entry["rows"], entry["cols"]),
                   np.array(entry["bias"], dtype=float)) for entry in doc["layers"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    return Mlp(layers), doc.get("training_meta", {})
