"""Checks computed apart from prunemip.

Networks are read straight from their JSON files, the forward pass is plain
numpy, and robustness is decided by HiGHS (scipy.optimize.milp) on a big-M
encoding of max y_h - y_k built here from this module's own interval bounds.
The encoding differs from prunemip's (one post-activation column and one
indicator per neuron instead of a positive/negative split), so an encoder
bug in the program cannot repeat itself here.
"""

import hashlib
import json

import numpy as np


def read_layers(path):
    with open(path) as f:
        doc = json.load(f)
    return [(np.array(e["weights"], dtype=float).reshape(e["rows"], e["cols"]),
             np.array(e["bias"], dtype=float)) for e in doc["layers"]]


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def logits(layers, X):
    """Logits of one input (d,) or a batch (N, d)."""
    A = np.asarray(X, dtype=float)
    for W, b in layers[:-1]:
        A = np.maximum(A @ W.T + b, 0.0)
    W, b = layers[-1]
    return A @ W.T + b


def runner_up(z, k):
    """Highest logit other than k; ties go to the smallest index."""
    return max((j for j in range(len(z)) if j != k), key=lambda j: (z[j], -j))


def input_box(x, delta, clamp):
    lo, hi = x - delta, x + delta
    if clamp:
        lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    return lo, hi


def margin(layers, x, k, h):
    z = logits(layers, x)
    return float(z[h] - z[k])


def highs_upper_bound(layers, lo, hi, k, h):
    """HiGHS's proven upper bound on max y_h - y_k over the box [lo, hi].

    Per hidden neuron with interval [L, H] (L clipped to <= 0, H to >= 0):
    a >= W.prev + b, a <= W.prev + b - L(1 - z), 0 <= a <= H z, z binary;
    stable neurons get z fixed, which reduces the rows to a = pre or a = 0.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    hidden = layers[:-1]
    n_in = lo.size
    ncol = n_in + 2 * sum(W.shape[0] for W, _ in hidden)
    col_lo, col_hi, integral = np.zeros(ncol), np.zeros(ncol), np.zeros(ncol)
    col_lo[:n_in], col_hi[:n_in] = lo, hi
    rows, row_lo, row_hi = [], [], []
    prev, plo, phi, off = slice(0, n_in), lo, hi, n_in
    for W, b in hidden:
        m = W.shape[0]
        Wp, Wm = np.maximum(W, 0.0), np.minimum(W, 0.0)
        pre_lo, pre_hi = Wp @ plo + Wm @ phi + b, Wp @ phi + Wm @ plo + b
        L, H = np.minimum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
        a, z = slice(off, off + m), slice(off + m, off + 2 * m)
        off += 2 * m
        col_hi[a] = H
        col_lo[z] = (pre_lo >= 0.0).astype(float)
        col_hi[z] = ((pre_hi > 0.0) | (pre_lo >= 0.0)).astype(float)
        integral[z] = 1.0
        for w_prev, w_z, r_lo, r_hi in ((-W, None, b, np.full(m, np.inf)),
                                        (-W, -L, np.full(m, -np.inf), b - L),
                                        (None, -H, np.full(m, -np.inf), np.zeros(m))):
            A = np.zeros((m, ncol))
            A[:, a] = np.eye(m)
            if w_prev is not None:
                A[:, prev] = w_prev
            if w_z is not None:
                A[:, z] = np.diag(w_z)
            rows.append(A)
            row_lo.append(r_lo)
            row_hi.append(r_hi)
        prev, plo, phi = a, np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
    W, b = layers[-1]
    c = np.zeros(ncol)
    c[prev] = -(W[h] - W[k])  # milp minimizes
    res = milp(c, integrality=integral, bounds=Bounds(col_lo, col_hi),
               constraints=LinearConstraint(np.vstack(rows), np.concatenate(row_lo),
                                            np.concatenate(row_hi)),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the instance: {res.message}")
    return float(-res.mip_dual_bound + b[h] - b[k])


def parse_arch(text):
    """Hidden widths of an arch string such as "1x9-1x13"."""
    widths = []
    for term in text.split("-"):
        count, width = term.split("x")
        widths += [int(width)] * int(count)
    return widths
