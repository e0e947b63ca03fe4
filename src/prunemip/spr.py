"""Structured perspective penalty applied per neuron during training.

The penalty acts on one neuron's incoming weight row concatenated with its
bias entry and is minimized by (sub)gradient descent alongside the usual
cross-entropy loss; driving it to zero drives the whole group to zero, which
is what makes the neuron removable afterwards.

spr_rows holds the one case analysis, over all groups of a layer at once;
spr_value and spr_grad are its one-group views, and the training step
spr_step and the summed penalty spr_penalty go through it. The module reads
a network only through its `layers` list of (W, b) pairs, so it imports
nothing from the package.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SprConfig:
    lam: float  # multiplier of the summed penalty
    alpha: float  # strictly inside (0, 1)
    m: float = 1.0  # scale constant, > 0

    def __post_init__(self):
        _check_params(self.alpha, self.m)
        if not 0 <= self.lam < math.inf:  # NaN fails too
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


def _check_params(alpha, m):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 < m < math.inf:
        raise ValueError(f"m must be finite and > 0, got {m}")


def _case_a_slope(alpha):
    """Case A's penalty is this slope times ||w||2."""
    return 2.0 * math.sqrt((1.0 - alpha) * alpha)


def spr_rows(G, alpha, m):
    """spr_value and spr_grad of every row of G at once, one group per row.

    Returns (values, grads, case_a, l2); the case-A mask and the row norms
    ||w||2 serve the training step. Each norm is a 1xn @ nx1 product, which
    rounds as np.linalg.norm of the row alone does (np.linalg.norm(G, axis=1)
    does not).
    """
    _check_params(alpha, m)
    G = np.asarray(G, dtype=float)
    rows = np.arange(len(G))
    imax = np.abs(G).argmax(axis=1)  # first coordinate attaining ||w||inf
    e = np.zeros_like(G)
    e[rows, imax] = np.copysign(1.0, G[rows, imax])
    l2 = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])
    linf = np.abs(G[rows, imax])
    r = math.sqrt(alpha / (1.0 - alpha)) * l2
    q = linf / m
    case_a = (q <= r) & (r <= 1.0)  # w = 0 lands here, with value 0 and gradient 0
    case_b = ~case_a & (r <= q) & (q <= 1.0)
    case_c = ~case_a & ~case_b
    values, grads = np.empty(len(G)), np.zeros_like(G)
    values[case_a] = _case_a_slope(alpha) * l2[case_a]
    nonzero = case_a & (l2 > 0.0)
    grads[nonzero] = (_case_a_slope(alpha) / l2[nonzero])[:, None] * G[nonzero]
    l2b, linfb, eb = l2[case_b], linf[case_b], e[case_b]
    values[case_b] = alpha * m * l2b * l2b / linfb + (1.0 - alpha) * q[case_b]
    grads[case_b] = ((2.0 * alpha * m / linfb)[:, None] * G[case_b]
                     - (alpha * m * l2b * l2b / (linfb * linfb))[:, None] * eb
                     + (1.0 - alpha) / m * eb)
    values[case_c] = alpha * l2[case_c] * l2[case_c] + (1.0 - alpha)
    grads[case_c] = 2.0 * alpha * G[case_c]
    return values, grads, case_a, l2


def spr_value(w, alpha, m):
    """Piecewise penalty of one weight group.

    With r = sqrt(alpha/(1-alpha)) * ||w||2 and q = ||w||inf / m:
      case A (q <= r <= 1):  2 sqrt((1-alpha) alpha) ||w||2
      case B (r <= q <= 1):  alpha m ||w||2^2 / ||w||inf + (1-alpha) ||w||inf / m
      case C (otherwise):    alpha ||w||2^2 + (1-alpha)
    w = 0 routes to case A with value 0.
    """
    return float(spr_rows(np.reshape(w, (1, -1)), alpha, m)[0][0])


def spr_grad(w, alpha, m):
    """(Sub)gradient of spr_value w.r.t. w, same shape as w.

    The ||w||inf factor uses the subgradient concentrated on the first
    coordinate attaining the max absolute value, carrying its sign.
    Returns 0 at w = 0.
    """
    w = np.asarray(w, dtype=float)
    return spr_rows(w.reshape(1, -1), alpha, m)[1].reshape(w.shape)


def spr_penalty(mlp, cfg):
    """lam times the penalty summed over the hidden neurons, added one at a
    time in neuron order: np.sum and, from Python 3.12, the builtin sum
    round differently."""
    total = 0.0
    for W, b in mlp.layers[:-1]:
        for v in spr_rows(np.column_stack([W, b]), cfg.alpha, cfg.m)[0].tolist():
            total += v
    return cfg.lam * total


def spr_step(net, cfg, lr):
    """One penalty step per hidden group after the cross-entropy step.

    In case A the penalty is a scaled group norm, so its exact step is a
    radial shrink that snaps the group to zero once the remaining norm is
    smaller than the step; a raw subgradient step would instead oscillate
    around zero at radius lr*lam and no group could ever be pruned. The
    smooth cases B and C take the ordinary gradient step. A zero group is in
    case A, so it stays zero. Each layer is updated in place, all its groups
    at once.
    """
    step = lr * cfg.lam
    shrink = step * _case_a_slope(cfg.alpha)
    for W, b in net.layers[:-1]:  # output layer is never regularized
        G = np.column_stack([W, b])
        _, grads, case_a, l2 = spr_rows(G, cfg.alpha, cfg.m)
        new = G - step * grads
        new[case_a] = 0.0
        keep = case_a & (l2 > shrink)
        new[keep] = G[keep] * (1.0 - shrink / l2[keep])[:, None]
        W[:] = new[:, :-1]
        b[:] = new[:, -1]
