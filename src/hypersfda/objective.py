"""Adaptive pull/push loss, its decay schedule, and the EMA-KL regularizer.

Per anchor sample i the loss pulls its prediction toward the close set A_i
and pushes it from the background set B_i, both weighted by 1 - d^gamma
where d is normalized prediction distance. A decaying factor lambda
balances the push term. A per-sample EMA of past predictions anchors a KL
regularizer. Retrieved predictions, the distance weights, and the EMA are
all treated as constants: gradients flow only through the anchor
prediction p_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .model import PROB_FLOOR

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).smallest_subnormal)


@dataclass
class EmaState:
    """Per-sample EMA of predictions q and the iteration of each row's last update.

    q starts at all zeros, so rows are not probability vectors early on;
    entries stay in [0, 1].
    """

    q: np.ndarray
    last_update_iter: np.ndarray

    @staticmethod
    def initial(n: int, class_count: int) -> "EmaState":
        return EmaState(
            q=np.zeros((n, class_count)),
            last_update_iter=np.full(n, -1, dtype=np.int64),
        )


def lambda_schedule(iteration: int, max_iter: int, beta: float) -> float:
    """lambda = (1 + 10*iteration/max_iter)^(-beta), decaying from 1."""
    if max_iter <= 0:
        raise ConfigError(f"max_iter must be positive, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ConfigError(f"iteration {iteration} outside [0, {max_iter}]")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    return float((1.0 + 10.0 * iteration / max_iter) ** (-beta))


def adaptive_loss_batch(p_live: np.ndarray, close_preds: np.ndarray, batch: np.ndarray,
                        batch_clusters: np.ndarray, gamma: float,
                        lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pull/push over a batch whose background sets live in-batch.

    p_live: (b, C) current predictions of the samples `batch` (b,);
    batch_clusters: (b, h) their close sets' sample indices, and
    close_preds: (b, h, C) the retrieved constants. B_i is the rest of the
    batch: neither anchor i nor a member of its close set. Background
    predictions are the detached rows of p_live. Returns (pull (b,),
    push (b,), grad (b, C)). AdaptConfig checks gamma > 0. Background
    distances come from the Gram matrix p_live @ p_live.T and its diagonal,
    so push and its gradient are two matmuls; a distance below that form's
    rounding error (about 1e-7 for |C| = 10) counts as 0.
    """
    diff = close_preds - p_live[:, None, :]
    # d / sqrt(2) clipped at 1, raised to gamma, as (d^2 / 2) clipped at 1 to gamma / 2
    half_sq = 0.5 * np.einsum("bhc,bhc->bh", diff, diff)
    w_close = 1.0 - np.minimum(half_sq, 1.0) ** (0.5 * gamma)
    grad = -np.einsum("bh,bhc->bc", w_close, close_preds)
    pull = np.einsum("bc,bc->b", grad, p_live)

    # d^2 / 2 = (|p_i|^2 + |p_j|^2) / 2 - p_i . p_j from the Gram matrix. Within
    # the form's rounding error of 0 it is set to 0, so twins weigh exactly 1
    # for every gamma
    gram = p_live @ p_live.T
    half_norms = 0.5 * gram.diagonal()
    scale = half_norms + half_norms[:, None]
    half_sq = scale - gram
    half_sq[half_sq <= 2 * (p_live.shape[1] + 1) * EPS * scale] = 0.0
    w_back = 1.0 - np.minimum(half_sq, 1.0) ** (0.5 * gamma)
    # B_i leaves out anchor i and the batch members in its close set
    w_back.flat[::batch.size + 1] = 0.0
    w_back[(batch_clusters[:, :, None] == batch).any(axis=1)] = 0.0
    push_grad = lam * (w_back @ p_live)
    return pull, np.einsum("bc,bc->b", push_grad, p_live), grad + push_grad


def ema_update_batch(state: EmaState, indices: np.ndarray, p_batch: np.ndarray,
                     delta: float, iteration: int) -> np.ndarray:
    """q_i <- delta*q_i + (1-delta)*p_i over distinct indices; returns the new rows.

    Each row's update stamp `iteration` must exceed its previous one;
    AdaptConfig checks delta.
    """
    if np.count_nonzero(state.last_update_iter[indices] >= iteration):
        raise ConfigError("EMA stamp must strictly increase for every batch sample")
    rows = delta * state.q.take(indices, 0) + (1.0 - delta) * p_batch
    state.q[indices] = rows
    state.last_update_iter[indices] = iteration
    return rows


def kl_regularizer_batch(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise KL(q || p) and its gradient -q/p, q constant, p floored; 0*log 0 = 0.

    The term and the gradient share q / p. As p <= 1, that ratio is at
    least q, so flooring it at the least positive float (TINY) changes no
    term with q > 0 and makes 0*log 0 = 0. q starts at 0 and need not be
    normalized, so early values may be negative.
    """
    ratio = q / np.maximum(p, PROB_FLOOR)
    terms = q * np.log(np.maximum(ratio, TINY))
    return terms.sum(axis=1), np.negative(ratio, out=ratio)
