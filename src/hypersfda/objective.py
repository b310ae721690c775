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

SQRT2 = float(np.sqrt(2.0))


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


@dataclass(frozen=True)
class LossBreakdown:
    """Batch loss components; total = pull + push + eta * reg."""

    l_ada_pull: float
    l_ada_push: float
    l_reg: float
    total: float
    lambda_used: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.total):
            raise FloatingPointError("non-finite loss total")


def lambda_schedule(iteration: int, max_iter: int, beta: float) -> float:
    """lambda = (1 + 10*iteration/max_iter)^(-beta), decaying from 1."""
    if max_iter <= 0:
        raise ConfigError(f"max_iter must be positive, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ConfigError(f"iteration {iteration} outside [0, {max_iter}]")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    return float((1.0 + 10.0 * iteration / max_iter) ** (-beta))


def adaptive_loss_batch(
    p_live: np.ndarray,
    close_preds: np.ndarray,
    background_mask: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pull/push over a batch whose background sets live in-batch.

    p_live: (b, C) current predictions; close_preds: (b, h, C) retrieved
    constants; background_mask: (b, b) boolean, row i marking batch members
    of B_i. Background predictions are the detached rows of p_live.
    Returns (pull (b,), push (b,), grad (b, C)). AdaptConfig checks gamma > 0.
    """
    b, c = p_live.shape
    d_close = np.linalg.norm(close_preds - p_live[:, None, :], axis=2) / SQRT2
    w_close = 1.0 - np.clip(d_close, 0.0, 1.0) ** gamma
    pull = -np.einsum("bh,bhc,bc->b", w_close, close_preds, p_live)
    grad = -np.einsum("bh,bhc->bc", w_close, close_preds)

    d_back = np.linalg.norm(p_live[:, None, :] - p_live[None, :, :], axis=2) / SQRT2
    w_back = (1.0 - np.clip(d_back, 0.0, 1.0) ** gamma) * background_mask
    push = lam * np.einsum("bm,mc,bc->b", w_back, p_live, p_live)
    grad = grad + lam * np.einsum("bm,mc->bc", w_back, p_live)
    return pull, push, grad


def ema_update_batch(state: EmaState, indices: np.ndarray, p_batch: np.ndarray,
                     delta: float, iteration: int) -> np.ndarray:
    """q_i <- delta*q_i + (1-delta)*p_i over distinct indices; returns the new rows.

    Each row's update stamp `iteration` must exceed its previous one;
    AdaptConfig checks delta.
    """
    if (state.last_update_iter[indices] >= iteration).any():
        raise ConfigError("EMA stamp must strictly increase for every batch sample")
    state.q[indices] = delta * state.q[indices] + (1.0 - delta) * p_batch
    state.last_update_iter[indices] = iteration
    return state.q[indices]


def kl_regularizer_batch(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise KL(q || p) and its gradient -q/p, q constant, p floored; 0*log 0 = 0.

    q starts at 0 and need not be normalized, so early values may be negative.
    """
    p_safe = np.maximum(p, PROB_FLOOR)
    terms = np.where(q > 0, q * np.log(np.maximum(q, PROB_FLOOR) / p_safe), 0.0)
    return terms.sum(axis=1), -q / p_safe


def total_loss(pull_terms: np.ndarray, push_terms: np.ndarray,
               reg_terms: np.ndarray, eta: float, lambda_used: float) -> LossBreakdown:
    """Sum per-sample terms into a batch LossBreakdown with total included."""
    if eta < 0:
        raise ConfigError(f"eta must be >= 0, got {eta}")
    pull = float(np.sum(pull_terms))
    push = float(np.sum(push_terms))
    reg = float(np.sum(reg_terms))
    return LossBreakdown(
        l_ada_pull=pull,
        l_ada_push=push,
        l_reg=reg,
        total=pull + push + eta * reg,
        lambda_used=float(lambda_used),
    )
