"""Adaptation loop: periodic hypergraph refresh, pull/push steps, metrics.

The trainer runs seeded epochs over the unlabeled target set. Every t_in
iterations (including iteration 0) it rebuilds the hypergraph from a full
forward pass and replaces the memory bank and per-node close sets. Each
step retrieves close-set predictions from the bank, forms the background
set from the rest of the batch, applies the pull/push objective plus the
EMA-KL regularizer, and takes one momentum-SGD step. Bank rows for the
batch are rewritten from a fresh forward pass after the step. The whole
run is a pure function of (datasets, config); checkpoints capture enough
state to resume bit-exactly.
"""
from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .config import AdaptConfig, ConfigError, seeded_rng
from .datagen import EmbeddingDataset
from .hypergraph import NeighborCache, build_artifacts, cosine_knn, normalized_entropy
from .model import (
    CHECKPOINT_VERSION_TRAINER,
    AdaptModel,
    CheckpointError,
    GradientSet,
    TrainingAborted,
    Workspace,
    backward,
    checkpoint_writer,
    forward,
    read_array,
    read_exact,
    read_header,
    read_params,
    sgd_step,
    write_arrays,
)
from .objective import (
    EmaState,
    adaptive_loss_batch,
    ema_update_batch,
    kl_regularizer_batch,
    lambda_schedule,
)


@dataclass
class MemoryBank:
    """Cached adapter features and predictions, one row per target sample."""

    features: np.ndarray
    predictions: np.ndarray

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.predictions.shape[0]:
            raise ConfigError("bank features and predictions disagree on sample count")
        sums = self.predictions.sum(axis=1)
        if (np.abs(sums - 1.0) > 1e-9).any():  # an empty bank passes
            raise ConfigError("bank prediction rows must sum to 1")


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    """One evaluation or training-iteration snapshot.

    The losses are batch sums: total = l_ada_pull + l_ada_push + eta * l_reg.
    """

    iteration: int
    total: float | None = None
    l_ada_pull: float | None = None
    l_ada_push: float | None = None
    l_reg: float | None = None
    lambda_used: float | None = None
    acc: float | None = None
    neighbor_agreement: float | None = None
    misleading_ratio: tuple[float, ...] | None = None

    def stream_dict(self) -> dict:
        """The fixed key set of the line-JSON metrics stream."""
        return {
            "iter": self.iteration,
            "total": self.total,
            "l_ada_pull": self.l_ada_pull,
            "l_ada_push": self.l_ada_push,
            "l_reg": self.l_reg,
            "lambda": self.lambda_used,
            "acc": self.acc,
            "neighbor_agreement": self.neighbor_agreement,
        }


@dataclass
class TrainerState:
    """Everything needed to resume a run exactly where it stopped."""

    model: AdaptModel
    velocity: GradientSet
    ema: EmaState
    bank: MemoryBank
    clusters: np.ndarray
    known_mask: np.ndarray
    iteration: int  # next iteration to execute
    refreshed_at: int


def iterations_per_epoch(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Seeded shuffle of target indices; pure function of (seed, epoch)."""
    return seeded_rng(seed, 71, epoch).permutation(n)


def knn_safe_features(z: np.ndarray) -> np.ndarray:
    """Map zero-norm rows to an all-ones direction so cosine is defined.

    A sample whose adapter activations are all clipped to zero has no
    direction; such rows (rare) are grouped on a fixed constant vector.
    """
    zero = np.einsum("ij,ij->i", z, z) == 0  # the zero test of the row norm, underflow too
    return np.where(zero[:, None], 1.0, z) if np.count_nonzero(zero) else z


def refresh_hypergraph(
    model: AdaptModel, target: EmbeddingDataset, cfg: AdaptConfig
) -> tuple[MemoryBank, np.ndarray, np.ndarray]:
    """Full forward pass, then the bank, the (n, h) close sets and the known mask.

    With high_order disabled the hypergraph is skipped entirely and close
    sets fall back to plain cosine neighbors of the adapter features. The
    known mask is all-true, or in open-set mode False on the unknown set
    of open_set_split. Model outputs that overflow (a feature's squared
    norm, or a prediction), and a PCA whose coefficients are not finite,
    raise FloatingPointError.
    """
    z, p = forward(model, target.features)
    if not (np.isfinite(np.einsum("ij,ij->i", z, z)).all() and np.isfinite(p).all()):
        raise FloatingPointError("model outputs on the target overflow")
    z = knn_safe_features(z)
    if cfg.high_order:
        clusters = build_artifacts(
            z, p, k=cfg.k, alpha=cfg.alpha, h=cfg.h, m_prime=cfg.m_prime,
            seed=cfg.seed, use_self_loops=cfg.use_self_loops,
        )
    else:
        clusters = cosine_knn(z, cfg.h)
    known_mask = np.ones(target.n, dtype=bool)
    if cfg.open_set:
        known_mask[open_set_split(p)[1]] = False
    return MemoryBank(features=z, predictions=p), clusters, known_mask


def open_set_split(predictions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-means on per-sample normalized entropy; high cluster is unknown.

    Centroids start at the minimum and maximum entropy and Lloyd iterations
    run to convergence; ties assign to the lower centroid. If every entropy
    is identical the split degenerates to all-known.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    n = predictions.shape[0]
    if n < 2:
        raise ConfigError(f"open-set split needs at least 2 samples, got {n}")
    entropies = normalized_entropy(predictions)
    lo, hi = float(entropies.min()), float(entropies.max())
    if lo == hi:
        return np.arange(n, dtype=np.int64), np.empty(0, dtype=np.int64)
    c0, c1 = lo, hi
    assign = None
    for _ in range(100):
        new_assign = np.abs(entropies - c1) < np.abs(entropies - c0)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        c0 = float(entropies[~assign].mean())
        c1 = float(entropies[assign].mean())
    known = np.flatnonzero(~assign).astype(np.int64)
    unknown = np.flatnonzero(assign).astype(np.int64)
    return known, unknown


def evaluate(
    model: AdaptModel,
    dataset: EmbeddingDataset,
    bank: MemoryBank | None = None,
    h: int = 3,
    cache: NeighborCache | None = None,
) -> MetricsRecord:
    """Accuracy plus neighborhood diagnostics on a labeled dataset.

    neighbor_agreement: mean over samples of the fraction of their h
    nearest bank neighbors (cosine, self excluded) whose predicted label
    matches the sample's true label. misleading_ratio per class c: the
    fraction of class-c samples whose single nearest neighbor predicts a
    label other than c. Without a bank, fresh forward outputs stand in.
    A cache, passed on to the one cosine_knn call, lets a caller that
    evaluates a slowly changing bank search again only what changed; the
    result is the same. An unlabeled dataset, or one of fewer than 2
    samples (no sample would have a neighbor), raises ConfigError.
    """
    if dataset.labels is None:
        raise ConfigError("evaluation requires a labeled dataset")
    if dataset.n < 2:
        raise ConfigError(f"evaluation needs at least 2 samples, got {dataset.n}")
    z, p = forward(model, dataset.features)
    if bank is None:
        feats, preds = knn_safe_features(z), p
    else:
        feats, preds = knn_safe_features(bank.features), bank.predictions
    acc = float(np.mean(p.argmax(axis=1) == dataset.labels))

    neighbor_idx = cosine_knn(feats, min(h, dataset.n - 1), cache)
    neighbor_labels = preds.argmax(axis=1)[neighbor_idx]  # (n, h)
    agree = (neighbor_labels == dataset.labels[:, None]).mean(axis=1)
    neighbor_agreement = float(agree.mean())

    c = dataset.class_count
    misled = np.bincount(dataset.labels, weights=neighbor_labels[:, 0] != dataset.labels,
                         minlength=c)
    counts = np.bincount(dataset.labels, minlength=c)
    misleading = np.divide(misled, counts, out=np.zeros(c), where=counts > 0)
    return MetricsRecord(
        iteration=0,
        acc=acc,
        neighbor_agreement=neighbor_agreement,
        misleading_ratio=tuple(misleading.tolist()),
    )


def _background_mask(batch: np.ndarray, batch_clusters: np.ndarray) -> np.ndarray:
    """mask[i, m] marks batch member m as background for anchor i: not i, not in i's close set."""
    mask = np.logical_and.reduce(batch_clusters[:, :, None] != batch, axis=1)
    mask.flat[::batch.size + 1] = False
    return mask


def check_adapt_inputs(model: AdaptModel, target: EmbeddingDataset, cfg: AdaptConfig,
                       resume_from: TrainerState | None = None) -> None:
    """Raise ConfigError unless `adapt` can run these inputs, before any work or output.

    The model checked is the one that runs: resume_from's, when given.
    """
    n = target.n
    runs = model if resume_from is None else resume_from.model
    if runs.dim != target.dim:
        raise ConfigError(f"model expects dim {runs.dim} but target has dim {target.dim}")
    if n <= cfg.k - 1:
        raise ConfigError(f"target needs more than k-1={cfg.k - 1} samples, got {n}")
    if n <= cfg.h:
        raise ConfigError(f"target needs more than h={cfg.h} samples, got {n}")
    if cfg.high_order and cfg.m_prime is not None and n <= cfg.m_prime:
        raise ConfigError(f"target needs more than m_prime={cfg.m_prime} samples, got {n}")
    if resume_from is None:
        return
    if (held := resume_from.bank.features.shape[0]) != n:
        raise ConfigError(f"checkpoint holds {held} target samples but the target has {n}")
    if (h := resume_from.clusters.shape[1]) != cfg.h:
        raise ConfigError(f"checkpoint was adapted with h={h} but the config has h={cfg.h}")
    max_iter = cfg.epochs * iterations_per_epoch(n, cfg.batch_size)
    if resume_from.iteration > max_iter:
        raise ConfigError(f"checkpoint is at iteration {resume_from.iteration}, past "
                          f"the run's end at {max_iter} ({cfg.epochs} epochs)")


def adapt(
    model: AdaptModel,
    target: EmbeddingDataset,
    cfg: AdaptConfig,
    resume_from: TrainerState | None = None,
    iteration_callback: Callable[[TrainerState, MetricsRecord], None] | None = None,
) -> tuple[AdaptModel, list[MetricsRecord], TrainerState]:
    """Run the adaptation loop; returns (model, new metrics, final state).

    `resume_from` continues a copy of a previous state under the same
    config and target, leaving the caller's state as it was.
    `iteration_callback(state, record)` runs after every iteration, with
    the state whole at the next iteration. Its arrays change in place as
    the run goes on, and its velocity is one of two vectors the steps take
    turns writing; its model never changes. check_adapt_inputs refuses
    inputs the run cannot use. On a non-finite loss, gradient or post-step
    output, or a refresh that overflows, TrainingAborted raises carrying
    the last good state, the state before the failing iteration; this
    function writes no file. A first refresh that overflows raises
    ConfigError: the model given is at fault.
    """
    check_adapt_inputs(model, target, cfg, resume_from)
    n = target.n
    per_epoch = iterations_per_epoch(n, cfg.batch_size)
    max_iter = cfg.epochs * per_epoch

    ws = Workspace(model if resume_from is None else resume_from.model, cfg.batch_size)
    if resume_from is not None:
        state = copy.deepcopy(resume_from)
    else:
        try:
            bank, clusters, known_mask = refresh_hypergraph(model, target, cfg)
        except FloatingPointError as exc:  # the caller's model, not a diverged run
            raise ConfigError(str(exc)) from exc
        state = TrainerState(model, ws.velocities[0], EmaState.initial(n, model.class_count),
                             bank, clusters, known_mask, iteration=0, refreshed_at=0)

    metrics: list[MetricsRecord] = []
    labeled = target.labels is not None
    # this call's alone: its first search, after a start or a resume, is a full one
    neighbor_cache = NeighborCache()
    start = state.iteration

    for t in range(start, max_iter):
        # iteration 0's refresh happens at state construction; afterwards a
        # refresh is due whenever t hits the interval and was not already done
        if t % cfg.t_in == 0 and t != state.refreshed_at:
            try:
                state.bank, state.clusters, state.known_mask = refresh_hypergraph(
                    state.model, target, cfg)
            except FloatingPointError as exc:
                raise TrainingAborted(f"aborted at iteration {t}: {exc}", state) from exc
            state.refreshed_at = t

        epoch, pos = divmod(t, per_epoch)
        if t == start or pos == 0:
            perm = epoch_permutation(cfg.seed, epoch, n)
        batch = perm[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
        batch = batch[state.known_mask[batch]]

        lam = lambda_schedule(t, max_iter, cfg.beta)
        pull = push = reg = total = 0.0
        if batch.size > 0:
            x = target.features[batch]
            # copies (fancy indexing), so an abort can rewind the in-place
            # EMA update and hand over the exact pre-iteration state
            q_prev, stamp_prev = state.ema.q[batch], state.ema.last_update_iter[batch]
            try:
                z, p = forward(state.model, x, ws)
                batch_clusters = state.clusters[batch]
                pull_terms, push_terms, upstream = adaptive_loss_batch(
                    p, state.bank.predictions.take(batch_clusters, 0),
                    _background_mask(batch, batch_clusters), cfg.gamma, lam)
                q_rows = ema_update_batch(state.ema, batch, p, cfg.delta, t)
                reg_terms, grad_reg = kl_regularizer_batch(q_rows, p)
                pull, push = float(np.add.reduce(pull_terms)), float(np.add.reduce(push_terms))
                reg = float(np.add.reduce(reg_terms))
                total = pull + push + cfg.eta * reg
                if not math.isfinite(total):
                    raise FloatingPointError("non-finite loss total")
                upstream += cfg.eta * grad_reg
                grads = backward(state.model, x, z, p, upstream, ws)
                new_model, new_velocity = sgd_step(
                    state.model, grads, state.velocity, cfg.lr, cfg.momentum, ws)
                z, p = forward(new_model, x, ws)
                # the model is finite, so a non-finite z makes its row of p non-finite
                if np.count_nonzero(np.isfinite(p)) < p.size:
                    raise FloatingPointError("non-finite outputs after the step")
            except FloatingPointError as exc:
                state.ema.q[batch], state.ema.last_update_iter[batch] = q_prev, stamp_prev
                raise TrainingAborted(f"aborted at iteration {t}: {exc}", state) from exc
            state.model, state.velocity = new_model, new_velocity
            state.bank.features[batch] = knn_safe_features(z)
            state.bank.predictions[batch] = p

        losses = dict(total=total, l_ada_pull=pull, l_ada_push=push, l_reg=reg, lambda_used=lam)
        record = (replace(evaluate(state.model, target, state.bank, cfg.h, neighbor_cache),
                          iteration=t, **losses) if labeled else MetricsRecord(t, **losses))
        metrics.append(record)
        state.iteration = t + 1
        if iteration_callback is not None:
            iteration_callback(state, record)

    return state.model, metrics, state


def save_checkpoint(state: TrainerState, path: str | Path) -> None:
    """Version-2 checkpoint: model tensors plus full trainer state, atomic."""
    n = state.bank.features.shape[0]
    h = state.clusters.shape[1]
    with checkpoint_writer(path, CHECKPOINT_VERSION_TRAINER, state.model) as fh:
        fh.write(struct.pack("<IIqq", n, h, state.iteration, state.refreshed_at))
        write_arrays(fh, [state.velocity.flat, state.ema.q])
        write_arrays(fh, [state.ema.last_update_iter], "<i8")
        write_arrays(fh, [state.bank.features, state.bank.predictions])
        write_arrays(fh, [state.clusters], "<i8")
        write_arrays(fh, [state.known_mask], "u1")


def load_checkpoint(path: str | Path) -> TrainerState:
    """Read a version-2 checkpoint back into a TrainerState."""
    with open(path, "rb") as fh:
        version, d, d_z, c = read_header(fh)
        if version != CHECKPOINT_VERSION_TRAINER:
            raise CheckpointError(
                f"checkpoint version {version} has no trainer state; expected "
                f"{CHECKPOINT_VERSION_TRAINER}"
            )
        model = read_params(fh, d, d_z, c)
        head = read_exact(fh, struct.calcsize("<IIqq"), "trainer header")
        n, h, iteration, refreshed_at = struct.unpack("<IIqq", head)
        if not 0 <= refreshed_at <= iteration:
            raise CheckpointError(f"refresh iteration {refreshed_at} outside [0, {iteration}]")
        velocity = read_params(fh, d, d_z, c, GradientSet)
        q = read_array(fh, "<f8", (n, c), "EMA state")
        stamps = read_array(fh, "<i8", (n,), "EMA stamps")
        if ((stamps < -1) | (stamps >= iteration)).any():
            raise CheckpointError(f"EMA stamps outside [-1, {iteration})")
        bank_feats = read_array(fh, "<f8", (n, d_z), "bank features")
        bank_preds = read_array(fh, "<f8", (n, c), "bank predictions")
        clusters = read_array(fh, "<i8", (n, h), "clusters")
        if ((clusters < 0) | (clusters >= n)).any():
            raise CheckpointError(f"cluster indices outside [0, {n})")
        known = read_array(fh, "u1", (n,), "known mask").astype(bool)
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    bank = MemoryBank(bank_feats, bank_preds)
    return TrainerState(
        model=model,
        velocity=velocity,
        ema=EmaState(q, stamps),
        bank=bank,
        clusters=clusters,
        known_mask=known,
        iteration=iteration,
        refreshed_at=refreshed_at,
    )
