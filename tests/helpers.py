"""Independent reference implementations used as test oracles.

Everything here is written straight-line (plain loops, dense linear
algebra) so the package's vectorized/sparse/iterative code paths can be
checked against naive but obviously-correct counterparts. Keep this module
free of imports from hypersfda internals beyond the public API; the
exceptions are the bitwise solver oracle, which must share the solver's
tolerances and residual to reproduce its flags, and the neighbor-search
oracle, which must pad its columns as the package does, and the Gaussian
generator's oracle, which must draw from the generator's own streams.
`solve_instances`
hands the affinity solver independent instances, each an anchor and its
own neighbor rows. `cli_options` lists the
flags a subcommand registers, for the CLI and API-surface tests; `adapt_for`
stops an `adapt` run early, for the checkpoint and resume tests, and
`to_dense` spells out a relation matrix. `ref_csv_text` formats a dataset
CSV value by value, as one string. `ref_adapt_iteration` replays one
iteration of `adapt` with the straight-line `ref_backward` and
`ref_sgd_step`; it imports the objective's batch functions and the
trainer's batch helpers, so that only the step is compared.
"""
from __future__ import annotations

import argparse
import copy

import numpy as np

from hypersfda import (
    AdaptModel,
    ConfigError,
    EmaState,
    GradientSet,
    RelationMatrix,
    TrainerState,
    adapt,
    forward,
    lambda_schedule,
    refresh_hypergraph,
)
from hypersfda.config import seeded_rng
from hypersfda.datagen import (
    _STREAM_MEANS,
    _STREAM_SHIFT,
    _STREAM_SOURCE,
    _STREAM_TARGET,
    _balanced_labels,
    _rotate_first_two,
    _simplex_means,
)
from hypersfda.hypergraph import (
    COLUMN_TILE,
    SOLVER_KKT_TOL,
    SOLVER_STEP_TOL,
    _batch_kkt_residual,
    solve_affinity_batch,
)
from hypersfda.objective import adaptive_loss_batch, ema_update_batch, kl_regularizer_batch
from hypersfda.trainer import epoch_permutation, iterations_per_epoch


def rng_for(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def dense_relation(X: np.ndarray) -> RelationMatrix:
    """A dense square X as a relation matrix: column j holds X[:, j] at rows arange(n)."""
    n = X.shape[0]
    return RelationMatrix(np.tile(np.arange(n), (n, 1)), np.ascontiguousarray(X.T))


def ref_csv_text(ds) -> str:
    """A dataset's CSV text built as a list of lines and joined: the writer's oracle."""
    lines = [f"#hypersfda-embeddings v1 dim={ds.dim} classes={ds.class_count} "
             f"labeled={1 if ds.labeled else 0} domain={ds.domain_tag}"]
    for i in range(ds.n):
        label = str(int(ds.labels[i])) if ds.labeled else "-"
        lines.append(label + "," + ",".join(repr(float(v)) for v in ds.features[i]))
    return "\n".join(lines) + "\n"


def ref_gaussian_features(class_count, dim, n_source, n_target, shift, seed,
                          separation=4.0, sigma=1.0) -> list[np.ndarray]:
    """gen_gaussian_domains' source and target features in expression form,
    means[labels] + sig[labels] * noise, from the generator's own draws."""
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (class_count,))
    means = _simplex_means(class_count, dim, separation * float(np.mean(sig)),
                           seeded_rng(seed, _STREAM_MEANS))
    means_t = _rotate_first_two(means, shift.rotation_angle) + shift.translation
    if shift.noise_sigma > 0:
        means_t = means_t + shift.noise_sigma * seeded_rng(
            shift.seed, _STREAM_SHIFT).standard_normal((class_count, dim))
    out = []
    for n, m, stream in ((n_source, means, _STREAM_SOURCE), (n_target, means_t, _STREAM_TARGET)):
        rng = seeded_rng(seed, stream)
        labels = _balanced_labels(n, class_count, rng)
        out.append(m[labels] + sig[labels, None] * rng.standard_normal((n, dim)))
    return out


def to_dense(H: RelationMatrix) -> np.ndarray:
    """H as a dense n x n array: column j holds H.values[j] at rows H.members[j]."""
    n = len(H.members)
    out = np.zeros((n, n))
    out[H.members, np.arange(n)[:, None]] = H.values
    return out


class _Stop(Exception):
    """Ends an adapt run from its iteration callback, carrying the state."""


def adapt_for(model, target, cfg, iterations: int, resume_from=None):
    """adapt for at most `iterations` (>= 1) iterations: (model, records, state).

    The iteration callback stops the run once it has seen `iterations`
    records. The state is whole then: the last iteration t is complete and
    state.iteration is t + 1. A run that ends first returns adapt's result.
    """
    records = []

    def count(state, record):
        records.append(record)
        if len(records) == iterations:
            raise _Stop(state)

    try:
        return adapt(model, target, cfg, resume_from=resume_from, iteration_callback=count)
    except _Stop as stop:
        state = stop.args[0]
        return state.model, records, state


def initial_state(model, target, cfg) -> TrainerState:
    """The state adapt builds before its iteration 0."""
    bank, clusters, known_mask = refresh_hypergraph(model, target, cfg)
    return TrainerState(model, GradientSet.zeros_like(model),
                        EmaState.initial(target.n, model.class_count), bank, clusters,
                        known_mask, iteration=0, refreshed_at=0)


def ref_adapt_iteration(state, target, cfg):
    """Iteration state.iteration of adapt on a copy of `state`: (new state, loss sums).

    Straight-line and allocating: forward without a workspace,
    adaptive_loss_batch, ema_update_batch, kl_regularizer_batch,
    ref_backward, ref_sgd_step and forward again, after the refresh that
    falls due; the bank rows of the batch get that last forward's features
    as they are, zero rows included. The sums are the batch's (pull, push,
    reg), zeros for an empty batch.
    """
    state = copy.deepcopy(state)
    t, n, size = state.iteration, target.n, cfg.batch_size
    per_epoch = iterations_per_epoch(n, size)
    if t % cfg.t_in == 0 and t != state.refreshed_at:
        state.bank, state.clusters, state.known_mask = refresh_hypergraph(
            state.model, target, cfg)
        state.refreshed_at = t
    epoch, pos = divmod(t, per_epoch)
    batch = epoch_permutation(cfg.seed, epoch, n)[pos * size:(pos + 1) * size]
    batch = batch[state.known_mask[batch]]
    sums = (0.0, 0.0, 0.0)
    if batch.size > 0:
        x = target.features[batch]
        z, p = forward(state.model, x)
        close = state.clusters[batch]
        pull, push, grad_ada = adaptive_loss_batch(
            p, state.bank.predictions[close], ref_background_mask(batch, close), cfg.gamma,
            lambda_schedule(t, cfg.epochs * per_epoch, cfg.beta))
        q_rows = ema_update_batch(state.ema, batch, p, cfg.delta, t)
        reg, grad_reg = kl_regularizer_batch(q_rows, p)
        grads = GradientSet(*ref_backward(state.model, x, z, p, grad_ada + cfg.eta * grad_reg))
        theta, velocity = ref_sgd_step(state.model, grads, state.velocity, cfg.lr, cfg.momentum)
        state.model, state.velocity = AdaptModel(*theta), GradientSet(*velocity)
        z, p = forward(state.model, x)
        state.bank.features[batch] = z
        state.bank.predictions[batch] = p
        sums = (float(pull.sum()), float(push.sum()), float(reg.sum()))
    state.iteration = t + 1
    return state, sums


# ---------------------------------------------------------------------------
# reconstruction-affinity (NNLS) reference


def nnls_objective(a: np.ndarray, anchor: np.ndarray, neighbors: np.ndarray,
                   alpha: float) -> float:
    resid = a @ neighbors - anchor
    return float(resid @ resid + alpha * np.sqrt(a @ a))


def ref_nnls_longrun(anchor: np.ndarray, neighbors: np.ndarray, alpha: float,
                     iters: int = 200_000) -> tuple[np.ndarray, float]:
    """Long-run proximal gradient for min ||a.N - x||^2 + alpha*||a||_2, a >= 0.

    Dense, one instance, fixed 1/L step from an exact eigendecomposition.
    The prox of alpha*||.||_2 plus the nonnegativity indicator is clip to
    the orthant followed by norm shrinkage (the orthant is invariant under
    radial shrinkage, so the composition is exact).
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.float64)
    k1 = neighbors.shape[0]
    gram = neighbors @ neighbors.T
    lam = float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / (2.0 * lam + 1e-12)
    a = np.zeros(k1)
    cross = 2.0 * (neighbors @ anchor)
    for _ in range(iters):
        grad = 2.0 * (gram @ a) - cross
        u = np.maximum(a - step * grad, 0.0)
        norm = np.sqrt(u @ u)
        if norm <= step * alpha:
            a_next = np.zeros(k1)
        else:
            a_next = (1.0 - step * alpha / norm) * u
        if np.max(np.abs(a_next - a)) < 1e-14:
            a = a_next
            break
        a = a_next
    best = nnls_objective(a, anchor, neighbors, alpha)
    at_zero = nnls_objective(np.zeros(k1), anchor, neighbors, alpha)
    if at_zero < best:
        return np.zeros(k1), at_zero
    return a, best


def ref_kkt_residual(a: np.ndarray, anchor: np.ndarray, neighbors: np.ndarray,
                     alpha: float) -> float:
    """First-order optimality violation of min ||a.N - x||^2 + alpha*||a||_2, a >= 0.

    Away from zero the norm term is smooth, so stationarity must hold on
    the support and the full gradient must be nonnegative off it. At a = 0
    the norm's subdifferential is the radius-alpha ball and the orthant's
    normal cone absorbs any nonpositive direction, so zero is optimal iff
    the positive part of -grad_smooth(0) fits inside the ball.
    """
    a = np.asarray(a, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.float64)
    grad_smooth = 2.0 * (a @ neighbors - anchor) @ neighbors.T
    norm = float(np.sqrt(a @ a))
    if norm == 0.0:
        pulled = np.maximum(-grad_smooth, 0.0)
        return max(0.0, float(np.sqrt(pulled @ pulled)) - alpha)
    grad = grad_smooth + alpha * a / norm
    worst = float(np.abs(grad[a > 0]).max())
    if (a == 0).any():
        worst = max(worst, float(np.maximum(-grad[a == 0], 0.0).max()))
    return worst


def solve_instances(anchors: np.ndarray, neighbor_feats: np.ndarray,
                    alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """solve_affinity_batch on independent instances, each an anchor and its own rows.

    anchors is (n, d) and neighbor_feats (n, k-1, d). The feature matrix
    stacks the anchors, then every neighbor row, and instance i's index
    row points at its own k-1 neighbor rows.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    neighbor_feats = np.asarray(neighbor_feats, dtype=np.float64)
    n, k1, d = neighbor_feats.shape
    features = np.concatenate((anchors, neighbor_feats.reshape(n * k1, d)))
    return solve_affinity_batch(features, n + np.arange(n * k1).reshape(n, k1), alpha)


def ref_solve_affinity_batch(anchors: np.ndarray, neighbor_feats: np.ndarray,
                             alpha: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """solve_affinity_batch with the KKT residual evaluated on every sweep.

    The same FISTA arithmetic, so coefficients and converged flags must
    match the package bitwise; only the early exit differs.
    """
    n, k1, _ = neighbor_feats.shape
    gram = np.einsum("nij,nkj->nik", neighbor_feats, neighbor_feats)
    c = 2.0 * np.einsum("nij,nj->ni", neighbor_feats, anchors)
    lam = np.linalg.eigvalsh(gram)[:, -1]
    step = 1.0 / (2.0 * lam + 1e-12)
    a = np.zeros((n, k1))
    a_prev = a
    t = np.ones(n)
    converged = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        y = a + beta[:, None] * (a - a_prev)
        grad_y = np.einsum("nij,nj->ni", gram, y) * 2.0 - c
        u = np.maximum(0.0, y - step[:, None] * grad_y)
        unorm = np.linalg.norm(u, axis=1)
        scale = np.where(
            unorm > 0, np.maximum(0.0, 1.0 - step * alpha / np.maximum(unorm, 1e-300)), 0.0
        )
        a_next = scale[:, None] * u
        restart = np.einsum("ni,ni->n", y - a_next, a_next - a) > 0.0
        t_next = np.where(restart, 1.0, t_next)
        change = np.abs(a_next - a).max(axis=1)
        grad = np.einsum("nij,nj->ni", gram, a_next) * 2.0 - c
        res = _batch_kkt_residual(a_next, grad, alpha)
        converged = (change < SOLVER_STEP_TOL) & (res <= SOLVER_KKT_TOL)
        a_prev = a
        a = a_next
        t = t_next
        if converged.all():
            break
    return a, converged


def ref_exhaustive_affinity(anchor: np.ndarray, neighbors: np.ndarray,
                            alpha: float) -> np.ndarray:
    """The optimum of min ||a.N - x||^2 + alpha*||a||_2, a >= 0, by trying every support.

    On a support S a positive optimum solves (2 G_SS + mu I) a_S = c_S with
    mu = alpha/||a_S||; mu * ||a_S(mu)|| grows with mu, so bisection finds
    it, each a_S(mu) from a dense solve. Of the candidates positive on S
    whose KKT residual is within 1e-6 (a = 0 when the ball condition
    holds), the lowest objective wins. Needs nonsingular G_SS: k-1 <= d_z.
    """
    k1 = neighbors.shape[0]
    gram = neighbors @ neighbors.T
    c = 2.0 * (neighbors @ anchor)
    best, best_obj = np.zeros(k1), np.inf
    if np.sqrt((np.maximum(c, 0.0) ** 2).sum()) <= alpha:
        best_obj = nnls_objective(best, anchor, neighbors, alpha)
    for mask in range(1, 2**k1):
        support = [j for j in range(k1) if mask >> j & 1]
        system = 2.0 * gram[np.ix_(support, support)]
        rhs = c[support]

        def reach(mu):  # mu * ||a_S(mu)||
            a_s = np.linalg.solve(system + mu * np.eye(len(support)), rhs)
            return mu * np.sqrt(a_s @ a_s)

        if np.sqrt(rhs @ rhs) <= alpha:
            continue
        mu = 0.0
        if alpha > 0.0:
            lo, hi = 0.0, 1.0
            while reach(hi) < alpha:
                hi *= 2.0
            while lo < 0.5 * (lo + hi) < hi:  # to the last bit
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if reach(mid) < alpha else (lo, mid)
            mu = hi
        coeffs = np.linalg.solve(system + mu * np.eye(len(support)), rhs)
        if (coeffs <= 0.0).any():
            continue
        a = np.zeros(k1)
        a[support] = coeffs
        obj = nnls_objective(a, anchor, neighbors, alpha)
        if ref_kkt_residual(a, anchor, neighbors, alpha) <= 1e-6 and obj < best_obj:
            best, best_obj = a, obj
    return best


def make_nnls_instance(index: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Deterministic NNLS test instance: (anchor, neighbors, alpha).

    Even indices use raw Gaussian anchors; odd indices build the anchor as
    a nonnegative combination of the neighbors plus small noise so the
    solution has substantial positive support.
    """
    rng = rng_for(9001, index)
    k1 = int(rng.integers(1, 9))
    dz = int(rng.integers(1, 17))
    alpha = (0.0, 2.0, 10.0)[index % 3]
    neighbors = rng.standard_normal((k1, dz))
    if index % 2 == 0:
        anchor = rng.standard_normal(dz)
    else:
        coeffs = rng.uniform(0.0, 1.5, size=k1)
        anchor = coeffs @ neighbors + 0.1 * rng.standard_normal(dz)
    return anchor, neighbors, alpha


# ---------------------------------------------------------------------------
# straight-line hypergraph pipeline (n small, loops everywhere)


def ref_nearest(points: np.ndarray, offset: np.ndarray, k: int, block: int) -> np.ndarray:
    """The neighbor search by a full stable argsort of every row.

    Distances are formed exactly as the package forms them, from products
    of blocks of `block` rows (the last one padded by repeating its rows;
    BLAS may round a whole-matrix or one-row product differently) against
    the columns padded with zero rows to a multiple of COLUMN_TILE, so any
    difference in the result comes from the selection alone. Each duplicate
    column is then copied from its lowest-index equal row, so equal rows
    tie exactly whatever the BLAS rounds: this substitution is the oracle
    for the package's tie rule, which has no such step.
    """
    n = points.shape[0]
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    twin = first[inverse.ravel()]
    dup = np.flatnonzero(twin != np.arange(n))
    cols = points.T
    if n % COLUMN_TILE:
        cols = np.vstack((points, np.zeros((-n % COLUMN_TILE, points.shape[1])))).T
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.resize(np.arange(start, stop), block)
        d = offset - 2.0 * (points[rows] @ cols)[:stop - start, :n]
        d[:, dup] = d[:, twin[dup]]
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d, axis=1, kind="stable")[:, :k]
    return out


def ref_cosine_knn(features: np.ndarray, k_minus_1: int) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    norms = np.sqrt((features * features).sum(axis=1))
    out = np.empty((n, k_minus_1), dtype=np.int64)
    for i in range(n):
        sims = np.empty(n)
        for j in range(n):
            sims[j] = features[i] @ features[j] / (norms[i] * norms[j])
        sims[i] = -np.inf
        order = np.argsort(-sims, kind="stable")
        out[i] = order[:k_minus_1]
    return out


def ref_normalized_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    total = 0.0
    for value in p:
        if value > 0.0:
            total -= value * np.log(value)
    return total / np.log(p.size)


def ref_pipeline(features: np.ndarray, predictions: np.ndarray, *, k: int,
                 alpha: float, h: int, m_prime: int,
                 use_self_loops: bool = True) -> dict:
    """Full KNN -> NNLS -> self-loops -> H -> PCA -> clusters, all loops.

    Returns a dict with neighbors, affinities (pre-merge), selfloops,
    H (dense), compressed rows, and cluster indices.
    """
    features = np.asarray(features, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    n = features.shape[0]
    neighbor_idx = ref_cosine_knn(features, k - 1)

    affinities = np.empty((n, k))
    for i in range(n):
        coeffs, _ = ref_nnls_longrun(features[i], features[neighbor_idx[i]],
                                     alpha, iters=300_000)
        affinities[i, 0] = 1.0
        affinities[i, 1:] = coeffs

    selfloops = np.empty(n)
    for i in range(n):
        p_bar = predictions[neighbor_idx[i]].mean(axis=0)
        selfloops[i] = np.exp(ref_normalized_entropy(p_bar))

    H = np.zeros((n, n))
    for j in range(n):
        members = [j, *neighbor_idx[j].tolist()]
        for slot, i in enumerate(members):
            H[i, j] = affinities[j, slot]
            if use_self_loops:
                H[i, j] += selfloops[i]

    mu = H.mean(axis=0)
    Xc = H - mu
    cov = Xc.T @ Xc
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:m_prime]
    components = eigvecs[:, order]
    for col in range(m_prime):
        peak = np.argmax(np.abs(components[:, col]))
        if components[peak, col] < 0:
            components[:, col] = -components[:, col]
    compressed = Xc @ components

    clusters = np.empty((n, h), dtype=np.int64)
    for i in range(n):
        d2 = np.empty(n)
        for j in range(n):
            diff = compressed[i] - compressed[j]
            d2[j] = diff @ diff
        d2[i] = np.inf
        clusters[i] = np.argsort(d2, kind="stable")[:h]

    return {
        "neighbors": neighbor_idx,
        "affinities": affinities,
        "selfloops": selfloops,
        "H": H,
        "compressed": compressed,
        "clusters": clusters,
    }


# ---------------------------------------------------------------------------
# single-sample loss terms, the oracles of the package's batch forms

SQRT2 = float(np.sqrt(2.0))


def prediction_distance(p_i: np.ndarray, p_j: np.ndarray) -> float:
    """Euclidean distance between prediction vectors scaled by its max sqrt(2)."""
    d = np.linalg.norm(np.asarray(p_i, float) - np.asarray(p_j, float)) / SQRT2
    return float(min(max(d, 0.0), 1.0))


def _weights(p_i: np.ndarray, others: np.ndarray, gamma: float) -> np.ndarray:
    """(1 - d^gamma) against each row of `others`, treated as constants."""
    d = np.linalg.norm(others - p_i, axis=-1) / SQRT2
    d = np.clip(d, 0.0, 1.0)
    return 1.0 - d ** gamma


def adaptive_loss(
    p_i: np.ndarray,
    close_preds: np.ndarray,
    background_preds: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[float, float, np.ndarray]:
    """Pull/push loss for one anchor and its gradient w.r.t. p_i.

    Returns (pull, push, grad) with pull = -sum_j w_ij p_i.p_j over the
    close set and push = lam * sum_k w_ik p_i.p_k over the background set.
    Weights and retrieved predictions are constants under the gradient.
    An empty close set is an error; an empty background set is a zero push.
    """
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    p_i = np.asarray(p_i, dtype=np.float64)
    close_preds = np.asarray(close_preds, dtype=np.float64).reshape(-1, p_i.size)
    if close_preds.shape[0] == 0:
        raise ConfigError("close set A_i is empty; clusters must exist")
    w_close = _weights(p_i, close_preds, gamma)
    pull = -float(w_close @ (close_preds @ p_i))
    grad = -(w_close @ close_preds)

    background_preds = np.asarray(background_preds, dtype=np.float64).reshape(-1, p_i.size)
    if background_preds.shape[0] > 0:
        w_back = _weights(p_i, background_preds, gamma)
        push = lam * float(w_back @ (background_preds @ p_i))
        grad = grad + lam * (w_back @ background_preds)
    else:
        push = 0.0
    return pull, push, grad


def ref_backward(model, batch_x: np.ndarray, z: np.ndarray, p: np.ndarray,
                 upstream: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-tensor gradients (dW_f, db_f, dW_g, db_g), each a fresh array."""
    dlogits = p * (upstream - (upstream * p).sum(axis=1, keepdims=True))
    dz = (dlogits @ model.W_g.T) * (z > 0)
    return batch_x.T @ dz, dz.sum(axis=0), z.T @ dlogits, dlogits.sum(axis=0)


def ref_sgd_step(model, grads, velocity, lr: float,
                 momentum: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-tensor momentum step: (new parameter tensors, new velocity tensors)."""
    new_v = [momentum * v + g for g, v in zip(grads.tensors(), velocity.tensors())]
    return [t - lr * v for t, v in zip(model.tensors(), new_v)], new_v


def ref_adaptive_loss_batch(p_live: np.ndarray, close_preds: np.ndarray,
                            background_mask: np.ndarray, gamma: float,
                            lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch loss with explicit (b, h, C) and (b, b, C) difference tensors."""
    d_close = np.linalg.norm(close_preds - p_live[:, None, :], axis=2) / SQRT2
    w_close = 1.0 - np.clip(d_close, 0.0, 1.0) ** gamma
    pull = -np.einsum("bh,bhc,bc->b", w_close, close_preds, p_live)
    grad = -np.einsum("bh,bhc->bc", w_close, close_preds)

    d_back = np.linalg.norm(p_live[:, None, :] - p_live[None, :, :], axis=2) / SQRT2
    w_back = (1.0 - np.clip(d_back, 0.0, 1.0) ** gamma) * background_mask
    push = lam * np.einsum("bm,mc,bc->b", w_back, p_live, p_live)
    grad = grad + lam * np.einsum("bm,mc->bc", w_back, p_live)
    return pull, push, grad


def ref_background_mask(batch: np.ndarray, batch_clusters: np.ndarray) -> np.ndarray:
    """mask[i, m]: batch member m is neither anchor i nor in i's close set."""
    b = batch.size
    in_close = (batch_clusters[:, None, :] == batch[None, :, None]).any(axis=2)
    mask = ~in_close
    mask[np.arange(b), np.arange(b)] = False
    return mask


def ema_update(state: EmaState, sample_index: int, p_current: np.ndarray,
               delta: float, iteration: int) -> np.ndarray:
    """q_i <- delta*q_i + (1-delta)*p_i, stamping the update iteration."""
    if not 0 <= delta < 1:
        raise ConfigError(f"delta must be in [0, 1), got {delta}")
    if iteration <= state.last_update_iter[sample_index]:
        raise ConfigError(
            f"EMA stamp must increase: sample {sample_index} already updated at "
            f"iteration {state.last_update_iter[sample_index]}"
        )
    state.q[sample_index] = delta * state.q[sample_index] + (1.0 - delta) * p_current
    state.last_update_iter[sample_index] = iteration
    return state.q[sample_index]


def kl_regularizer(q_row: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(q || p) with q constant, p floored at 1e-12; 0*log 0 = 0.

    q need not be normalized (it starts at 0), so the value may be
    negative early in training. Gradient w.r.t. p is -q/p.
    """
    q_row = np.asarray(q_row, dtype=np.float64)
    p_safe = np.maximum(np.asarray(p, dtype=np.float64), 1e-12)
    mask = q_row > 0
    value = float((q_row[mask] * np.log(q_row[mask] / p_safe[mask])).sum())
    grad = -q_row / p_safe
    return value, grad


# ---------------------------------------------------------------------------
# open-set split oracle


def row_with_target_entropy(target: float, class_count: int, iters: int = 40) -> np.ndarray:
    """Prediction row whose normalized entropy bisects onto `target`.

    Mixes a one-hot with the uniform distribution; entropy rises
    monotonically from 0 to 1 in the mixing weight, so bisection lands
    within 2^-40 of the target.
    """
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        w = 0.5 * (lo + hi)
        p = np.full(class_count, w / class_count)
        p[0] += 1.0 - w
        if ref_normalized_entropy(p) < target:
            lo = w
        else:
            hi = w
    w = 0.5 * (lo + hi)
    p = np.full(class_count, w / class_count)
    p[0] += 1.0 - w
    return p


def make_bimodal_predictions(index: int) -> np.ndarray:
    """Deterministic prediction batch with two well-separated entropy bands.

    Low band [0.05, 0.30] against high band [0.70, 0.95]: the gap dwarfs
    each band's internal spread, so two-means from extreme-value centroids
    and an exhaustive threshold search agree on the gap split.
    """
    rng = rng_for(7100, index)
    class_count = int(rng.integers(2, 7))
    n_low = int(rng.integers(1, 21))
    n_high = int(rng.integers(1, 21))
    lows = rng.uniform(0.05, 0.30, n_low)
    highs = rng.uniform(0.70, 0.95, n_high)
    ents = np.concatenate([lows, highs])[rng.permutation(n_low + n_high)]
    return np.array([row_with_target_entropy(t, class_count) for t in ents])


def exhaustive_threshold_split(entropies: np.ndarray) -> np.ndarray:
    """Globally optimal 1-D two-means by trying every threshold partition.

    Returns a boolean known-mask (True = low-entropy cluster). Equal
    entropies everywhere -> everything known. Among partitions with equal
    within-cluster sum of squares the smallest unknown set wins, matching
    the convention that ties stay known.
    """
    e = np.asarray(entropies, dtype=np.float64)
    n = e.size
    if np.all(e == e[0]):
        return np.ones(n, dtype=bool)
    order = np.argsort(e, kind="stable")
    se = e[order]
    best_sse = np.inf
    best_cut = n
    for cut in range(1, n):
        lo, hi = se[:cut], se[cut:]
        sse = float(((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum())
        if sse < best_sse - 1e-15 or (abs(sse - best_sse) <= 1e-15 and cut > best_cut):
            best_sse = sse
            best_cut = cut
    known = np.zeros(n, dtype=bool)
    known[order[:best_cut]] = True
    return known


# ---------------------------------------------------------------------------
# finite differences


def central_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        hi = f(x)
        flat[idx] = orig - eps
        lo = f(x)
        flat[idx] = orig
        gflat[idx] = (hi - lo) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# CLI introspection


def cli_options(command: str) -> set[str]:
    """The long options of one hypersfda subcommand, --help excluded."""
    from hypersfda.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)}
