"""Hypergraph construction over target samples, held as plain arrays.

Sample i anchors hyperedge i: itself (member 0) plus its k-1 nearest
neighbors by cosine similarity of adapter features. Over n samples:

- neighbors (n, k-1): edge i's neighbors by decreasing similarity.
- affinity (n, k): column 0 is the anchor's coefficient, exactly 1 before
  the self-loop merge; column 1 + j is neighbors[i, j]'s nonnegative
  least-squares weight in the reconstruction of the anchor feature.
- selfloops (n,): exp of the normalized entropy of edge i's mean neighbor
  prediction, in [1, e]. The merge adds each member's own self-loop.

The merged affinities fill the sparse node-by-edge relation matrix H
(column j holds edge j's affinities at its members), whose rows,
compressed by PCA, define each node's high-order cluster. Every function
here is pure: no input is modified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import ConfigError, seeded_rng

SOLVER_MAX_ITER = 10_000
SOLVER_STEP_TOL = 1e-8
SOLVER_KKT_TOL = 1e-6
PCA_TOL = 1e-8
PCA_MAX_ITER = 5000
ACTIVE_TOL = 1e-10
NEIGHBOR_BLOCK = 64


def _nearest(points: np.ndarray, offset: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other rows: the one neighbor search.

    The distance from row i to row j is offset[j] - 2 * points[i] . points[j];
    smaller is nearer. A zero offset ranks by inner product (cosine
    similarity for unit rows). The squared row norms rank by Euclidean
    distance, since each row's values differ from ||p_i - p_j||^2 by the
    constant ||p_i||^2; the rows must then be centred, or the form cancels
    digits in rows far from the origin. Self is excluded. Equal rows of
    points tie exactly: each duplicate column takes the distance of its
    lowest-index twin. Ties resolve to the lower index. Returns an (n, k)
    integer matrix ordered by increasing distance. At most NEIGHBOR_BLOCK
    rows of distances are held at a time, so memory is O(NEIGHBOR_BLOCK * n).

    Cost per row: O(n * d) for its distances and O(k * n) for k argmin
    passes, no sort. argmin returns the first minimum, so each pass takes
    the nearest remaining column, the lower index first on a tie. The
    passes beat an argpartition up to k of about 30 (64 x 3000 block, one
    thread, 2-vCPU Xeon: 0.3 against 2.0 ms at k = 9, 2.3 against 1.0-2.4
    ms at k = 64); the default and benchmark configurations use k - 1 <= 9
    and h = 3. points and offset must be finite; an overflowed picked
    distance raises.
    """
    n = points.shape[0]
    if not 1 <= k < n:
        raise ConfigError(f"need 1 <= k < n, got k={k}, n={n}")
    if not (np.isfinite(points).all() and np.isfinite(offset).all()):
        raise ConfigError("neighbor search needs finite points and offsets")
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    twin = first[inverse.ravel()]
    dup = np.flatnonzero(twin != np.arange(n))
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, NEIGHBOR_BLOCK):
        stop = min(start + NEIGHBOR_BLOCK, n)
        # in place and bitwise equal to offset - 2.0 * (...); scaling points
        # instead is not, as numpy sends a whole-matrix P @ P.T to syrk
        d = points[start:stop] @ points.T
        d *= -2.0
        d += offset
        d[:, dup] = d[:, twin[dup]]
        rows = np.arange(stop - start)
        d[rows, np.arange(start, stop)] = np.inf
        for j in range(k):
            col = d.argmin(axis=1)
            # an overflowed distance could pick self or a column already taken
            if not np.isfinite(d[rows, col]).all():
                raise ConfigError("neighbor distances overflow")
            out[start:stop, j] = col
            d[rows, col] = np.inf
    return out


def cosine_knn(features: np.ndarray, k_minus_1: int) -> np.ndarray:
    """Each row's k-1 most cosine-similar other rows, by decreasing similarity.

    _nearest over the unit-norm rows with a zero offset; every row must have
    nonzero norm.
    """
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    zero_rows = np.flatnonzero(norms == 0)
    if zero_rows.size:
        raise ConfigError(f"zero-norm feature row at index {zero_rows[0]}")
    unit = features / norms[:, None]
    return _nearest(unit, np.zeros(unit.shape[0]), k_minus_1)


def _batch_kkt_residual(a: np.ndarray, grad_smooth: np.ndarray,
                        alpha: float) -> np.ndarray:
    """First-order optimality residual per instance.

    For a nonzero iterate the norm term is differentiable and the residual
    is the worst violation over coordinates (stationarity on the support,
    nonnegativity of the gradient off it). At a = 0 optimality is the ball
    condition ||max(0, c)||_2 <= alpha where c = -grad_smooth(0).
    """
    norms = np.linalg.norm(a, axis=1)
    pos = norms > 0
    safe = np.where(pos, norms, 1.0)
    g = grad_smooth + alpha * a / safe[:, None]
    free = a > ACTIVE_TOL
    per_coord = np.where(free, np.abs(g), np.maximum(0.0, -g))
    res_pos = per_coord.max(axis=1)
    res_zero = np.maximum(
        0.0, np.linalg.norm(np.maximum(0.0, -grad_smooth), axis=1) - alpha
    )
    return np.where(pos, res_pos, res_zero)


def solve_affinity_batch(
    anchors: np.ndarray,
    neighbor_feats: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every anchor's constrained reconstruction problem at once.

    minimize ||sum_j a_j z_{i_j} - z_i||^2 + alpha*||a||_2  s.t. a >= 0

    Accelerated proximal gradient (FISTA) with per-instance gradient
    restart: a step on the smooth quadratic from the extrapolated point,
    then the exact proximal map of alpha*||.||_2 + nonnegativity (clip at
    zero, then shrink the norm by step*alpha, collapsing to exactly 0 when
    that is optimal). Acceleration keeps singular Gram matrices (k-1 >
    d_z) converging to the KKT tolerance. Step size 1/L with L twice the
    largest eigenvalue of the neighbor Gram matrix, computed exactly per
    instance. An instance converges when its step is below SOLVER_STEP_TOL
    and its KKT residual at most SOLVER_KKT_TOL; the residual is evaluated
    only once every step is below SOLVER_STEP_TOL, and on the last sweep.
    Returns (coefficients (n, k-1), converged flags (n,)); never raises on
    non-convergence.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    neighbor_feats = np.asarray(neighbor_feats, dtype=np.float64)
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    n, k1, _ = neighbor_feats.shape

    gram = np.einsum("nij,nkj->nik", neighbor_feats, neighbor_feats)
    c = 2.0 * np.einsum("nij,nj->ni", neighbor_feats, anchors)

    # the smooth term's gradient is Lipschitz with constant 2 * lambda_max(gram)
    lam = np.linalg.eigvalsh(gram)[:, -1]
    step = 1.0 / (2.0 * lam + 1e-12)

    a = np.zeros((n, k1))
    a_prev = a
    t = np.ones(n)
    converged = np.zeros(n, dtype=bool)
    for sweep in range(SOLVER_MAX_ITER):
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
        # gradient restart: momentum pointing against the step kills it
        restart = np.einsum("ni,ni->n", y - a_next, a_next - a) > 0.0
        t_next = np.where(restart, 1.0, t_next)
        change = np.abs(a_next - a).max(axis=1)
        a_prev = a
        a = a_next
        t = t_next
        # only then can the residual end the solve; the last sweep sets the flags
        if (change < SOLVER_STEP_TOL).all() or sweep == SOLVER_MAX_ITER - 1:
            grad = np.einsum("nij,nj->ni", gram, a) * 2.0 - c
            converged = (change < SOLVER_STEP_TOL) & (
                _batch_kkt_residual(a, grad, alpha) <= SOLVER_KKT_TOL)
            if converged.all():
                break
    return a, converged


def build_hyperedges(features: np.ndarray, k: int,
                     alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One hyperedge per node: itself plus its k-1 cosine neighbors.

    Returns (neighbors (n, k-1), affinity (n, k), converged (n,)): column 0
    of affinity is the anchor's coefficient, exactly 1, and converged says
    whether each edge's affinity solve met its tolerance.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if k <= 2:
        raise ConfigError(f"k must be greater than 2, got {k}")
    if n <= k - 1:
        raise ConfigError(f"need more than k-1={k - 1} samples, got {n}")
    # a finite row whose squared norm overflows would overflow the Gram matrices
    bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", features, features)))
    if bad.size:
        raise ConfigError(f"feature row at index {bad[0]} is not finite or overflows")
    neighbors = cosine_knn(features, k - 1)
    coeffs, converged = solve_affinity_batch(features, features[neighbors], alpha)
    return neighbors, np.column_stack((np.ones(n), coeffs)), converged


def normalized_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of p divided by log(|C|), in [0, 1]; 0*log 0 = 0.

    p is one probability vector or a stack of them along the last axis;
    the result drops that axis.
    """
    p = np.asarray(p, dtype=np.float64)
    bad = (p < -1e-9).any(axis=-1) | (np.abs(p.sum(axis=-1) - 1.0) > 1e-6)
    if bad.any():
        raise ConfigError(f"not a probability vector: {p[bad][0]}")
    if p.shape[-1] < 2:
        return np.zeros(p.shape[:-1])
    q = np.clip(p, 0.0, None)
    terms = q * np.log(np.where(q > 0, q, 1.0))  # 0 where q == 0
    return np.clip(-terms.sum(axis=-1) / np.log(p.shape[-1]), 0.0, 1.0)


def self_loop_affinities(neighbors: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """W_s(v_i) = exp of the normalized entropy of edge i's mean neighbor prediction.

    The anchor's own prediction is left out of the mean. Values lie in [1, e].
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    return np.exp(normalized_entropy(predictions[neighbors].mean(axis=1)))


def _members(neighbors: np.ndarray) -> np.ndarray:
    """(n, k) members of every edge: the anchor first, then its neighbors."""
    return np.column_stack((np.arange(neighbors.shape[0]), neighbors))


def merge_self_loops(neighbors: np.ndarray, affinity: np.ndarray,
                     selfloops: np.ndarray) -> np.ndarray:
    """Add each member's own self-loop value to its affinity entry."""
    return affinity + selfloops[_members(neighbors)]


def build_relation_matrix(neighbors: np.ndarray, affinity: np.ndarray) -> sp.csc_array:
    """Sparse n x n matrix H: column j holds edge j's affinities at its members."""
    n, k = affinity.shape
    rows = _members(neighbors).ravel()
    cols = np.repeat(np.arange(n), k)
    return sp.csc_array((affinity.ravel(), (rows, cols)), shape=(n, n))


def _center_matvec(H, mu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(Xc^T Xc) v for a block of columns v, covariance never materialized."""
    n = H.shape[0]
    return H.T @ (H @ v) - n * mu[:, None] * (mu @ v)[None, :]


def pca_rows(H, m_prime: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-m' principal components of the rows of H by orthogonal iteration.

    Deterministic: seeded random start, iterate V <- qr(C @ V) until the
    spanned subspace moves less than PCA_TOL per sweep (or stops shrinking),
    then a Rayleigh-Ritz rotation orders components by decreasing
    eigenvalue. Sign convention: each component's largest-magnitude
    coordinate is positive. Returns (compressed rows (n, m'), components
    (n, m'), eigenvalues).
    """
    n = H.shape[0]
    if not 1 <= m_prime < n:
        raise ConfigError(f"need 1 <= m_prime < n, got m_prime={m_prime}, n={n}")
    mu = np.asarray(H.mean(axis=0)).ravel()

    v, _ = np.linalg.qr(seeded_rng(seed, 41).standard_normal((n, m_prime)))
    prev_err = np.inf
    stalled = 0
    # several covariance applications per orthogonalization: same fixed
    # point, fewer of the QR factorizations that dominate the cost
    chain = 5
    for _ in range(PCA_MAX_ITER):
        y = _center_matvec(H, mu, v)
        for _ in range(chain - 1):
            y = _center_matvec(H, mu, y)
        v_new, _ = np.linalg.qr(y)
        err = np.linalg.norm(v_new - v @ (v.T @ v_new))
        v = v_new
        if err < PCA_TOL:
            break
        # secondary stop: subspace error has stopped shrinking, which
        # happens when trailing eigenvalues are nearly tied and the split
        # between kept and dropped directions cannot settle
        stalled = stalled + 1 if err >= 0.9 * prev_err else 0
        if stalled >= 3:
            break
        prev_err = err

    small = v.T @ _center_matvec(H, mu, v)
    small = (small + small.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(small)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    components = v @ eigvecs[:, order]
    for col in range(m_prime):
        peak = np.argmax(np.abs(components[:, col]))
        if components[peak, col] < 0:
            components[:, col] = -components[:, col]
    compressed = (H @ components) - mu @ components
    return compressed, components, eigvals


def default_m_prime(n: int) -> int:
    return min(64, n - 1)


def cluster_high_order(compressed: np.ndarray, h: int) -> np.ndarray:
    """Each row's h nearest rows by Euclidean distance, through _nearest.

    Returns an (n, h) index matrix ordered by increasing distance.
    """
    c = np.asarray(compressed, dtype=np.float64)
    # centring moves no distance, and stops the offset form cancelling digits
    c = c - c.mean(axis=0)
    return _nearest(c, np.einsum("ij,ij->i", c, c), h)


@dataclass(frozen=True)
class HypergraphArtifacts:
    """Everything one hypergraph refresh over n nodes produces."""

    neighbors: np.ndarray  # (n, k-1), from build_hyperedges
    affinity: np.ndarray  # (n, k), the entries of H; self-loops merged in when used
    converged: np.ndarray  # (n,) bool, per-edge affinity solve met its tolerance
    selfloops: np.ndarray | None  # (n,) in [1, e]; None without self-loops
    relation: sp.csc_array  # H, (n, n) with k*n nonzeros
    compressed: np.ndarray  # (n, m'), rows of H after PCA
    clusters: np.ndarray  # (n, h) close-set indices


def build_artifacts(features: np.ndarray, predictions: np.ndarray, *, k: int,
                    alpha: float, h: int, m_prime: int | None, seed: int,
                    use_self_loops: bool = True) -> HypergraphArtifacts:
    """Full pipeline: hyperedges, self-loops, relation matrix, PCA, clusters."""
    n = np.asarray(features).shape[0]
    neighbors, affinity, converged = build_hyperedges(features, k, alpha)
    selfloops = None
    if use_self_loops:
        selfloops = self_loop_affinities(neighbors, predictions)
        affinity = merge_self_loops(neighbors, affinity, selfloops)
    relation = build_relation_matrix(neighbors, affinity)
    m_prime = default_m_prime(n) if m_prime is None else m_prime
    compressed = pca_rows(relation, m_prime, seed)[0]
    clusters = cluster_high_order(compressed, h)
    return HypergraphArtifacts(neighbors, affinity, converged, selfloops, relation,
                               compressed, clusters)
