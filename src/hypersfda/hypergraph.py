"""Hypergraph construction over target samples, held as plain arrays.

Sample i anchors hyperedge i: itself (member 0) plus its k-1 nearest
neighbors by cosine similarity of adapter features. Over n samples:

- neighbors (n, k-1): edge i's neighbors by decreasing similarity.
- affinity (n, k): column 0 is the anchor's coefficient, exactly 1 before
  the self-loop merge; column 1 + j is neighbors[i, j]'s nonnegative
  weight in the norm-regularized least-squares reconstruction of the
  anchor feature, solved exactly on an active set and certified by its
  KKT residual, with FISTA as the fallback (solve_affinity_batch).
- selfloops (n,): exp of the normalized entropy of edge i's mean neighbor
  prediction, in [1, e]. The merge adds each member's own self-loop to
  its entry in every edge it belongs to. That merge is this repository's
  reading of the paper: PAPER.md holds only the abstract, so the paper's
  exact self-loop formula cannot be checked here.

A sample whose adapter activations are all zero has no direction: the
cosine search and the hyperedge build take the all-ones direction for
such a row (knn_safe_features), so callers pass features as the model
gave them. build_artifacts owns the refresh's modelling choices: the
high-order ablation's pairwise fallback, the self-loop merge and the m'
default, all read from the AdaptConfig.

All neighbor searches go through one kernel, _nearest. It writes each
block of NEIGHBOR_BLOCK rows of products into one reused buffer
(_products) and ranks by a score, largest first, that is bitwise the
negated distance. Equal rows tie exactly, the lower index first: the
padded blocks of _products round equal columns equally, a BLAS property
TestIncrementalKnn pins, and TestNearest and TestCosineKnn check the rule
against the twin-substituting oracle tests/helpers.ref_nearest. cosine_knn
can keep a NeighborCache
between calls over a slowly changing set of rows and then searches again
only the rows a change can reach, with the full search's result.

The merged affinities are the entries of the node-by-edge relation
matrix H, held as the array pair it is (RelationMatrix): members (n, k),
edge j's anchor then its neighbors, and values (n, k), their merged
affinities, so column j holds values[j] at rows members[j]. The rows of
H, compressed by PCA, define each node's high-order cluster; pca_rows
runs thick-restart Lanczos with full reorthogonalization on the centred
covariance through H's two products. Its basis is one array of at most
2m' + 16 vectors: when it is full and not converged, the top Ritz vectors
and the residual direction replace it. The run stops when every top-m'
Ritz pair's residual bound is below PCA_TOL relative to the largest Ritz
value, or, when n is within that size, once the basis spans all n
dimensions. A breakdown (an invariant subspace) continues from a fresh
seeded vector. Only numpy is needed.
Every function here is pure, apart from filling the NeighborCache a
caller hands cosine_knn: no other input is modified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AdaptConfig, ConfigError, seeded_rng

SOLVER_MAX_ITER = 10_000
SOLVER_ROUNDS = 8
SOLVER_CHUNK = 256
SECULAR_MAX_ITER = 50
SOLVER_STEP_TOL = 1e-8
SOLVER_KKT_TOL = 1e-6
PCA_TOL = 1e-8
ACTIVE_TOL = 1e-10
NEIGHBOR_BLOCK = 64
COLUMN_TILE = 8


def _products(points: np.ndarray, rows: np.ndarray):
    """Yield (row ids, those rows of points @ points.T), NEIGHBOR_BLOCK rows at a time.

    The rows (ascending) are gathered into blocks padded to exactly
    NEIGHBOR_BLOCK rows (repeating them): a row's products there are
    bitwise the same wherever it sits and whatever the other rows hold, so
    a subset gets the values the full search does. A block is never the
    whole matrix, which numpy would send to syrk, nor a single row (gemv).
    The columns are padded with zero rows to a multiple of COLUMN_TILE, and
    cut back: in a partial column tile, BLAS rounds a row differently with
    its place in the block. Every block is a view of one buffer, written
    in place by the next: a yielded block is valid until the next one, and
    a caller that keeps it must copy it.
    """
    n = points.shape[0]
    cols = points.T
    if n % COLUMN_TILE:
        cols = np.vstack((points, np.zeros((-n % COLUMN_TILE, points.shape[1])))).T
    block = np.empty((NEIGHBOR_BLOCK, cols.shape[1]))
    for start in range(0, rows.size, NEIGHBOR_BLOCK):
        ids = rows[start:start + NEIGHBOR_BLOCK]
        yield ids, np.matmul(points[np.resize(ids, NEIGHBOR_BLOCK)], cols, out=block)[:ids.size, :n]


def _nearest(points: np.ndarray, offset: np.ndarray | None, k: int,
             rows: np.ndarray | None = None, reach: np.ndarray | None = None) -> np.ndarray:
    """Indices of each row's k nearest other rows: the one neighbor search.

    The distance from row i to row j is offset[j] - 2 * points[i] . points[j];
    smaller is nearer. The squared row norms rank by Euclidean distance,
    since each row's values differ from ||p_i - p_j||^2 by the constant
    ||p_i||^2; the rows must then be centred, or the form cancels digits in
    rows far from the origin. offset None ranks by the inner product alone
    (cosine similarity for unit rows), as a zero offset does. Self is
    excluded. Ties resolve to the lower index, and equal rows of points tie
    exactly: _products rounds equal columns equally (checked against
    tests/helpers.ref_nearest, which copies each duplicate column from its
    lowest-index twin). At most NEIGHBOR_BLOCK rows of distances are held
    at a time, in one buffer (_products), so memory is O(NEIGHBOR_BLOCK * n).

    The search ranks by the score 2 * p_i . p_j - offset[j], largest first,
    formed in place as fl(fl(2x) - o). Doubling is exact and rounding to
    nearest is symmetric in sign, so each score is bitwise the negated
    distance fl(o - 2x), and the order and ties are the distances'. With
    offset None the score is p_i . p_j itself, which -2x orders exactly
    the same way, and no elementwise pass runs.

    rows (ascending) restricts the search to those rows; each row's result
    is bitwise the one the full search gives it. reach, when given, is
    raised to each column's largest score from any of the rows, self
    excluded. Returns an (n, k), or (len(rows), k), integer matrix ordered
    by increasing distance.

    Cost per row: O(n * d) for its scores and O(k * n) for k argmax passes,
    no sort. argmax returns the first maximum, so each pass takes the
    nearest remaining column, the lower index first on a tie. The passes
    beat an argpartition up to k of about 30 (64 x 3000 block, one thread,
    2-vCPU Xeon: 0.3 against 2.0 ms at k = 9, 2.3 against 1.0-2.4 ms at
    k = 64); the default and benchmark configurations use k - 1 <= 9 and
    h = 3. points and offset must be finite; an overflowed picked score
    raises.
    """
    n = points.shape[0]
    if not 1 <= k < n:
        raise ConfigError(f"need 1 <= k < n, got k={k}, n={n}")
    if not (np.isfinite(points).all() and (offset is None or np.isfinite(offset).all())):
        raise ConfigError("neighbor search needs finite points and offsets")
    out = np.empty((n, k), dtype=np.int64)
    picked = np.empty((NEIGHBOR_BLOCK, k))
    for ids, s in _products(points, np.arange(n) if rows is None else rows):
        if offset is not None:
            # in place and bitwise -(offset - 2.0 * (...)); scaling points
            # instead is not
            s *= 2.0
            s -= offset
        here = np.arange(ids.size)
        s[here, ids] = -np.inf
        if reach is not None:
            np.maximum(reach, s.max(axis=0), out=reach)
        for j in range(k):
            col = s.argmax(axis=1)
            out[ids, j] = col
            picked[:ids.size, j] = s[here, col]
            if j < k - 1:
                s[here, col] = -np.inf
        # an overflowed score could pick self or a column already taken
        if not np.isfinite(picked[:ids.size]).all():
            raise ConfigError("neighbor distances overflow")
    return out if rows is None else out[rows]


@dataclass
class NeighborCache:
    """What cosine_knn last saw and found for one evolving set of rows.

    A copy of the features and the neighbors returned. Empty until the
    first call fills it; it belongs to one caller and is never saved.
    """

    features: np.ndarray | None = None
    neighbors: np.ndarray | None = None


def knn_safe_features(z: np.ndarray) -> np.ndarray:
    """Map zero-norm rows to an all-ones direction so cosine is defined.

    A sample whose adapter activations are all clipped to zero has no
    direction; such rows (rare) are grouped on a fixed constant vector.
    """
    zero = np.einsum("ij,ij->i", z, z) == 0  # the zero test of the row norm, underflow too
    return np.where(zero[:, None], 1.0, z) if np.count_nonzero(zero) else z


def cosine_knn(features: np.ndarray, k_minus_1: int,
               cache: NeighborCache | None = None) -> np.ndarray:
    """Each row's k-1 most cosine-similar other rows, by decreasing similarity.

    _nearest over the unit-norm rows with no offset, ranking by similarity;
    a zero row takes the all-ones direction (knn_safe_features), so zero
    rows tie one another exactly. A matrix with no columns raises
    ConfigError. With a cache, only what changed since the cache's last
    call is searched again: the rows whose features differ (C), and every
    other row whose neighbors include a row of C or to which some row of C
    is now at least as similar as its k-1-th neighbor, less a margin of
    4 (d + 2) eps in similarity, as both are read from C's side, where
    i . j may round otherwise. The result is the full search's,
    bitwise, ties included: equal rows tie exactly, the lower index first
    (_nearest; TestCosineKnn and TestIncrementalKnn check both). The full
    search runs only with no cache, or with a cache that is empty or holds
    another shape or k-1.
    """
    features = knn_safe_features(np.asarray(features, dtype=np.float64))
    if features.shape[1] == 0:  # every row is zero, and no all-ones direction exists
        raise ConfigError("cosine neighbors need at least one feature column")
    unit = features / np.linalg.norm(features, axis=1)[:, None]
    n = unit.shape[0]
    if cache is None:
        return _nearest(unit, None, k_minus_1)
    if (cache.features is None or cache.features.shape != features.shape
            or cache.neighbors.shape[1] != k_minus_1):
        cache.neighbors = _nearest(unit, None, k_minus_1)
    elif (rows := np.flatnonzero((features != cache.features).any(axis=1))).size:
        # each row's k-1-th similarity, and each column's most similar row of
        # C; both may round i . j unlike row i's own search, by at most the margin
        kth = np.einsum("ij,ij->i", unit, unit[cache.neighbors[:, -1]])
        reach = np.full(n, -np.inf)
        cache.neighbors[rows] = _nearest(unit, None, k_minus_1, rows, reach)
        margin = 4.0 * (unit.shape[1] + 2) * np.finfo(np.float64).eps
        in_c = np.zeros(n, dtype=bool)
        in_c[rows] = True
        again = np.flatnonzero((in_c[cache.neighbors].any(axis=1) | (reach >= kth - margin))
                               & ~in_c)
        cache.neighbors[again] = _nearest(unit, None, k_minus_1, again)
    cache.features = features.copy()
    return cache.neighbors.copy()


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


def _fista(gram: np.ndarray, c: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The fallback solve: FISTA on the instances the active-set rounds left.

    Accelerated proximal gradient with per-instance gradient restart: a
    step on the smooth quadratic from the extrapolated point, then the exact
    proximal map of alpha*||.||_2 + nonnegativity (clip at zero, then shrink
    the norm by step*alpha, collapsing to exactly 0 when that is optimal).
    Acceleration keeps singular Gram matrices (k-1 > d_z) converging to the
    KKT tolerance. Step size 1/L with L twice the largest eigenvalue of the
    neighbor Gram matrix, computed exactly per instance. An instance
    converges when its step is below SOLVER_STEP_TOL and its KKT residual
    at most SOLVER_KKT_TOL; the residual is evaluated only once every step
    is below SOLVER_STEP_TOL, and on the last sweep. An instance whose Gram
    matrix or 2 * lambda_max overflows gets step 0 (eigvalsh sees only
    finite Gram matrices), so its first sweep is a fixed point (0, or NaN):
    such instances are left out of both tests, and the solve stops once
    every other instance has converged. gram and c are the instances' Gram
    matrices and linear terms. Returns (coefficients, converged flags).
    """
    n, k1 = c.shape
    # the smooth term's gradient is Lipschitz with constant 2 * lambda_max(gram)
    finite = np.isfinite(gram).all(axis=(1, 2))
    lam = np.full(n, np.inf)
    lam[finite] = np.linalg.eigvalsh(gram[finite])[:, -1]
    step = 1.0 / (2.0 * lam + 1e-12)
    frozen = step == 0.0

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
        if ((change < SOLVER_STEP_TOL) | frozen).all() or sweep == SOLVER_MAX_ITER - 1:
            grad = np.einsum("nij,nj->ni", gram, a) * 2.0 - c
            converged = (change < SOLVER_STEP_TOL) & (
                _batch_kkt_residual(a, grad, alpha) <= SOLVER_KKT_TOL)
            if (converged | frozen).all():
                break
    return a, converged


def _secular(lam: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Per row, the mu > 0 with mu * ||b / (lam + mu)|| = alpha; inf without one.

    lam >= 0 and b are one instance's eigenvalues and rotated right-hand
    side; alpha > 0. A root exists when ||b|| > alpha. Newton runs on
    1/||b / (lam + mu)|| - mu/alpha, which is concave and falls through its
    only root, from the upper bound alpha * lam_max / (||b|| - alpha): each
    step then lands between the root and the last iterate, so mu descends
    to the root, and a row stops when a step no longer moves it.
    """
    norm = np.linalg.norm(b, axis=1)
    live = norm > alpha
    mu = alpha * lam[:, -1] / np.where(live, norm - alpha, 1.0)
    for _ in range(SECULAR_MAX_ITER):
        w2 = (b / (lam + mu[:, None])) ** 2
        s = w2.sum(axis=1)
        step = (1.0 / np.sqrt(s) - mu / alpha) / (
            (w2 / (lam + mu[:, None])).sum(axis=1) / s**1.5 - 1.0 / alpha)
        moved = live & (step > 4.0 * np.finfo(np.float64).eps * mu)
        if not moved.any():
            break
        mu = np.where(moved, mu - step, mu)
    return np.where(live, mu, np.inf)


def _active_set(gram2: np.ndarray, c: np.ndarray,
                alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact solves on a guessed support, certified by the KKT residual.

    gram2 is twice the Gram matrices and c the linear terms of a chunk of
    instances. On a support S the optimum is a_S = (gram2_SS + mu I)^-1 c_S
    with mu = alpha/||a_S||: one eigh of gram2 on S x S and the identity off
    it (c is 0 off S), then a secular equation for mu (_secular). a = 0 is optimal
    exactly when ||max(0, c)|| <= alpha. A round certifies each finite
    solution positive on S whose KKT residual is within SOLVER_KKT_TOL;
    the rest move to S's positive part plus the coordinates whose gradient
    is below -SOLVER_KKT_TOL. The first round takes S = all. Returns
    (coefficients, certified flags) after at most SOLVER_ROUNDS rounds.
    """
    a = np.zeros_like(c)
    certified = np.zeros(len(c), dtype=bool)
    support = np.ones(c.shape, dtype=bool)
    ball = np.linalg.norm(np.maximum(c, 0.0), axis=1) <= alpha
    # eigh raises on a Gram matrix whose double overflows; such rows go to the fallback
    rows = np.flatnonzero(np.isfinite(gram2).all(axis=(1, 2)) & np.isfinite(c).all(axis=1))
    for _ in range(SOLVER_ROUNDS):
        if not rows.size:
            break
        s = support[rows]
        lam, vecs = np.linalg.eigh(np.where(s[:, :, None] & s[:, None, :], gram2[rows],
                                            np.eye(c.shape[1])))
        lam = np.maximum(lam, 0.0)  # gram2 is positive semidefinite
        b = np.einsum("nji,nj->ni", vecs, np.where(s, c[rows], 0.0))
        denom = lam + (_secular(lam, b, alpha)[:, None] if alpha > 0 else 0.0)
        # a pseudo-inverse when alpha = 0 and the Gram matrix is singular
        tiny = denom <= c.shape[1] * np.finfo(float).eps * lam[:, -1:]
        x = np.einsum("nij,nj->ni", vecs, np.where(tiny, 0.0, b / np.where(tiny, 1.0, denom)))
        x = np.where(s & ~ball[rows, None], x, 0.0)
        grad = np.einsum("nij,nj->ni", gram2[rows], x) - c[rows]
        ok = (np.isfinite(x).all(axis=1) & (ball[rows] | ((x > ACTIVE_TOL) | ~s).all(axis=1))
              & (_batch_kkt_residual(x, grad, alpha) <= SOLVER_KKT_TOL))
        a[rows[ok]] = x[ok]
        certified[rows[ok]] = True
        support[rows] = (s & (x > ACTIVE_TOL)) | (~s & (grad < -SOLVER_KKT_TOL))
        rows = rows[~ok & np.isfinite(x).all(axis=1)]
    return a, certified


def solve_affinity_batch(features: np.ndarray, neighbors: np.ndarray,
                         alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve every anchor's constrained reconstruction problem at once.

    minimize ||sum_j a_j z_{i_j} - z_i||^2 + alpha*||a||_2  s.t. a >= 0

    Instance i reconstructs z_i = features[i] from the rows
    features[neighbors[i]], for each of the n = len(neighbors) rows of the
    (n, k-1) index matrix. Batched active-set rounds (_active_set) solve
    each instance exactly on a guessed support, the trust-region secular
    equation of More and Sorensen (1983) fixing the norm term's multiplier,
    and certify it by the KKT residual. Instances run in chunks of
    SOLVER_CHUNK, each gathering only its own neighbor rows, so no
    (n, k-1, d) copy of the features exists. The few the rounds leave
    uncertified go to the FISTA fallback (_fista). Returns (coefficients
    (n, k-1), converged flags (n,)): a flag says the instance's solution
    met SOLVER_KKT_TOL. Never raises on non-convergence.
    """
    features = np.asarray(features, dtype=np.float64)
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")

    n, k1 = neighbors.shape
    anchors = features[:n]
    gram, c = np.empty((n, k1, k1)), np.empty((n, k1))
    a = np.zeros_like(c)
    converged = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, SOLVER_CHUNK):
            part = slice(start, start + SOLVER_CHUNK)
            gathered = features[neighbors[part]]
            gram[part] = np.einsum("nij,nkj->nik", gathered, gathered)
            c[part] = 2.0 * np.einsum("nij,nj->ni", gathered, anchors[part])
            a[part], converged[part] = _active_set(2.0 * gram[part], c[part], alpha)
    rest = np.flatnonzero(~converged)
    a[rest], converged[rest] = _fista(gram[rest], c[rest], alpha)
    return a, converged


def build_hyperedges(features: np.ndarray, k: int,
                     alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One hyperedge per node: itself plus its k-1 cosine neighbors.

    A zero row takes the all-ones direction (knn_safe_features) in both the
    neighbor search and the affinity solve. Returns (neighbors (n, k-1),
    affinity (n, k), converged (n,)): column 0 of affinity is the anchor's
    coefficient, exactly 1, and converged says whether each edge's affinity
    solve met its tolerance.
    """
    features = knn_safe_features(np.asarray(features, dtype=np.float64))
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
    coeffs, converged = solve_affinity_batch(features, neighbors, alpha)
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


@dataclass(frozen=True)
class RelationMatrix:
    """The n x n relation matrix H: column j holds values[j] at rows members[j].

    Each column's rows are distinct. H is never held dense: its two
    products cost O(n k) each, a scatter (bincount) and a gather.
    """

    members: np.ndarray  # (n, k) rows of column j: anchor j, then its neighbors
    values: np.ndarray  # (n, k) the entries of column j at those rows

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H @ v for one vector v."""
        return np.bincount(self.members.ravel(), (self.values * v[:, None]).ravel(), len(v))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """H.T @ y for one vector y."""
        return np.einsum("jk,jk->j", self.values, y[self.members])


def build_relation_matrix(neighbors: np.ndarray, affinity: np.ndarray) -> RelationMatrix:
    """H over n nodes: column j holds edge j's affinities at its members."""
    return RelationMatrix(_members(neighbors), affinity)


def pca_rows(H: RelationMatrix, m_prime: int,
             seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-m' principal components of the rows of H, by thick-restart Lanczos.

    The covariance C = Xc^T Xc of the centred rows Xc = H - 1 mu^T is
    applied as H^T (H v) - n mu (mu . v), never formed. Lanczos builds an
    orthonormal Krylov basis of C from a seeded random start. Each product
    C q_j is orthogonalized against the last two basis vectors, then
    against the whole basis by classical Gram-Schmidt, with a second pass
    when the first removed more than 30% of the norm, which leaves it
    orthogonal to working precision ("twice is enough"). The basis is one
    preallocated array of cap = min(n, 2m' + 16) rows, so memory does not
    grow with the steps. The projected matrix T is
    held explicitly: column j holds the coefficients of C q_j on the basis,
    and beta_j, the norm of what is left, on the next row. Each time the
    basis is full, T is diagonalized; the run stops when the residual
    bound |beta S[last, i]| of each of the top m' Ritz pairs is at most
    PCA_TOL * theta_1, or when the basis spans all n dimensions (only
    possible when n <= cap). Both exits are exact. Otherwise the run
    restarts thick (Wu & Simon, 2000): the top (m' + cap) // 2 + 4 Ritz
    vectors replace the basis, T becomes their Ritz values bordered by the
    arrowhead row beta S[last, kept], and the residual direction is the
    next basis vector. A breakdown (beta at most PCA_TOL times the largest
    coefficient so far: an invariant subspace, as with repeated
    eigenvalues) sets beta to 0 and takes as the next vector a fresh one of
    the same generator, orthogonalized against the basis. A non-finite
    coefficient raises FloatingPointError. Components come in decreasing
    Ritz-value order; each one's largest-magnitude coordinate is positive.
    Returns (compressed rows (n, m'), components (n, m'), eigenvalues >= 0).
    """
    n = len(H.members)
    if not 1 <= m_prime < n:
        raise ConfigError(f"need 1 <= m_prime < n, got m_prime={m_prime}, n={n}")
    mu = H.values.sum(axis=1) / n  # column means
    rng = seeded_rng(seed, 41)
    cap = min(n, 2 * m_prime + 16)
    keep = (m_prime + cap) // 2 + 4
    Q, T = np.empty((cap, n)), np.zeros((cap + 1, cap))
    w, s, breakdown, largest = rng.standard_normal(n), 0, True, 0.0
    while True:
        # the last two vectors first: a product then needs one full pass as a rule
        h = np.zeros(s)
        h[-2:] = Q[max(s - 2, 0):s] @ w
        w = w - h[-2:] @ Q[max(s - 2, 0):s]
        for _ in range(2):  # a second pass only when the first removed over 30% of the norm
            c, before = Q[:s] @ w, np.linalg.norm(w)
            w, h = w - c @ Q[:s], h + c
            beta = float(np.linalg.norm(w))
            if beta >= 0.7 * before:
                break
        if not breakdown:  # w was C q_{s-1}, not a fresh vector
            T[:s, s - 1] = h
            if not np.isfinite(h[-1] + beta):
                raise FloatingPointError(f"non-finite Lanczos coefficient at basis size {s}")
            largest = max(largest, abs(h[-1]), beta)
            breakdown = beta <= PCA_TOL * largest
            T[s, s - 1] = 0.0 if breakdown else beta
            if s == cap:
                theta, S = np.linalg.eigh(T[:s, :s])  # reads the lower triangle only
                order = np.argsort(theta, kind="stable")[::-1]
                top, kept = order[:m_prime], order[:keep]
                if s == n or (np.abs(T[s, s - 1] * S[-1, top]) <= PCA_TOL * theta[top[0]]).all():
                    break
                for c0 in range(0, n, cap):  # in place, cap columns at a time
                    Q[:keep, c0:c0 + cap] = S[:, kept].T @ Q[:, c0:c0 + cap]
                T, arrow = np.zeros_like(T), T[s, s - 1] * S[-1, kept]
                T[:keep + 1, :keep] = np.vstack((np.diag(theta[kept]), arrow))
                s = keep
            if breakdown:
                w = rng.standard_normal(n)
                continue
        Q[s] = w / beta
        w = H.rmatvec(H.matvec(Q[s])) - (n * (mu @ Q[s])) * mu
        s, breakdown = s + 1, False

    components = Q.T @ S[:, top]
    del Q
    components *= np.sign(components[np.abs(components).argmax(axis=0), np.arange(m_prime)])
    compressed = np.empty((n, m_prime))
    for j in range(m_prime):
        compressed[:, j] = H.matvec(components[:, j])
    compressed -= mu @ components
    return compressed, components, np.maximum(theta[top], 0.0)


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


def build_artifacts(features: np.ndarray, predictions: np.ndarray,
                    cfg: AdaptConfig) -> np.ndarray:
    """The refresh's (n, h) close sets from adapter features and predictions.

    With cfg.high_order, the full pipeline: hyperedges, self-loops (merged
    only with cfg.use_self_loops), relation matrix, PCA to cfg.m_prime
    components (default_m_prime when None), and cluster_high_order. Without
    it, the pairwise arm: each row's cfg.h cosine neighbors. A caller that
    needs an intermediate array calls the stages itself.
    """
    if not cfg.high_order:
        return cosine_knn(features, cfg.h)
    neighbors, affinity, _ = build_hyperedges(features, cfg.k, cfg.alpha)
    if cfg.use_self_loops:
        selfloops = self_loop_affinities(neighbors, predictions)
        affinity = merge_self_loops(neighbors, affinity, selfloops)
    relation = build_relation_matrix(neighbors, affinity)
    m_prime = default_m_prime(len(neighbors)) if cfg.m_prime is None else cfg.m_prime
    return cluster_high_order(pca_rows(relation, m_prime, cfg.seed)[0], cfg.h)
