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

All neighbor searches go through one kernel, _nearest. cosine_knn can
keep a NeighborCache between calls over a slowly changing set of rows and
then searches again only the rows a change can reach, with the full
search's result.

The merged affinities are the entries of the node-by-edge relation
matrix H, held as the array pair it is (RelationMatrix): members (n, k),
edge j's anchor then its neighbors, and values (n, k), their merged
affinities, so column j holds values[j] at rows members[j]. The rows of
H, compressed by PCA, define each node's high-order cluster; pca_rows
runs Lanczos with full reorthogonalization on the centred covariance
through H's two products, and stops when every top-m' Ritz pair's
residual bound is below PCA_TOL relative to the largest Ritz value, or
when the Krylov basis spans all n dimensions. A breakdown (an invariant
subspace) restarts from a fresh seeded vector. Only numpy is needed.
Every function here is pure, apart from filling the NeighborCache a
caller hands cosine_knn: no other input is modified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, seeded_rng

SOLVER_MAX_ITER = 10_000
SOLVER_ROUNDS = 8
SOLVER_CHUNK = 256
SECULAR_MAX_ITER = 50
SOLVER_STEP_TOL = 1e-8
SOLVER_KKT_TOL = 1e-6
PCA_TOL = 1e-8
PCA_BLOCK = 64
ACTIVE_TOL = 1e-10
NEIGHBOR_BLOCK = 64
COLUMN_TILE = 8


def _twins(points: np.ndarray) -> np.ndarray:
    """Each row's lowest-index bitwise-equal row: itself when it has no twin.

    Twins share their largest value, which max finds exactly, so only the
    rows whose largest value repeats are compared (zero rows mapped to
    ones, say); finding them takes about 0.05 ms at n = 600. Each is
    compared as one opaque value. Adding 0.0 maps -0.0 to 0.0, so rows that
    compare equal have equal bytes (NaN aside). np.unique over these
    compares bytes, not rows of floats: 0.09 against 0.48 ms for axis=0 at
    600 x 16, one thread; return_index and return_inverse keep it off its
    numpy.ma path.
    """
    key = points.max(axis=1) + 0.0
    order = np.argsort(key)
    same = key[order[1:]] == key[order[:-1]]
    maybe = np.zeros(points.shape[0], dtype=bool)
    maybe[order[1:][same]] = maybe[order[:-1][same]] = True
    maybe = np.flatnonzero(maybe)
    rows = np.ascontiguousarray(points[maybe] + 0.0)
    rows = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    twin = np.arange(points.shape[0])
    twin[maybe] = maybe[first[inverse]]
    return twin


def _products(points: np.ndarray, rows: np.ndarray):
    """Yield (row ids, those rows of points @ points.T), NEIGHBOR_BLOCK rows at a time.

    The rows (ascending) are gathered into blocks padded to exactly
    NEIGHBOR_BLOCK rows (repeating them): a row's products there are
    bitwise the same wherever it sits and whatever the other rows hold, so
    a subset gets the values the full search does. A block is never the
    whole matrix, which numpy would send to syrk, nor a single row (gemv).
    The columns are padded with zero rows to a multiple of COLUMN_TILE, and
    cut back: in a partial column tile, BLAS rounds a row differently with
    its place in the block.
    """
    n = points.shape[0]
    cols = points.T
    if n % COLUMN_TILE:
        cols = np.vstack((points, np.zeros((-n % COLUMN_TILE, points.shape[1])))).T
    for start in range(0, rows.size, NEIGHBOR_BLOCK):
        ids = rows[start:start + NEIGHBOR_BLOCK]
        yield ids, (points[np.resize(ids, NEIGHBOR_BLOCK)] @ cols)[:ids.size, :n]


def _nearest(points: np.ndarray, offset: np.ndarray, k: int, rows: np.ndarray | None = None,
             twin: np.ndarray | None = None, reach: np.ndarray | None = None) -> np.ndarray:
    """Indices of each row's k nearest other rows: the one neighbor search.

    The distance from row i to row j is offset[j] - 2 * points[i] . points[j];
    smaller is nearer. A zero offset ranks by inner product (cosine
    similarity for unit rows). The squared row norms rank by Euclidean
    distance, since each row's values differ from ||p_i - p_j||^2 by the
    constant ||p_i||^2; the rows must then be centred, or the form cancels
    digits in rows far from the origin. Self is excluded. Equal rows of
    points tie exactly: each duplicate column takes the distance of its
    lowest-index twin (twin, from _twins when not given). Ties resolve to
    the lower index. At most NEIGHBOR_BLOCK rows of distances are held at a
    time (_products), so memory is O(NEIGHBOR_BLOCK * n).

    rows (ascending) restricts the search to those rows; each row's result
    is bitwise the one the full search gives it. reach, when given, is
    lowered to each column's smallest distance from any of the rows.
    Returns an (n, k), or (len(rows), k), integer matrix ordered by
    increasing distance.

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
    twin = _twins(points) if twin is None else twin
    dup = np.flatnonzero(twin != np.arange(n))
    out = np.empty((n, k), dtype=np.int64)
    for ids, d in _products(points, np.arange(n) if rows is None else rows):
        # in place and bitwise equal to offset - 2.0 * (...); scaling points
        # instead is not
        d *= -2.0
        d += offset
        d[:, dup] = d[:, twin[dup]]
        here = np.arange(ids.size)
        d[here, ids] = np.inf
        if reach is not None:
            np.minimum(reach, d.min(axis=0), out=reach)
        for j in range(k):
            col = d.argmin(axis=1)
            # an overflowed distance could pick self or a column already taken
            if not np.isfinite(d[here, col]).all():
                raise ConfigError("neighbor distances overflow")
            out[ids, j] = col
            d[here, col] = np.inf
    return out if rows is None else out[rows]


@dataclass
class NeighborCache:
    """What cosine_knn last saw and found for one evolving set of rows.

    A copy of the features, the neighbors returned and each row's twin
    (_twins). Empty until the first call fills it; it belongs to one caller
    and is never saved.
    """

    features: np.ndarray | None = None
    neighbors: np.ndarray | None = None
    twin: np.ndarray | None = None


def cosine_knn(features: np.ndarray, k_minus_1: int,
               cache: NeighborCache | None = None) -> np.ndarray:
    """Each row's k-1 most cosine-similar other rows, by decreasing similarity.

    _nearest over the unit-norm rows with a zero offset; every row must have
    nonzero norm. With a cache, only what changed since the cache's last
    call is searched again: the rows whose features or twin differ (C; a
    duplicate column takes its twin's distances, so a new twin moves them),
    and every other row whose neighbors include a row of C or that some
    row of C now lies within its k-1-th distance of (plus a rounding
    margin, as that distance is read from C's side). The result is the
    full search's, bitwise. The full search runs instead when the cache is
    empty or of another shape, when more than n/4 rows changed, or when
    n <= NEIGHBOR_BLOCK.
    """
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    zero_rows = np.flatnonzero(norms == 0)
    if zero_rows.size:
        raise ConfigError(f"zero-norm feature row at index {zero_rows[0]}")
    unit = features / norms[:, None]
    n, offset = unit.shape[0], np.zeros(unit.shape[0])
    twin = _twins(unit)
    if cache is None:
        return _nearest(unit, offset, k_minus_1, twin=twin)
    rows = None
    if (cache.features is not None and cache.features.shape == features.shape
            and cache.neighbors.shape[1] == k_minus_1 and n > NEIGHBOR_BLOCK):
        rows = np.flatnonzero((features != cache.features).any(axis=1) | (twin != cache.twin))
        rows = rows if rows.size <= n // 4 else None
    if rows is None:
        cache.neighbors = _nearest(unit, offset, k_minus_1, twin=twin)
    elif rows.size:
        # each row's k-1-th distance, and each column's nearest row of C; both
        # may round i . j unlike row i's own search, by at most the margin
        kth = -2.0 * np.einsum("ij,ij->i", unit, unit[cache.neighbors[:, -1]])
        reach = np.full(n, np.inf)
        cache.neighbors[rows] = _nearest(unit, offset, k_minus_1, rows, twin, reach)
        margin = 8.0 * (unit.shape[1] + 2) * np.finfo(np.float64).eps
        in_c = np.zeros(n, dtype=bool)
        in_c[rows] = True
        again = np.flatnonzero((in_c[cache.neighbors].any(axis=1) | (reach <= kth + margin))
                               & ~in_c)
        cache.neighbors[again] = _nearest(unit, offset, k_minus_1, again, twin)
    cache.features, cache.twin = features.copy(), twin
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


def solve_affinity_batch(anchors: np.ndarray, neighbor_feats: np.ndarray,
                         alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve every anchor's constrained reconstruction problem at once.

    minimize ||sum_j a_j z_{i_j} - z_i||^2 + alpha*||a||_2  s.t. a >= 0

    Batched active-set rounds (_active_set) solve each instance exactly on
    a guessed support, the trust-region secular equation of More and
    Sorensen (1983) fixing the norm term's multiplier, and certify it by
    the KKT residual. Instances run in chunks of SOLVER_CHUNK. The few the
    rounds leave uncertified go to the FISTA fallback (_fista). Returns
    (coefficients (n, k-1), converged flags (n,)): a flag says the
    instance's solution met SOLVER_KKT_TOL. Never raises on
    non-convergence.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    neighbor_feats = np.asarray(neighbor_feats, dtype=np.float64)
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")

    gram = np.einsum("nij,nkj->nik", neighbor_feats, neighbor_feats)
    c = 2.0 * np.einsum("nij,nj->ni", neighbor_feats, anchors)
    a = np.zeros_like(c)
    converged = np.zeros(len(c), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(c), SOLVER_CHUNK):
            part = slice(start, start + SOLVER_CHUNK)
            a[part], converged[part] = _active_set(2.0 * gram[part], c[part], alpha)
    rest = np.flatnonzero(~converged)
    a[rest], converged[rest] = _fista(gram[rest], c[rest], alpha)
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


def _orthogonalize(blocks: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """w minus its projection on the orthonormal rows of blocks, block by block.

    A second pass runs when the first removed more than 30% of the norm,
    which leaves w orthogonal to working precision ("twice is enough").
    """
    before = np.linalg.norm(w)
    for _ in range(2):
        for block in blocks:
            w = w - (block @ w) @ block
        if np.linalg.norm(w) >= 0.7 * before:
            break
    return w


def pca_rows(H: RelationMatrix, m_prime: int,
             seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-m' principal components of the rows of H, by Lanczos.

    The covariance C = Xc^T Xc of the centred rows Xc = H - 1 mu^T is
    applied as H^T (H v) - n mu (mu . v), never formed. Lanczos builds an
    orthonormal Krylov basis of C from a seeded random start, each new
    vector reorthogonalized against the whole basis (_orthogonalize). The
    basis lives in row blocks of PCA_BLOCK vectors, so memory grows with
    the steps taken, never to n x n. From step 2m' on, every
    max(10, s // 8) steps, the s x s tridiagonal T is diagonalized; the
    run stops when the residual bound |beta_s S[s-1, i]| of each of the top
    m' Ritz pairs is at most PCA_TOL * theta_1, or when the basis spans all
    n dimensions. Both exits are exact. A breakdown (beta at most PCA_TOL
    times the largest coefficient so far: an invariant subspace, as with
    repeated eigenvalues) sets beta to 0 and restarts from a fresh vector
    of the same generator, orthogonalized against the basis. A non-finite
    coefficient raises FloatingPointError. Components come in decreasing
    Ritz-value order; each one's largest-magnitude coordinate is positive.
    Returns (compressed rows (n, m'), components (n, m'), eigenvalues >= 0).
    """
    n = len(H.members)
    if not 1 <= m_prime < n:
        raise ConfigError(f"need 1 <= m_prime < n, got m_prime={m_prime}, n={n}")
    mu = H.values.sum(axis=1) / n  # column means
    rng = seeded_rng(seed, 41)
    blocks, alphas, betas = [], [], [0.0]  # beta_0 = 0; T's off-diagonal is betas[1:-1]
    q, breakdown, largest, check = np.zeros(n), True, 0.0, 2 * m_prime
    for s in range(1, n + 1):
        if breakdown:  # the start, or an invariant subspace found
            w = _orthogonalize(blocks, rng.standard_normal(n))
        q_prev, q = q, w / np.linalg.norm(w)
        if (s - 1) % PCA_BLOCK == 0:
            blocks.append(np.zeros((PCA_BLOCK, n)))
        blocks[-1][(s - 1) % PCA_BLOCK] = q
        w = H.rmatvec(H.matvec(q)) - (n * (mu @ q)) * mu - betas[-1] * q_prev
        alphas.append(float(q @ w))
        w = _orthogonalize(blocks, w - alphas[-1] * q)
        beta = float(np.linalg.norm(w))
        if not np.isfinite(alphas[-1] + beta):
            raise FloatingPointError(f"non-finite Lanczos coefficient at step {s}")
        largest = max(largest, abs(alphas[-1]), beta)
        breakdown = beta <= PCA_TOL * largest
        betas.append(0.0 if breakdown else beta)
        if s >= check or s == n:
            # eigh reads the lower triangle only
            theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas[1:-1], -1))
            top = np.argsort(theta, kind="stable")[::-1][:m_prime]
            if s == n or (np.abs(betas[-1] * S[-1, top]) <= PCA_TOL * theta[top[0]]).all():
                break
            check = s + max(10, s // 8)

    ritz = np.vstack((S[:, top], np.zeros((-s % PCA_BLOCK, m_prime))))
    components = sum(b.T @ r for b, r in zip(blocks, np.split(ritz, len(blocks))))
    components *= np.sign(components[np.abs(components).argmax(axis=0), np.arange(m_prime)])
    compressed = np.column_stack([H.matvec(c) for c in components.T]) - mu @ components
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


@dataclass(frozen=True)
class HypergraphArtifacts:
    """Everything one hypergraph refresh over n nodes produces."""

    neighbors: np.ndarray  # (n, k-1), from build_hyperedges
    affinity: np.ndarray  # (n, k), the entries of H; self-loops merged in when used
    converged: np.ndarray  # (n,) bool, per-edge affinity solve met its tolerance
    selfloops: np.ndarray | None  # (n,) in [1, e]; None without self-loops
    relation: RelationMatrix  # H, (n, n) with k*n entries
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
