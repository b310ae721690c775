import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from hypersfda import (
    ConfigError,
    RelationMatrix,
    build_artifacts,
    build_hyperedges,
    build_relation_matrix,
    cluster_high_order,
    cosine_knn,
    merge_self_loops,
    normalized_entropy,
    self_loop_affinities,
)
from hypersfda import hypergraph
from hypersfda.hypergraph import (
    COLUMN_TILE,
    NEIGHBOR_BLOCK,
    NeighborCache,
    SOLVER_KKT_TOL,
    SOLVER_MAX_ITER,
    _nearest,
    default_m_prime,
    pca_rows,
    solve_affinity_batch,
)
from hypersfda.trainer import knn_safe_features

from helpers import (
    dense_relation,
    make_nnls_instance,
    nnls_objective,
    ref_cosine_knn,
    ref_exhaustive_affinity,
    ref_kkt_residual,
    ref_nearest,
    ref_nnls_longrun,
    ref_normalized_entropy,
    ref_pipeline,
    ref_solve_affinity_batch,
    rng_for,
    solve_instances,
    to_dense,
)


def traced_peak(search):
    """The tracemalloc peak, in bytes, of one call of search()."""
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_edge_invariants(neighbors, affinity, k):
    """Degree k, anchor outside its neighbors, k distinct members, affinities >= 0."""
    n = neighbors.shape[0]
    assert neighbors.shape == (n, k - 1) and affinity.shape == (n, k)
    members = np.column_stack((np.arange(n), neighbors))
    assert (neighbors != np.arange(n)[:, None]).all()
    assert (np.diff(np.sort(members, axis=1), axis=1) > 0).all()
    assert np.isfinite(affinity).all() and (affinity >= 0).all()


class TestCosineKnn:
    def test_hand_case(self):
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]])
        idx = cosine_knn(feats, 2)
        assert idx[0].tolist() == [1, 2]
        assert idx[3].tolist() == [2, 1]

    def test_excludes_self(self):
        feats = rng_for(0).standard_normal((20, 4))
        idx = cosine_knn(feats, 5)
        for i in range(20):
            assert i not in idx[i]

    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 50))
    def test_scale_invariance(self, scale, seed):
        feats = rng_for(seed).standard_normal((15, 3)) + 2.0
        assert np.array_equal(cosine_knn(feats, 4), cosine_knn(scale * feats, 4))

    def test_duplicate_direction_ties_to_lower_index(self):
        feats = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        idx = cosine_knn(feats, 2)
        assert idx[0].tolist() == [1, 2]
        # a copied row must tie its original exactly, not by BLAS rounding
        feats = np.random.default_rng(0).standard_normal((100, 16))
        feats[99] = feats[0]
        assert np.array_equal(cosine_knn(feats, 5), ref_cosine_knn(feats, 5))
        # zero rows mapped to ones, the usual source of equal rows, in
        # several blocks and column tiles
        for n, d in [(100, 16), (301, 6), (600, 16)]:
            rng = rng_for(104, n, d)
            feats = rng.standard_normal((n, d))
            feats[rng.choice(n, max(4, n // 50), replace=False)] = 0.0
            feats = knn_safe_features(feats)
            assert np.array_equal(cosine_knn(feats, 5), ref_cosine_knn(feats, 5)), (n, d)

    def test_memory_is_blockwise(self):
        rng = rng_for(419)
        feats, comp = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 64))
        for search in (lambda: cosine_knn(feats, 5), lambda: cluster_high_order(comp, 3)):
            assert traced_peak(search) < 16e6  # one n x n float64 matrix alone is 32 MB

    def test_search_holds_one_distance_block(self):
        # one reused block plus the unit (d = 16) or centred (d = 64) rows;
        # a second live block would pass either bound
        rng = rng_for(419)
        feats, comp = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 64))
        block = NEIGHBOR_BLOCK * 2000 * 8
        assert traced_peak(lambda: cosine_knn(feats, 5)) < 2 * block
        assert traced_peak(lambda: cluster_high_order(comp, 3)) < 2.5 * block

    def test_zero_norm_row_names_index(self):
        feats = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError, match="index 1"):
            cosine_knn(feats, 1)

    def test_bounds(self):
        feats = np.ones((4, 2)) + rng_for(1).standard_normal((4, 2)) * 0.1
        with pytest.raises(ConfigError):
            cosine_knn(feats, 0)
        with pytest.raises(ConfigError):
            cosine_knn(feats, 4)


class TestIncrementalKnn:
    @pytest.mark.parametrize("n", [100, 129, 301, 600, 1000])
    @pytest.mark.parametrize("d", [6, 16, 128])
    def test_gathered_rows_equal_the_block_rows_bitwise(self, n, d):
        # the BLAS behaviour exactness rests on: a row's products from a
        # block gathered and padded to NEIGHBOR_BLOCK rows are bitwise the
        # same wherever it sits and whatever the other rows are; in whole
        # blocks they equal those of the contiguous 64-row blocks. At
        # n = 129 the last block is one row, which numpy would send to gemv;
        # n = 129 and 301 leave a partial column tile, which _products pads.
        # Copies of a row give product columns bitwise equal to its own,
        # which is what makes equal rows tie exactly in _nearest.
        rng = rng_for(421, n, d)
        points = rng.standard_normal((n, d))
        points /= np.linalg.norm(points, axis=1)[:, None]
        copies = rng.choice(n, (2, max(3, n // 20)), replace=False)
        points[copies[1]] = points[copies[0]]
        # blocks share one buffer, so each one kept is copied
        full = np.vstack([block.copy() for _, block in hypergraph._products(points, np.arange(n))])
        assert full[:, copies[1]].tobytes() == full[:, copies[0]].tobytes()
        cols = np.vstack((points, np.zeros((-n % COLUMN_TILE, d)))).T
        whole = n - n % NEIGHBOR_BLOCK
        contiguous = [(points[start:start + NEIGHBOR_BLOCK] @ cols)[:, :n]
                      for start in range(0, whole, NEIGHBOR_BLOCK)]
        assert np.vstack(contiguous).tobytes() == full[:whole].tobytes()
        for size in [1, 2, *rng.integers(3, NEIGHBOR_BLOCK + 1, 6), 2 * NEIGHBOR_BLOCK + 5]:
            rows = np.sort(rng.choice(n, min(size, n), replace=False))
            got = [(ids, block.copy()) for ids, block in hypergraph._products(points, rows)]
            assert np.array_equal(np.concatenate([ids for ids, _ in got]), rows)
            assert np.vstack([block for _, block in got]).tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("case", range(12))
    def test_cached_search_matches_full_search(self, monkeypatch, case):
        subsets = []
        nearest = hypergraph._nearest

        def counting(points, offset, k, rows=None, reach=None):
            subsets.append(rows is not None)
            return nearest(points, offset, k, rows, reach)

        monkeypatch.setattr(hypergraph, "_nearest", counting)
        rng = rng_for(422, case)
        n = int((40, 64, 65, 130, 301, 600)[case % 6])
        lattice = case % 3 == 0  # many exact ties
        d = int(rng.choice([6, 16] if lattice else [2, 6, 16]))
        k = n - 1 if case % 4 == 3 and n < 600 else int(rng.integers(1, 6))

        def draw(m):
            if lattice:
                return rng.integers(-1, 2, (m, d)).astype(float)
            return rng.standard_normal((m, d))

        feats = knn_safe_features(draw(n))
        cache = NeighborCache()
        for step in range(25):
            m = min(n, int(rng.choice([1, 1, 3, 16, NEIGHBOR_BLOCK, n // 4, n // 4 + 1, n])))
            rows = rng.choice(n, m, replace=False)
            feats = feats.copy()
            feats[rows] = draw(m)
            if step % 5 == 2:  # copies of other rows, and zero rows mapped to ones
                feats[rows[:m // 2 + 1]] = feats[rng.integers(0, n)]
            if step % 5 == 4:
                feats[rows[:2]] = 0.0
            feats = knn_safe_features(feats)
            subsets.clear()
            got = cosine_knn(feats, k, cache)
            # once the cache is filled, whatever n and however many rows
            # changed, only subsets are searched
            assert step == 0 or (subsets and all(subsets)), step
            assert np.array_equal(got, cosine_knn(feats, k)), step


class TestNearest:
    def test_matches_full_sort_reference(self):
        rng = rng_for(431)
        for case in range(48):
            # one block, or several
            n = int(rng.integers(5, NEIGHBOR_BLOCK + 1) if case % 2 else rng.integers(130, 260))
            d = int(rng.integers(1, 9))
            if case % 3 == 0:  # lattice values: many exact ties at the k-th distance
                points = rng.integers(-2, 3, size=(n, d)).astype(float)
            else:
                points = rng.standard_normal((n, d))
                if case % 3 == 1:  # copied rows
                    rows = rng.integers(0, n, size=(2, n // 4))
                    points[rows[0]] = points[rows[1]]
            if case % 4 < 2:
                offset = np.zeros(n)
            else:
                points = points - points.mean(axis=0)
                offset = np.einsum("ij,ij->i", points, points)
            for k in (1, n - 1, int(rng.integers(1, n))):
                got = _nearest(points, offset, k)
                assert np.array_equal(got, ref_nearest(points, offset, k, NEIGHBOR_BLOCK))

    def test_boundary_tie_goes_to_lower_index(self):
        # row 0's distances are the first coordinates of the others:
        # 0, 1, 1, 0, 2. The 3rd and 4th smallest tie at 1, and the lower
        # index, row 2, must take the last place; a partial top-k that only
        # picks a set can hand it to row 3.
        points = np.array([[-0.5, 0.0], [0.0, 1.0], [1.0, 2.0], [1.0, 3.0],
                           [0.0, 4.0], [2.0, 5.0]])
        assert _nearest(points, np.zeros(6), 3)[0].tolist() == [1, 4, 2]

    def test_all_rows_identical(self):
        # every distance ties, so each row takes the k lowest other indices
        n, k = 2 * NEIGHBOR_BLOCK + 3, 5
        got = _nearest(np.ones((n, 3)), np.zeros(n), k)
        for i in range(n):
            assert got[i].tolist() == [j for j in range(n) if j != i][:k]

    @pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "orthogonal"])
    def test_similarity_ranking_and_reach(self, lattice):
        # products here are exact (small integers, or sums of +-0 and +-1
        # terms), so a plain loop gives each column maximum bitwise, up to
        # the sign of a zero; both kinds are full of ties
        rng = rng_for(432, int(lattice))
        n = 2 * NEIGHBOR_BLOCK + 7
        if lattice:
            points = rng.integers(-2, 3, size=(n, 4)).astype(float)
        else:  # +-e_i; -1.0 * e_i holds -0.0, so some products are -0.0
            points = np.eye(6)[rng.integers(0, 6, n)] * rng.choice([-1.0, 1.0], (n, 1))
        for rows in (None, np.sort(rng.choice(n, 40, replace=False))):
            searched = np.arange(n) if rows is None else rows
            want = np.full(n, -np.inf)
            for j in range(n):
                for i in searched:
                    if i != j:
                        want[j] = max(want[j], float(points[i] @ points[j]))
            for k in (1, 5, n - 1):
                reach = np.full(n, -np.inf)
                got = _nearest(points, None, k, rows, reach)
                assert np.array_equal(got, _nearest(points, np.zeros(n), k, rows))
                assert np.array_equal(got, ref_nearest(points, np.zeros(n), k,
                                                       NEIGHBOR_BLOCK)[searched])
                assert np.array_equal(reach, want)

    def test_overflowing_distances_rejected(self):
        points = np.array([[1e200], [-1e200], [5e199], [-3e199], [2e199]])
        for offset in (np.zeros(5), None):
            with np.errstate(over="ignore"), pytest.raises(ConfigError, match="overflow"):
                _nearest(points, offset, 3)

    def test_nonfinite_input_rejected(self):
        feats = rng_for(2).standard_normal((10, 3))
        feats[4, 1] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            cosine_knn(feats, 3)
        comp = rng_for(3).standard_normal((10, 3))
        comp[7, 0] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            cluster_high_order(comp, 3)
        offset = np.zeros(10)
        offset[5] = np.inf
        with pytest.raises(ConfigError, match="finite"):
            _nearest(comp[:, :2], offset, 3)



class TestAffinitySolver:
    def test_nonnegativity_exact_and_kkt(self):
        for index in range(40):
            rng = rng_for(300, index)
            k1 = int(rng.integers(1, 9))
            dz = int(rng.integers(2, 12))
            alpha = (0.0, 2.0, 10.0)[index % 3]
            neighbors = rng.standard_normal((k1, dz))
            anchor = rng.standard_normal(dz)
            (a,), (converged,) = solve_instances(anchor[None], neighbors[None], alpha)
            assert (a >= 0.0).all()
            assert converged
            assert ref_kkt_residual(a, anchor, neighbors, alpha) <= 1e-6

    def test_alpha_zero_matches_scipy_nnls(self):
        for seed in range(10):
            rng = rng_for(301, seed)
            neighbors = rng.standard_normal((5, 8))
            anchor = rng.standard_normal(8)
            (a,), _ = solve_instances(anchor[None], neighbors[None], 0.0)
            ref, rnorm = scipy.optimize.nnls(neighbors.T, anchor)
            mine = nnls_objective(a, anchor, neighbors, 0.0)
            assert mine <= rnorm**2 + 1e-9
            assert abs(mine - rnorm**2) < 1e-6

    def test_matches_longrun_reference(self):
        for seed in range(6):
            rng = rng_for(302, seed)
            neighbors = rng.standard_normal((4, 6))
            anchor = 0.7 * neighbors[0] + 0.2 * neighbors[2] + 0.05 * rng.standard_normal(6)
            for alpha in (0.0, 2.0, 10.0):
                (a,), _ = solve_instances(anchor[None], neighbors[None], alpha)
                _, ref_obj = ref_nnls_longrun(anchor, neighbors, alpha)
                mine = nnls_objective(a, anchor, neighbors, alpha)
                assert mine <= ref_obj + 1e-6

    def test_huge_alpha_collapses_to_zero(self):
        rng = rng_for(303)
        neighbors = rng.standard_normal((4, 5))
        anchor = 0.1 * neighbors[1]
        (a,), (converged,) = solve_instances(anchor[None], neighbors[None], 1e6)
        assert converged and np.array_equal(a, np.zeros(4))

    def test_exact_reconstruction_when_anchor_in_span(self):
        rng = rng_for(304)
        neighbors = rng.standard_normal((3, 7))
        anchor = 1.5 * neighbors[0] + 0.5 * neighbors[2]
        (a,), _ = solve_instances(anchor[None], neighbors[None], 0.0)
        assert np.abs(a - [1.5, 0.0, 0.5]).max() < 1e-5

    @pytest.mark.parametrize("max_iter", [SOLVER_MAX_ITER, 1, 3])
    def test_matches_every_sweep_reference_bitwise(self, monkeypatch, max_iter):
        # the FISTA fallback, which takes every instance when no active-set
        # round runs. It skips the residual on sweeps where some step has
        # not stalled; coefficients and flags must not notice, including
        # when starved. Scaled-up features make steps stall before the
        # residual is met.
        monkeypatch.setattr(hypergraph, "SOLVER_ROUNDS", 0)
        monkeypatch.setattr(hypergraph, "SOLVER_MAX_ITER", max_iter)
        flags = []
        for index in range(24):
            rng = rng_for(305, index)
            n, k1, dz = 12, int(rng.integers(1, 10)), int(rng.integers(2, 21))
            scale = (1.0, 10.0)[index // 12]
            neighbors = rng.standard_normal((n, k1, dz)) * scale
            anchors = rng.standard_normal((n, dz)) * scale
            if index % 2:
                anchors = np.einsum("nk,nkd->nd", rng.uniform(0, 1.5, (n, k1)), neighbors)
            alpha = (0.0, 2.0, 10.0)[index % 3]
            a, converged = solve_instances(anchors, neighbors, alpha)
            ref_a, ref_converged = ref_solve_affinity_batch(anchors, neighbors, alpha, max_iter)
            assert a.tobytes() == ref_a.tobytes()
            assert np.array_equal(converged, ref_converged)
            flags.append(converged)
        flags = np.concatenate(flags)
        if max_iter == SOLVER_MAX_ITER:
            assert flags.all()
        else:
            assert not flags.all()

    def test_chunks_gather_the_same_rows(self, monkeypatch):
        # each SOLVER_CHUNK of instances gathers its own neighbor rows of the
        # shared feature matrix; the chunking must not move a bit
        features = rng_for(310).standard_normal((50, 6))
        neighbors = cosine_knn(features, 5)
        whole = solve_affinity_batch(features, neighbors, 2.0)
        monkeypatch.setattr(hypergraph, "SOLVER_CHUNK", 7)
        chunked = solve_affinity_batch(features, neighbors, 2.0)
        assert whole[0].tobytes() == chunked[0].tobytes()
        assert np.array_equal(whole[1], chunked[1]) and whole[1].all()
        own = solve_instances(features, features[neighbors], 2.0)
        assert whole[0].tobytes() == own[0].tobytes()

    def test_rejects_negative_alpha(self):
        with pytest.raises(ConfigError):
            solve_instances(np.ones((1, 3)), np.ones((1, 2, 3)), -1.0)


def active_set(anchors, neighbors, alpha):
    """The active-set rounds alone on a batch: (coefficients, certified flags)."""
    gram = np.einsum("nij,nkj->nik", neighbors, neighbors)
    c = 2.0 * np.einsum("nij,nj->ni", neighbors, anchors)
    return hypergraph._active_set(2.0 * gram, c, alpha)


class TestActiveSetSolver:
    def test_certifies_every_reference_instance(self):
        for index in range(200):
            anchor, neighbors, alpha = make_nnls_instance(index)
            (a,), (certified,) = active_set(anchor[None], neighbors[None], alpha)
            assert certified, index
            (solved,), _ = solve_instances(anchor[None], neighbors[None], alpha)
            assert a.tobytes() == solved.tobytes()
            assert ref_kkt_residual(a, anchor, neighbors, alpha) <= SOLVER_KKT_TOL

    def test_matches_exhaustive_support_oracle(self):
        checked = 0
        for index in range(200):
            anchor, neighbors, alpha = make_nnls_instance(index)
            if not neighbors.shape[0] <= min(6, neighbors.shape[1]):
                continue  # the oracle's Gram matrices must be nonsingular
            (a,), _ = solve_instances(anchor[None], neighbors[None], alpha)
            ref = ref_exhaustive_affinity(anchor, neighbors, alpha)
            assert np.abs(a - ref).max() <= 1e-10, index
            checked += 1
        assert checked >= 50

    def test_singular_gram_at_alpha_zero(self):
        # k - 1 = 8 neighbors in 3 dimensions: many optima, one objective
        for seed in range(10):
            rng = rng_for(306, seed)
            neighbors = rng.standard_normal((8, 3))
            anchor = rng.standard_normal(3)
            (a,), (certified,) = active_set(anchor[None], neighbors[None], 0.0)
            assert certified and (a >= 0).all()
            assert ref_kkt_residual(a, anchor, neighbors, 0.0) <= SOLVER_KKT_TOL
            _, rnorm = scipy.optimize.nnls(neighbors.T, anchor)
            assert abs(nnls_objective(a, anchor, neighbors, 0.0) - rnorm**2) <= 1e-9

    def test_zero_optimum_is_exact(self):
        # ||max(0, c)|| <= alpha: the ball condition makes a = 0 optimal
        rng = rng_for(307)
        neighbors = rng.standard_normal((5, 6))
        for alpha in (2.0 * np.linalg.norm(np.maximum(neighbors @ -neighbors[0], 0)) + 1e-3,
                      1e6):
            anchor = -neighbors[0]
            (a,), (certified,) = active_set(anchor[None], neighbors[None], alpha)
            assert certified and a.tobytes() == np.zeros(5).tobytes()

    def test_uncertified_rows_take_the_fallback(self, monkeypatch):
        # one round leaves the rows whose support it guessed wrong; those
        # must come out of FISTA exactly as the every-sweep oracle computes
        rng = rng_for(308)
        neighbors = rng.standard_normal((40, 6, 8))
        anchors = rng.standard_normal((40, 8))
        monkeypatch.setattr(hypergraph, "SOLVER_ROUNDS", 1)
        _, certified = active_set(anchors, neighbors, 2.0)
        left = np.flatnonzero(~certified)
        assert 0 < left.size < 40
        a, converged = solve_instances(anchors, neighbors, 2.0)
        ref_a, ref_converged = ref_solve_affinity_batch(
            anchors[left], neighbors[left], 2.0, SOLVER_MAX_ITER)
        assert a[left].tobytes() == ref_a.tobytes()
        assert converged.all() and ref_converged.all()

    def test_overflowing_instance_goes_to_the_fallback(self):
        # a finite Gram matrix whose double overflows must not reach eigh,
        # which raises LinAlgError on it
        neighbors = np.full((2, 3, 2), 7e153)
        neighbors[1] = rng_for(309).standard_normal((3, 2))
        anchors = np.ones((2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            _, certified = active_set(anchors, neighbors, 2.0)
            _, converged = solve_instances(anchors, neighbors, 2.0)
        assert certified.tolist() == [False, True]
        assert converged[1]

    @pytest.mark.parametrize("anchor, coefficient", [(1.0, 0.0), (1e300, np.nan)])
    def test_step_zero_rows_end_the_fallback_at_once(self, monkeypatch, anchor, coefficient):
        # 2 * lambda_max overflows, so the step is 0 and the first sweep is a
        # fixed point: 0, or NaN where the linear term overflows too. One
        # residual check settles it, not SOLVER_MAX_ITER of them.
        calls = []
        residual = hypergraph._batch_kkt_residual
        monkeypatch.setattr(hypergraph, "_batch_kkt_residual",
                            lambda *args: calls.append(1) or residual(*args))
        neighbors = np.full((1, 3, 2), 7e153)
        gram = np.einsum("nij,nkj->nik", neighbors, neighbors)
        c = 2.0 * np.einsum("nij,nj->ni", neighbors, np.full((1, 2), anchor))
        with np.errstate(over="ignore", invalid="ignore"):
            a, converged = hypergraph._fista(gram, c, 2.0)
        assert len(calls) == 1
        assert np.array_equal(a, np.full((1, 3), coefficient), equal_nan=True)
        assert converged.tolist() == [False]

    @pytest.mark.parametrize("dim, coefficient", [(4, np.nan), (3, 0.0)])
    def test_overflowing_gram_entries_take_the_frozen_path(self, dim, coefficient):
        # at d = 4 the Gram entries overflow to inf, which eigvalsh cannot
        # take; at d = 3 they stay finite and only 2 * lambda_max overflows
        with np.errstate(all="ignore"):
            a, converged = solve_instances(
                np.ones((1, dim)), np.full((1, 3, dim), 7e153), 2.0)
        assert np.array_equal(a, np.full((1, 3), coefficient), equal_nan=True)
        assert converged.tolist() == [False]

    def test_default_rounds_leave_a_finite_row_to_the_fallback(self):
        # 8 neighbors in 3 dimensions: the support rule cycles, and FISTA
        # certifies what the default active-set rounds cannot
        rng = np.random.default_rng(108)
        neighbors = rng.standard_normal((1, 8, 3))
        anchors = rng.standard_normal((1, 3))
        _, certified = active_set(anchors, neighbors, 0.5)
        assert certified.tolist() == [False]
        gram = np.einsum("nij,nkj->nik", neighbors, neighbors)
        c = 2.0 * np.einsum("nij,nj->ni", neighbors, anchors)
        a, converged = hypergraph._fista(gram, c, 0.5)
        assert converged.tolist() == [True]
        assert ref_kkt_residual(a[0], anchors[0], neighbors[0], 0.5) <= SOLVER_KKT_TOL
        solved, flags = solve_instances(anchors, neighbors, 0.5)
        assert solved.tobytes() == a.tobytes() and flags.all()


class TestHyperedges:
    def test_structure_and_anchor_coefficient(self):
        feats = rng_for(400).standard_normal((30, 5))
        neighbors, affinity, converged = build_hyperedges(feats, k=4, alpha=2.0)
        assert_edge_invariants(neighbors, affinity, 4)
        assert neighbors.shape == (30, 3) and converged.shape == (30,)
        assert (affinity[:, 0] == 1.0).all()
        assert np.array_equal(neighbors, cosine_knn(feats, 3))

    def test_validation(self):
        feats = rng_for(401).standard_normal((10, 3))
        with pytest.raises(ConfigError):
            build_hyperedges(feats, k=2, alpha=1.0)
        with pytest.raises(ConfigError):
            build_hyperedges(feats[:3], k=4, alpha=1.0)

    def test_invariants_hold_on_tied_directions(self):
        # repeated directions tie every similarity; each edge still has k
        # distinct members and its anchor only in slot 0
        base = rng_for(416).standard_normal((4, 3))
        feats = np.vstack([base, 2.0 * base, 3.0 * base])
        for k in (3, 5, 8):
            neighbors, affinity, _ = build_hyperedges(feats, k=k, alpha=0.0)
            assert_edge_invariants(neighbors, affinity, k)

    def test_nonfinite_feature_row_rejected(self):
        feats = rng_for(417).standard_normal((10, 3))
        feats[3, 1] = np.nan
        with pytest.raises(ConfigError, match="index 3"):
            build_hyperedges(feats, k=4, alpha=1.0)
        feats[3, 1] = 0.0
        feats[6] *= 1e160  # finite, but its squared norm overflows
        with pytest.raises(ConfigError, match="index 6"):
            build_hyperedges(feats, k=4, alpha=1.0)


class TestSelfLoops:
    def test_entropy_values(self):
        assert normalized_entropy(np.array([0.25, 0.25, 0.25, 0.25])) == pytest.approx(1.0)
        assert normalized_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
        with pytest.raises(ConfigError):
            normalized_entropy(np.array([0.5, 0.6]))

    def test_entropy_is_rowwise(self):
        preds = rng_for(418).dirichlet(np.ones(5), size=20)
        preds[3] = [1.0, 0.0, 0.0, 0.0, 0.0]
        got = normalized_entropy(preds)
        assert got.shape == (20,)
        assert np.allclose(got, [ref_normalized_entropy(row) for row in preds],
                           rtol=0.0, atol=1e-12)
        with pytest.raises(ConfigError):
            normalized_entropy(np.vstack([preds, [0.5, 0.6, 0.0, 0.0, 0.0]]))

    def test_selfloop_range_and_formula(self):
        feats = rng_for(402).standard_normal((12, 4))
        neighbors, _, _ = build_hyperedges(feats, k=4, alpha=2.0)
        preds = rng_for(403).dirichlet(np.ones(3), size=12)
        loops = self_loop_affinities(neighbors, preds)
        assert loops.shape == (12,)
        assert (loops >= 1.0).all() and (loops <= np.e).all()
        want = [np.exp(ref_normalized_entropy(preds[nbrs].mean(axis=0)))
                for nbrs in neighbors]
        assert loops == pytest.approx(want)

    def test_selfloop_range_endpoints(self):
        # one-hot neighborhoods give exactly 1, uniform ones exactly e
        neighbors = np.array([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]])
        preds = np.vstack([np.tile([0.0, 1.0], (3, 1)), np.full((3, 2), 0.5)])
        loops = self_loop_affinities(neighbors, preds)
        assert (loops[:3] == 1.0).all()
        assert loops[3:] == pytest.approx(np.e, rel=1e-15)

    def test_merge_adds_member_own_loop(self):
        neighbors = np.array([[1, 2], [0, 2], [0, 1]])
        affinity = np.array([[1.0, 0.3, 0.2], [1.0, 0.4, 0.1], [1.0, 0.6, 0.5]])
        loops = np.array([1.1, 1.5, 2.0])
        merged = merge_self_loops(neighbors, affinity, loops)
        assert np.allclose(merged[0], [1.0 + 1.1, 0.3 + 1.5, 0.2 + 2.0])
        assert np.allclose(merged[1], [1.0 + 1.5, 0.4 + 1.1, 0.1 + 2.0])
        # originals untouched
        assert np.allclose(affinity[0], [1.0, 0.3, 0.2])


class TestRelationMatrix:
    def test_sparsity_pattern(self):
        feats = rng_for(404).standard_normal((25, 4))
        preds = rng_for(405).dirichlet(np.ones(4), size=25)
        neighbors, affinity, _ = build_hyperedges(feats, k=5, alpha=2.0)
        loops = self_loop_affinities(neighbors, preds)
        H = build_relation_matrix(neighbors, merge_self_loops(neighbors, affinity, loops))
        dense = to_dense(H)
        assert dense.shape == (25, 25)
        assert np.count_nonzero(dense) == 5 * 25
        for j in range(25):
            members = {j, *neighbors[j].tolist()}
            assert set(np.nonzero(dense[:, j])[0].tolist()) == members
            assert dense[j, j] == pytest.approx(1.0 + loops[j])

    def test_matches_straightline_reference(self):
        feats = rng_for(406).standard_normal((9, 4))
        preds = rng_for(407).dirichlet(np.ones(3), size=9)
        ref = ref_pipeline(feats, preds, k=4, alpha=2.0, h=3, m_prime=8)
        neighbors, affinity, _ = build_hyperedges(feats, k=4, alpha=2.0)
        loops = self_loop_affinities(neighbors, preds)
        H = build_relation_matrix(neighbors, merge_self_loops(neighbors, affinity, loops))
        assert np.abs(to_dense(H) - ref["H"]).max() < 1e-6


class TestPcaRows:
    def test_matches_dense_eigh_small(self):
        rng = rng_for(408)
        X = rng.standard_normal((12, 12))
        comp, components, eigvals = pca_rows(dense_relation(X), 5, seed=3)
        assert components.shape == (12, 5)
        assert np.allclose(components.T @ components, np.eye(5), atol=1e-8)
        assert (np.diff(eigvals) <= 1e-9).all() and (eigvals >= 0).all()
        Xc = X - X.mean(axis=0)
        w, v = np.linalg.eigh(Xc.T @ Xc)
        order = np.argsort(w, kind="stable")[::-1][:5]
        ref = v[:, order]
        for col in range(5):
            peak = np.argmax(np.abs(ref[:, col]))
            if ref[peak, col] < 0:
                ref[:, col] = -ref[:, col]
        assert np.abs(comp - Xc @ ref).max() < 1e-6

    def test_full_rank_compression_preserves_distances(self):
        rng = rng_for(409)
        X = rng.standard_normal((8, 8))
        comp, _, _ = pca_rows(dense_relation(X), 7, seed=0)
        Xc = X - X.mean(axis=0)
        d_ref = np.linalg.norm(Xc[:, None] - Xc[None, :], axis=2)
        d_got = np.linalg.norm(comp[:, None] - comp[None, :], axis=2)
        assert np.abs(d_ref - d_got).max() < 1e-8

    def test_deterministic(self):
        X = rng_for(410).standard_normal((20, 20))
        a = pca_rows(dense_relation(X), 6, seed=1)[0]
        b = pca_rows(dense_relation(X), 6, seed=1)[0]
        assert np.array_equal(a, b)

    def test_bounds_and_default(self):
        with pytest.raises(ConfigError):
            pca_rows(dense_relation(np.ones((4, 4))), 4, seed=0)
        assert default_m_prime(10) == 9
        assert default_m_prime(1000) == 64

    @staticmethod
    def sparse_relation(rng, n, k, copies=1):
        """k distinct rows and positive values per column; each column repeated `copies` times."""
        distinct = n // copies
        members = np.argsort(rng.random((distinct, n)), axis=1)[:, :k]
        values = rng.random((distinct, k)) + 0.1
        return RelationMatrix(np.repeat(members, copies, axis=0), np.repeat(values, copies, axis=0))

    @staticmethod
    def dense_top(H):
        dense = to_dense(H)
        centred = dense - dense.mean(axis=0)
        w, v = np.linalg.eigh(centred.T @ centred)
        order = np.argsort(w, kind="stable")[::-1]
        return w[order], v[:, order]

    @staticmethod
    def traced_pca(monkeypatch, H, m_prime, seed=0):
        """pca_rows(H, m_prime, seed) and the run's events in order: "step"
        for each product with C, "check" for each eigh of T, "draw" for each
        random vector (the start, then one per breakdown). Undoes the
        test's monkeypatches before it returns."""
        events = []

        class Counted(RelationMatrix):
            def rmatvec(self, y):
                events.append("step")
                return super().rmatvec(y)

        class Drawn:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                events.append("draw")
                return self.rng.standard_normal(size)

        eigh, seeded_rng = np.linalg.eigh, hypergraph.seeded_rng
        monkeypatch.setattr(np.linalg, "eigh", lambda a: events.append("check") or eigh(a))
        monkeypatch.setattr(hypergraph, "seeded_rng", lambda *key: Drawn(seeded_rng(*key)))
        result = pca_rows(Counted(H.members, H.values), m_prime, seed)
        monkeypatch.undo()
        return result, events

    def assert_exact(self, monkeypatch, H, m_prime, exact_span, seed=0):
        """Eigenvalues within 1e-10 relative (those below 1e-3 lambda_1, the
        zeros, within 1e-13 lambda_1), and the sine of the largest principal
        angle to the top-`exact_span` eigenspace of dense eigh at most 1e-8.
        Returns the run's events (traced_pca)."""
        (_, components, eigvals), events = self.traced_pca(monkeypatch, H, m_prime, seed)
        w, v = self.dense_top(H)
        scale = np.maximum(w[:m_prime], 1e-3 * w[0])
        assert (np.abs(eigvals - w[:m_prime]) <= 1e-10 * scale).all()
        assert np.abs(components.T @ components - np.eye(m_prime)).max() < 1e-10
        ref = v[:, :exact_span]
        got = components[:, :exact_span]
        assert np.linalg.norm(got - ref @ (ref.T @ got), 2) <= 1e-8
        return events

    def test_exact_on_random_relation_matrix(self, monkeypatch):
        self.assert_exact(monkeypatch, self.sparse_relation(rng_for(415), 120, 6), 8, 8)

    def test_exact_on_near_degenerate_spectrum(self, monkeypatch):
        # n = 200 against a basis of at most 2m' + 16 = 46 vectors: the run
        # restarts several times before the residual bound holds
        H = self.sparse_relation(rng_for(416), 200, 6)
        w, _ = self.dense_top(H)
        m_prime = next(m for m in range(10, 60) if w[m - 1] / w[m] < 1.01)
        events = self.assert_exact(monkeypatch, H, m_prime, m_prime)
        assert events.count("check") >= 4 and events.count("draw") == 1

    def test_exact_through_breakdown_restarts(self, monkeypatch):
        # 30 distinct columns, each three times: rank 30 at most, so the
        # Krylov space of one start vector breaks down before m' = 36 pairs
        # converge; the last ones are zeros reached by fresh vectors, and the
        # first check (the full basis of 88 < n = 90 vectors) exits on the
        # residual bound
        H = self.sparse_relation(rng_for(417), 90, 4, copies=3)
        w, _ = self.dense_top(H)
        rank = int((w > 1e-9 * w[0]).sum())
        assert rank + 1 < 36
        events = self.assert_exact(monkeypatch, H, 36, rank)
        assert events.count("check") == 1 and events.count("draw") > 2

    def test_exact_through_a_breakdown_after_a_thick_restart(self, monkeypatch):
        # rank 100 against a basis of 2m' + 16 = 102 vectors: the first full
        # basis is all but invariant (beta near 1e-5 of the largest
        # coefficient) yet not converged, so the run restarts, and the step
        # after the restart breaks down and draws a fresh vector
        H = self.sparse_relation(rng_for(417), 300, 3, copies=3)
        w, _ = self.dense_top(H)
        rank = int((w > 1e-9 * w[0]).sum())
        assert rank == 100
        events = self.assert_exact(monkeypatch, H, 43, 43)
        restart = events.index("check")
        assert "draw" in events[restart:] and events.count("draw") == 2

    def assert_full_basis_exit(self, monkeypatch, n, m_prime):
        # n <= 2m' + 16: the basis grows to all n dimensions and the run
        # exits there, on its one check
        events = self.assert_exact(monkeypatch, self.sparse_relation(rng_for(418), n, 5),
                                   m_prime, m_prime)
        assert events.count("step") == n and events.count("check") == 1

    def test_exact_at_n_minus_1_components(self, monkeypatch):
        self.assert_full_basis_exit(monkeypatch, 30, 29)

    def test_exact_on_a_full_basis_of_few_components(self, monkeypatch):
        self.assert_full_basis_exit(monkeypatch, 40, 12)

    def test_memory_is_bounded_by_the_basis(self):
        # the basis holds at most 2m' + 16 = 144 vectors of n = 2000 (2.3 MB),
        # however many steps the run takes
        H = self.sparse_relation(rng_for(420), 2000, 6)
        tracemalloc.start()
        try:
            pca_rows(H, 64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_non_finite_relation_matrix_raises(self):
        H = self.sparse_relation(rng_for(419), 20, 4)
        H.values[3, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            pca_rows(H, 3, seed=0)


class TestClustering:
    def test_matches_bruteforce(self):
        # the second case spans three row blocks, with copies of row 3 on
        # both sides of a block edge; the third sits far from the origin
        dup = np.random.default_rng(1).standard_normal((150, 6))
        dup[[70, 149]] = dup[3]
        far = np.random.default_rng(0).standard_normal((150, 6)) + 1e6
        for comp in (rng_for(411).standard_normal((40, 6)), dup, far):
            n = comp.shape[0]
            got = cluster_high_order(comp, 4)
            for i in range(n):
                d2 = ((comp - comp[i]) ** 2).sum(axis=1)
                d2[i] = np.inf
                want = np.argsort(d2, kind="stable")[:4]
                assert got[i].tolist() == want.tolist()

    def test_duplicate_rows_tie_to_lower_index(self):
        comp = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        got = cluster_high_order(comp, 2)
        assert got[1].tolist() == [2, 3]
        assert got[3].tolist() == [1, 2]

    def test_bounds(self):
        with pytest.raises(ConfigError):
            cluster_high_order(np.ones((3, 2)), 3)


def pipeline_stages(feats, preds, *, k, alpha, m_prime, seed, use_self_loops):
    """neighbors, self-loops (None without), H and compressed rows, stage by stage."""
    neighbors, affinity, _ = build_hyperedges(feats, k, alpha)
    loops = None
    if use_self_loops:
        loops = self_loop_affinities(neighbors, preds)
        affinity = merge_self_loops(neighbors, affinity, loops)
    H = build_relation_matrix(neighbors, affinity)
    return neighbors, loops, H, pca_rows(H, m_prime, seed)[0]


class TestFullPipeline:
    @pytest.mark.parametrize("seed,n,use_loops", [(0, 8, True), (1, 10, True),
                                                  (2, 9, False), (3, 7, True)])
    def test_matches_straightline_reference(self, seed, n, use_loops):
        rng = rng_for(412, seed)
        feats = rng.standard_normal((n, 5))
        preds = rng.dirichlet(np.ones(4), size=n)
        m_prime = n - 1
        neighbors, loops, H, compressed = pipeline_stages(
            feats, preds, k=4, alpha=2.0, m_prime=m_prime, seed=seed, use_self_loops=use_loops)
        clusters = build_artifacts(feats, preds, k=4, alpha=2.0, h=3, m_prime=m_prime,
                                   seed=seed, use_self_loops=use_loops)
        ref = ref_pipeline(feats, preds, k=4, alpha=2.0, h=3, m_prime=m_prime,
                           use_self_loops=use_loops)
        assert np.array_equal(neighbors, ref["neighbors"])
        if use_loops:
            assert np.abs(loops - ref["selfloops"]).max() < 1e-6
        assert np.abs(to_dense(H) - ref["H"]).max() < 1e-6
        assert np.abs(compressed - ref["compressed"]).max() < 1e-6
        assert np.array_equal(clusters, ref["clusters"])

    @pytest.mark.parametrize("use_loops", [True, False])
    def test_equals_the_stage_composition_bitwise(self, use_loops):
        feats = rng_for(413).standard_normal((12, 3))
        preds = rng_for(414).dirichlet(np.ones(3), size=12)
        clusters = build_artifacts(feats, preds, k=4, alpha=2.0, h=2, m_prime=None, seed=0,
                                   use_self_loops=use_loops)
        *_, compressed = pipeline_stages(feats, preds, k=4, alpha=2.0, m_prime=11, seed=0,
                                         use_self_loops=use_loops)
        want = cluster_high_order(compressed, 2)
        assert clusters.dtype == want.dtype and clusters.tobytes() == want.tobytes()
