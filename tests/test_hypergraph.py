import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from hypersfda import (
    ConfigError,
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
    NEIGHBOR_BLOCK,
    SOLVER_MAX_ITER,
    _nearest,
    default_m_prime,
    pca_rows,
    solve_affinity_batch,
)

from helpers import (
    nnls_objective,
    ref_cosine_knn,
    ref_kkt_residual,
    ref_nearest,
    ref_nnls_longrun,
    ref_normalized_entropy,
    ref_pipeline,
    ref_solve_affinity_batch,
    rng_for,
)


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

    def test_memory_is_blockwise(self):
        rng = rng_for(419)
        feats, comp = rng.standard_normal((2000, 16)), rng.standard_normal((2000, 64))
        for search in (lambda: cosine_knn(feats, 5), lambda: cluster_high_order(comp, 3)):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6  # one n x n float64 matrix alone is 32 MB

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

    def test_overflowing_distances_rejected(self):
        points = np.array([[1e200], [-1e200], [5e199], [-3e199], [2e199]])
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match="overflow"):
            _nearest(points, np.zeros(5), 3)

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
            (a,), (converged,) = solve_affinity_batch(anchor[None], neighbors[None], alpha)
            assert (a >= 0.0).all()
            assert converged
            assert ref_kkt_residual(a, anchor, neighbors, alpha) <= 1e-6

    def test_alpha_zero_matches_scipy_nnls(self):
        for seed in range(10):
            rng = rng_for(301, seed)
            neighbors = rng.standard_normal((5, 8))
            anchor = rng.standard_normal(8)
            (a,), _ = solve_affinity_batch(anchor[None], neighbors[None], 0.0)
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
                (a,), _ = solve_affinity_batch(anchor[None], neighbors[None], alpha)
                _, ref_obj = ref_nnls_longrun(anchor, neighbors, alpha)
                mine = nnls_objective(a, anchor, neighbors, alpha)
                assert mine <= ref_obj + 1e-6

    def test_huge_alpha_collapses_to_zero(self):
        rng = rng_for(303)
        neighbors = rng.standard_normal((4, 5))
        anchor = 0.1 * neighbors[1]
        (a,), (converged,) = solve_affinity_batch(anchor[None], neighbors[None], 1e6)
        assert converged and np.array_equal(a, np.zeros(4))

    def test_exact_reconstruction_when_anchor_in_span(self):
        rng = rng_for(304)
        neighbors = rng.standard_normal((3, 7))
        anchor = 1.5 * neighbors[0] + 0.5 * neighbors[2]
        (a,), _ = solve_affinity_batch(anchor[None], neighbors[None], 0.0)
        assert np.abs(a - [1.5, 0.0, 0.5]).max() < 1e-5

    @pytest.mark.parametrize("max_iter", [SOLVER_MAX_ITER, 1, 3])
    def test_matches_every_sweep_reference_bitwise(self, monkeypatch, max_iter):
        # the residual is skipped on sweeps where some step has not stalled;
        # coefficients and flags must not notice, including when starved.
        # Scaled-up features make steps stall before the residual is met.
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
            a, converged = solve_affinity_batch(anchors, neighbors, alpha)
            ref_a, ref_converged = ref_solve_affinity_batch(anchors, neighbors, alpha, max_iter)
            assert a.tobytes() == ref_a.tobytes()
            assert np.array_equal(converged, ref_converged)
            flags.append(converged)
        flags = np.concatenate(flags)
        if max_iter == SOLVER_MAX_ITER:
            assert flags.all()
        else:
            assert not flags.all()

    def test_rejects_negative_alpha(self):
        with pytest.raises(ConfigError):
            solve_affinity_batch(np.ones((1, 3)), np.ones((1, 2, 3)), -1.0)


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
        assert H.shape == (25, 25)
        assert H.nnz == 5 * 25
        dense = H.toarray()
        for j in range(25):
            members = {j, *neighbors[j].tolist()}
            assert set(np.nonzero(dense[:, j])[0].tolist()) == members
            assert dense[j, j] == pytest.approx(1.0 + loops[j])

    def test_matches_straightline_reference(self):
        feats = rng_for(406).standard_normal((9, 4))
        preds = rng_for(407).dirichlet(np.ones(3), size=9)
        ref = ref_pipeline(feats, preds, k=4, alpha=2.0, h=3, m_prime=8)
        art = build_artifacts(feats, preds, k=4, alpha=2.0, h=3, m_prime=8, seed=0)
        assert np.abs(art.relation.toarray() - ref["H"]).max() < 1e-6


class TestPcaRows:
    def test_matches_dense_eigh_small(self):
        rng = rng_for(408)
        X = rng.standard_normal((12, 12))
        comp, components, eigvals = pca_rows(X, 5, seed=3)
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
        comp, _, _ = pca_rows(X, 7, seed=0)
        Xc = X - X.mean(axis=0)
        d_ref = np.linalg.norm(Xc[:, None] - Xc[None, :], axis=2)
        d_got = np.linalg.norm(comp[:, None] - comp[None, :], axis=2)
        assert np.abs(d_ref - d_got).max() < 1e-8

    def test_deterministic(self):
        X = rng_for(410).standard_normal((20, 20))
        a = pca_rows(X, 6, seed=1)[0]
        b = pca_rows(X, 6, seed=1)[0]
        assert np.array_equal(a, b)

    def test_bounds_and_default(self):
        with pytest.raises(ConfigError):
            pca_rows(np.ones((4, 4)), 4, seed=0)
        assert default_m_prime(10) == 9
        assert default_m_prime(1000) == 64


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


class TestFullPipeline:
    @pytest.mark.parametrize("seed,n,use_loops", [(0, 8, True), (1, 10, True),
                                                  (2, 9, False), (3, 7, True)])
    def test_matches_straightline_reference(self, seed, n, use_loops):
        rng = rng_for(412, seed)
        feats = rng.standard_normal((n, 5))
        preds = rng.dirichlet(np.ones(4), size=n)
        m_prime = n - 1
        art = build_artifacts(feats, preds, k=4, alpha=2.0, h=3, m_prime=m_prime,
                              seed=seed, use_self_loops=use_loops)
        ref = ref_pipeline(feats, preds, k=4, alpha=2.0, h=3, m_prime=m_prime,
                           use_self_loops=use_loops)
        assert np.array_equal(art.neighbors, ref["neighbors"])
        if use_loops:
            assert np.abs(art.selfloops - ref["selfloops"]).max() < 1e-6
        else:
            assert art.selfloops is None
        assert np.abs(art.relation.toarray() - ref["H"]).max() < 1e-6
        assert np.abs(art.compressed - ref["compressed"]).max() < 1e-6
        assert np.array_equal(art.clusters, ref["clusters"])

    def test_artifacts_carry_the_merged_arrays(self):
        feats = rng_for(413).standard_normal((12, 3))
        preds = rng_for(414).dirichlet(np.ones(3), size=12)
        art = build_artifacts(feats, preds, k=4, alpha=2.0, h=2, m_prime=None, seed=0)
        neighbors, affinity, converged = build_hyperedges(feats, k=4, alpha=2.0)
        loops = self_loop_affinities(neighbors, preds)
        assert np.array_equal(art.neighbors, neighbors)
        assert np.array_equal(art.converged, converged) and converged.all()
        assert np.array_equal(art.selfloops, loops)
        assert np.array_equal(art.affinity, merge_self_loops(neighbors, affinity, loops))
        assert (art.relation != build_relation_matrix(neighbors, art.affinity)).nnz == 0
        assert np.array_equal(art.compressed, pca_rows(art.relation, 11, seed=0)[0])
