import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersfda import (
    AdaptConfig,
    AdaptModel,
    CheckpointError,
    ConfigError,
    EmbeddingDataset,
    GradientSet,
    ShiftSpec,
    accuracy,
    backward,
    forward,
    gen_gaussian_domains,
    init_model,
    load_model,
    pretrain_source,
    save_model,
    sgd_step,
)
from hypersfda.model import Workspace, smoothed_cross_entropy, softmax

from helpers import central_difference, ref_backward, ref_sgd_step, rng_for


def tiny_model(seed=0, dim=3, classes=3, d_z=None):
    return init_model(dim, classes, seed=seed, d_z=d_z)


class TestInitAndForward:
    def test_shapes_and_dz_default(self):
        m = init_model(5, 4, seed=1)
        assert m.W_f.shape == (5, 5) and m.W_g.shape == (5, 4)
        m2 = init_model(5, 4, seed=1, d_z=7)
        assert m2.W_f.shape == (5, 7) and m2.W_g.shape == (7, 4)

    def test_deterministic_in_seed(self):
        a, b, c = init_model(4, 3, 2), init_model(4, 3, 2), init_model(4, 3, 3)
        assert np.array_equal(a.W_f, b.W_f) and np.array_equal(a.b_g, b.b_g)
        assert not np.array_equal(a.W_f, c.W_f)

    def test_adapter_starts_near_identity(self):
        m = init_model(6, 3, seed=0)
        assert np.abs(m.W_f - np.eye(6)).max() <= 0.01

    def test_forward_outputs_distributions(self):
        m = tiny_model()
        rng = rng_for(1)
        z, p = forward(m, rng.standard_normal((10, 3)))
        assert z.shape == (10, 3) and p.shape == (10, 3)
        assert (z >= 0).all()
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p > 0).all()

    def test_forward_rejects_wrong_dim(self):
        with pytest.raises(ConfigError):
            forward(tiny_model(), np.ones((2, 4)))

    def test_softmax_stable_at_huge_logits(self):
        p = softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            AdaptModel(np.ones((3, 3)), np.ones(2), np.ones((3, 3)), np.ones(3))
        with pytest.raises(ConfigError):
            init_model(0, 3, seed=0)


class TestBackward:
    def test_matches_finite_differences_through_cross_entropy(self):
        rng = rng_for(7)
        m = tiny_model(seed=3, dim=4, classes=3)
        x = rng.standard_normal((5, 4)) + 0.3
        labels = np.array([0, 1, 2, 1, 0])

        z, p = forward(m, x)
        _, upstream = smoothed_cross_entropy(p, labels, 3, 0.1)
        grads = backward(m, x, z, p, upstream, Workspace(m, len(x)))

        def loss_of(tensors):
            model = AdaptModel(*tensors)
            _, pp = forward(model, x)
            val, _ = smoothed_cross_entropy(pp, labels, 3, 0.1)
            return val

        tensors = [t.copy() for t in m.tensors()]
        for idx, name in enumerate(("W_f", "b_f", "W_g", "b_g")):
            def f(t, idx=idx):
                ts = [u.copy() for u in tensors]
                ts[idx] = t
                return loss_of(ts)
            fd = central_difference(f, tensors[idx].copy(), eps=1e-6)
            an = grads.tensors()[idx]
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(an - fd).max() / denom < 1e-6, name

    def test_relu_blocks_gradient_on_dead_units(self):
        m = tiny_model(seed=0, dim=2, classes=2)
        x = np.array([[-50.0, -50.0]])
        z, p = forward(m, x)
        assert (z == 0).all()
        grads = backward(m, x, z, p, np.ones_like(p), Workspace(m, 1))
        assert np.array_equal(grads.W_f, np.zeros_like(grads.W_f))

    def test_shape_mismatch_rejected(self):
        m = tiny_model()
        z, p = forward(m, np.ones((2, 3)))
        with pytest.raises(ConfigError):
            backward(m, np.ones((2, 3)), z, p, np.ones((3, 3)), Workspace(m, 2))


class TestSgdStep:
    def test_momentum_accumulates(self):
        m = tiny_model()
        g = GradientSet(*[np.ones_like(t) for t in m.tensors()])
        v = GradientSet.zeros_like(m)
        ws = Workspace(m, 1)
        m1, v1 = sgd_step(m, g, v, lr=0.1, momentum=0.9, ws=ws)
        assert np.allclose(m1.W_f, m.W_f - 0.1)
        assert np.allclose(v1.W_f, 1.0)
        m2, v2 = sgd_step(m1, g, v1, lr=0.1, momentum=0.9, ws=ws)
        assert np.allclose(v2.W_f, 1.9)
        assert np.allclose(m2.W_f, m1.W_f - 0.19)

    def test_functional_no_mutation(self):
        m = tiny_model()
        before = m.W_f.copy()
        g = GradientSet(*[np.ones_like(t) for t in m.tensors()])
        sgd_step(m, g, GradientSet.zeros_like(m), lr=0.1, momentum=0.0, ws=Workspace(m, 1))
        assert np.array_equal(m.W_f, before)

    def test_non_finite_gradient_names_tensor(self):
        m = tiny_model()
        tensors = [np.zeros_like(t) for t in m.tensors()]
        tensors[2][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="W_g"):
            sgd_step(m, GradientSet(*tensors), GradientSet.zeros_like(m), 0.1, 0.9,
                     Workspace(m, 1))

    @given(lr=st.floats(1e-5, 1.0), momentum=st.floats(0.0, 0.99))
    def test_gradient_superposition(self, lr, momentum):
        # one step on g1+g2 equals one step on the summed gradient set
        m = tiny_model(seed=5)
        rng = rng_for(11)
        g1 = GradientSet(*[rng.standard_normal(t.shape) for t in m.tensors()])
        g2 = GradientSet(*[rng.standard_normal(t.shape) for t in m.tensors()])
        v0 = GradientSet.zeros_like(m)
        g_sum = GradientSet(*[a + b for a, b in zip(g1.tensors(), g2.tensors())])
        lhs, _ = sgd_step(m, g_sum, v0, lr, momentum, Workspace(m, 1))
        rhs_manual = [t - lr * (a + b) for t, a, b in
                      zip(m.tensors(), g1.tensors(), g2.tensors())]
        for got, want in zip(lhs.tensors(), rhs_manual):
            assert np.allclose(got, want, atol=1e-12)


class TestCrossEntropyAndPretrain:
    def test_smoothed_ce_manual_value(self):
        p = np.array([[0.7, 0.2, 0.1]])
        labels = np.array([0])
        loss, _ = smoothed_cross_entropy(p, labels, 3, epsilon=0.0)
        assert abs(loss + np.log(0.7)) < 1e-12
        loss_s, _ = smoothed_cross_entropy(p, labels, 3, epsilon=0.3)
        want = -(0.8 * np.log(0.7) + 0.1 * np.log(0.2) + 0.1 * np.log(0.1))
        assert abs(loss_s - want) < 1e-12

    def test_pretrain_improves_separable_source(self):
        src, _ = gen_gaussian_domains(3, 8, 300, 30, ShiftSpec(), seed=4)
        m = init_model(8, 3, seed=4)
        before = accuracy(m, src)
        m2, after = pretrain_source(m, src, 30, AdaptConfig(seed=4, lr=0.01))
        assert after > max(before, 0.9)

    def test_pretrain_deterministic(self):
        src, _ = gen_gaussian_domains(3, 6, 120, 30, ShiftSpec(), seed=2)
        runs = [pretrain_source(init_model(6, 3, seed=2), src, 5, AdaptConfig(seed=2))
                for _ in range(2)]
        assert np.array_equal(runs[0][0].W_f, runs[1][0].W_f)
        assert runs[0][1] == runs[1][1]

    def test_accuracy_requires_labels(self):
        ds = EmbeddingDataset(np.ones((4, 3)), None, "target", 2)
        with pytest.raises(ConfigError):
            accuracy(tiny_model(), ds)


class TestModelPersistence:
    def test_round_trip_exact(self, tmp_path):
        m = init_model(6, 4, seed=9, d_z=5)
        path = tmp_path / "m.ckpt"
        save_model(m, path)
        back = load_model(path)
        for a, b in zip(m.tensors(), back.tensors()):
            assert np.array_equal(a, b)

    def test_save_is_deterministic_bytes(self, tmp_path):
        m = init_model(4, 3, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        m = init_model(4, 3, seed=1)
        path = tmp_path / "m.ckpt"
        save_model(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = init_model(4, 3, seed=1)
        path = tmp_path / "m.ckpt"
        save_model(m, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError):
            load_model(path)


class TestFlatParameters:
    def test_views_share_one_vector_in_tensor_order(self):
        m = tiny_model(seed=3, dim=4, classes=3, d_z=5)
        assert m.flat.flags.c_contiguous and m.flat.dtype == np.float64
        assert np.array_equal(m.flat, np.concatenate([t.ravel() for t in m.tensors()]))
        for t in m.tensors():
            assert np.shares_memory(t, m.flat)

    def test_model_views_are_read_only(self):
        m = tiny_model()
        for t in (m.flat, *m.tensors()):
            with pytest.raises(ValueError):
                t[...] = 0.0

    def test_building_leaves_caller_arrays_alone(self):
        tensors = [np.ones((3, 2)), np.zeros(2), np.ones((2, 3)), np.zeros(3)]
        m = AdaptModel(*tensors)
        assert all(t.flags.writeable for t in tensors)
        tensors[0][0, 0] = 5.0
        assert m.W_f[0, 0] == 1.0

    def test_gradient_set_shape_checked_and_writable(self):
        with pytest.raises(ConfigError):
            GradientSet(np.ones((3, 2)), np.ones(3), np.ones((2, 3)), np.ones(3))
        g = GradientSet.zeros_like(tiny_model())
        g.W_g[0, 0] = 2.0
        assert g.flat.sum() == 2.0

    def test_deepcopy_views_point_into_own_vector(self):
        import copy

        m = tiny_model(seed=2)
        g = GradientSet(*[np.ones_like(t) for t in m.tensors()])
        for params in (m, g):
            dup = copy.deepcopy(params)
            assert not np.shares_memory(dup.flat, params.flat)
            for t, orig in zip(dup.tensors(), params.tensors()):
                assert np.shares_memory(t, dup.flat) and np.array_equal(t, orig)
        assert not copy.deepcopy(m).flat.flags.writeable


class TestStepMatchesPerTensorOracles:
    @pytest.mark.parametrize("dims", [(3, 3, 2), (5, 7, 3), (8, 9, 3), (128, 128, 10)])
    def test_backward_bitwise(self, dims):
        d, d_z, c = dims
        rng = rng_for(91, d, d_z)
        m = init_model(d, c, seed=d_z, d_z=d_z)
        x = rng.standard_normal((17, d))
        z, p = forward(m, x)
        upstream = rng.standard_normal(p.shape)
        grads = backward(m, x, z, p, upstream, Workspace(m, len(x)))
        for got, want in zip(grads.tensors(), ref_backward(m, x, z, p, upstream)):
            assert got.tobytes() == want.tobytes()

    @given(lr=st.floats(1e-5, 10.0), momentum=st.floats(0.0, 0.99), seed=st.integers(0, 99))
    def test_sgd_step_bitwise(self, lr, momentum, seed):
        rng = rng_for(92, seed)
        m = tiny_model(seed=seed, dim=4, d_z=5)
        g = GradientSet(*[rng.standard_normal(t.shape) for t in m.tensors()])
        v = GradientSet(*[rng.standard_normal(t.shape) for t in m.tensors()])
        new_m, new_v = sgd_step(m, g, v, lr, momentum, Workspace(m, 1))
        want_m, want_v = ref_sgd_step(m, g, v, lr, momentum)
        for got, want in zip((*new_m.tensors(), *new_v.tensors()), (*want_m, *want_v)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_parameters_name_the_tensor(self):
        m = tiny_model()
        tensors = [np.zeros_like(t) for t in m.tensors()]
        tensors[1][0] = 1e308
        with pytest.raises(FloatingPointError, match="non-finite values in b_f"):
            sgd_step(m, GradientSet(*tensors), GradientSet.zeros_like(m), 10.0, 0.0,
                     Workspace(m, 1))


class TestCheckpointFormat:
    def test_model_checkpoint_bytes_unchanged(self, tmp_path):
        # the digest of the four tensors written one after another, as
        # before the parameters became one vector
        import hashlib

        save_model(init_model(6, 3, seed=4, d_z=5), tmp_path / "m.ckpt")
        assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == (
            "83f129d229084db2ecbe5b64549953b959be8830494a93dcc8445434510a10f0")
