import copy
import re

import numpy as np
import pytest

from hypersfda import (
    AdaptConfig,
    AdaptModel,
    CheckpointError,
    ConfigError,
    EmaState,
    EmbeddingDataset,
    GradientSet,
    MemoryBank,
    ShiftSpec,
    TrainingAborted,
    adapt,
    build_artifacts,
    cosine_knn,
    evaluate,
    forward,
    gen_gaussian_domains,
    init_model,
    lambda_schedule,
    load_checkpoint,
    load_model,
    open_set_split,
    pretrain_source,
    save_checkpoint,
    save_model,
)
from hypersfda import trainer
from hypersfda.hypergraph import normalized_entropy
from hypersfda.trainer import (
    TrainerState,
    _background_mask,
    epoch_permutation,
    iterations_per_epoch,
    knn_safe_features,
    refresh_hypergraph,
)

from helpers import (
    adapt_for,
    exhaustive_threshold_split,
    initial_state,
    make_bimodal_predictions,
    ref_adapt_iteration,
    ref_background_mask,
    rng_for,
)

QUICK = dict(k=4, h=3, m_prime=4, batch_size=32, epochs=2, t_in=2)


def small_problem(seed=0, n=60, labeled=True):
    shift = ShiftSpec(rotation_angle=np.deg2rad(25), noise_sigma=0.4, seed=seed)
    src, tgt = gen_gaussian_domains(3, 8, n, n, shift, seed=seed, separation=3.0)
    model, _ = pretrain_source(
        init_model(8, 3, seed=seed), src, 30, AdaptConfig(seed=seed, lr=0.01)
    )
    if not labeled:
        tgt = EmbeddingDataset(tgt.features, None, "target", 3)
    return model, tgt


def assert_models_equal(a, b):
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


class TestIterationHelpers:
    def test_iterations_per_epoch(self):
        assert iterations_per_epoch(600, 64) == 10
        assert iterations_per_epoch(64, 64) == 1
        assert iterations_per_epoch(65, 64) == 2

    def test_epoch_permutation_deterministic(self):
        a = epoch_permutation(3, 2, 50)
        b = epoch_permutation(3, 2, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, epoch_permutation(3, 1, 50))
        assert not np.array_equal(a, epoch_permutation(4, 2, 50))

    def test_epoch_permutation_is_permutation(self):
        p = epoch_permutation(0, 0, 97)
        assert np.array_equal(np.sort(p), np.arange(97))


class TestKnnSafeFeatures:
    def test_passthrough_without_zero_rows(self):
        z = rng_for(80).uniform(0.1, 1.0, (5, 3))
        assert knn_safe_features(z) is z

    def test_zero_rows_become_ones(self):
        z = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        out = knn_safe_features(z)
        assert np.array_equal(out[1], [1.0, 1.0])
        assert np.array_equal(out[0], z[0]) and np.array_equal(out[2], z[2])
        assert np.array_equal(z[1], [0.0, 0.0])  # input untouched


class TestRefreshHypergraph:
    def test_high_order_matches_manual_build(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        bank, clusters, _ = refresh_hypergraph(model, tgt, cfg)
        z, p = forward(model, tgt.features)
        zs = knn_safe_features(z)
        want = build_artifacts(
            zs, p, k=cfg.k, alpha=cfg.alpha, h=cfg.h, m_prime=cfg.m_prime,
            seed=cfg.seed, use_self_loops=cfg.use_self_loops,
        )
        assert np.array_equal(clusters, want)
        assert np.array_equal(bank.features, zs)
        assert np.array_equal(bank.predictions, p)

    def test_pairwise_fallback_uses_feature_cosine(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, high_order=False, **QUICK)
        _, clusters, _ = refresh_hypergraph(model, tgt, cfg)
        z, _ = forward(model, tgt.features)
        assert np.array_equal(clusters, cosine_knn(knn_safe_features(z), cfg.h))

    def test_known_mask_is_open_set_split(self):
        model, tgt = small_problem()
        _, _, closed = refresh_hypergraph(model, tgt, AdaptConfig(seed=0, **QUICK))
        assert closed.dtype == bool and closed.all()
        cfg = AdaptConfig(seed=0, open_set=True, **QUICK)
        bank, _, known_mask = refresh_hypergraph(model, tgt, cfg)
        known, unknown = open_set_split(bank.predictions)
        assert unknown.size > 0
        assert np.array_equal(np.flatnonzero(known_mask), known)


class TestOpenSetSplit:
    def test_confident_vs_uniform_rows(self):
        p = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 0.0, 1.0],
            [1 / 3, 1 / 3, 1 / 3],
        ])
        known, unknown = open_set_split(p)
        assert known.tolist() == [0, 1, 3]
        assert unknown.tolist() == [2, 4]

    def test_equal_entropy_degenerates_to_all_known(self):
        p = np.tile([0.25, 0.25, 0.5], (6, 1))
        known, unknown = open_set_split(p)
        assert known.tolist() == list(range(6))
        assert unknown.size == 0

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            open_set_split(np.array([[0.5, 0.5]]))

    def test_partition_is_disjoint_and_complete(self):
        p = make_bimodal_predictions(0)
        known, unknown = open_set_split(p)
        merged = np.sort(np.concatenate([known, unknown]))
        assert np.array_equal(merged, np.arange(p.shape[0]))

    @pytest.mark.parametrize("index", range(25))
    def test_matches_exhaustive_oracle(self, index):
        p = make_bimodal_predictions(index)
        known, _ = open_set_split(p)
        mask = np.zeros(p.shape[0], dtype=bool)
        mask[known] = True
        ents = normalized_entropy(p)
        assert np.array_equal(mask, exhaustive_threshold_split(ents))


def axis_separated_setup(labels):
    # two tight cosine groups on the coordinate axes; huge logits make
    # predictions one-hot on the dominant coordinate
    model = AdaptModel(np.eye(2), np.zeros(2), 10.0 * np.eye(2), np.zeros(2))
    feats = np.array([[3.0, 0.0], [2.9, 0.1], [0.0, 3.0], [0.1, 2.9]])
    return model, EmbeddingDataset(feats, np.asarray(labels), "target", 2)


class TestEvaluate:
    def test_requires_labels(self):
        model, tgt = small_problem(labeled=False)
        with pytest.raises(ConfigError):
            evaluate(model, tgt)

    def test_perfect_predictions_and_neighbors(self):
        model, data = axis_separated_setup([0, 0, 1, 1])
        rec = evaluate(model, data, h=1)
        assert rec.acc == 1.0
        assert rec.neighbor_agreement == 1.0
        assert rec.misleading_ratio == (0.0, 0.0)

    def test_all_wrong_labels(self):
        model, data = axis_separated_setup([1, 1, 0, 0])
        rec = evaluate(model, data, h=1)
        assert rec.acc == 0.0
        assert rec.neighbor_agreement == 0.0
        assert rec.misleading_ratio == (1.0, 1.0)

    def test_agreement_reads_bank_predictions(self):
        model, data = axis_separated_setup([0, 0, 1, 1])
        z, p = forward(model, data.features)
        bank = MemoryBank(z.copy(), p[[2, 3, 0, 1]].copy())
        rec = evaluate(model, data, bank, h=1)
        assert rec.acc == 1.0  # accuracy comes from a fresh forward pass
        assert rec.neighbor_agreement == 0.0

    def test_absent_class_scores_zero_misleading(self):
        model = AdaptModel(np.eye(2), np.zeros(2), 10.0 * np.eye(2), np.zeros(2))
        feats = np.array([[3.0, 0.0], [2.9, 0.1], [0.0, 3.0], [0.1, 2.9]])
        data = EmbeddingDataset(feats, np.array([0, 0, 1, 1]), "target", 3)
        rec = evaluate(model, data, h=1)
        assert rec.misleading_ratio == (0.0, 0.0, 0.0)

    def test_h_clipped_to_population(self):
        model, data = axis_separated_setup([0, 0, 1, 1])
        rec = evaluate(model, data, h=50)
        assert 0.0 <= rec.neighbor_agreement <= 1.0


class TestBackgroundMask:
    def test_hand_case(self):
        clusters = np.zeros((10, 2), dtype=np.int64)
        clusters[5] = [9, 0]
        clusters[9] = [1, 2]
        clusters[3] = [5, 9]
        batch = np.array([5, 9, 3])
        mask = _background_mask(batch, clusters[batch])
        want = np.array([
            [False, False, True],   # 9 is close to 5, 3 is not
            [True, False, True],    # neither 5 nor 3 is close to 9
            [False, False, False],  # both 5 and 9 are close to 3
        ])
        assert np.array_equal(mask, want)

    def test_diagonal_never_background(self):
        rng = rng_for(81)
        clusters = rng.integers(0, 20, (20, 3))
        batch = rng.choice(20, size=8, replace=False)
        mask = _background_mask(batch, clusters[batch])
        assert not mask.diagonal().any()


    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        rng = rng_for(82, seed)
        n, h = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        clusters = rng.integers(0, n, (n, h))
        batch = rng.permutation(n)[:int(rng.integers(1, min(n, 40) + 1))]
        if seed % 2:  # an open-set run drops unknown samples from the batch
            known = rng.uniform(size=n) < 0.6
            batch = batch[known[batch]]
            if batch.size == 0:
                return
        if seed % 3 == 0:  # close sets made of batch members
            clusters[batch] = rng.choice(batch, (batch.size, h))
        mask = _background_mask(batch, clusters[batch])
        assert mask.dtype == bool
        assert np.array_equal(mask, ref_background_mask(batch, clusters[batch]))


class TestAdaptRun:
    def test_unlabeled_metrics_stream(self):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, **QUICK)
        adapted, metrics, state = adapt(model, tgt, cfg)
        assert len(metrics) == 4  # ceil(60/32) * 2 epochs
        assert [r.iteration for r in metrics] == [0, 1, 2, 3]
        for t, rec in enumerate(metrics):
            assert rec.acc is None and rec.neighbor_agreement is None
            assert np.isfinite(rec.total)
            assert rec.lambda_used == (1.0 + 10.0 * t / 4.0) ** (-cfg.beta)
        assert state.iteration == 4

    def test_labeled_metrics_carry_diagnostics(self):
        model, tgt = small_problem()
        _, metrics, _ = adapt(model, tgt, AdaptConfig(seed=0, **QUICK))
        for rec in metrics:
            assert 0.0 <= rec.acc <= 1.0
            assert 0.0 <= rec.neighbor_agreement <= 1.0
            assert len(rec.misleading_ratio) == 3

    def test_deterministic_in_config_and_seed(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        m1, rec1, _ = adapt(model, tgt, cfg)
        m2, rec2, _ = adapt(model, tgt, cfg)
        assert_models_equal(m1, m2)
        assert rec1 == rec2
        m3, _, _ = adapt(model, tgt, AdaptConfig(seed=1, **QUICK))
        assert not np.array_equal(m1.W_f, m3.W_f)

    def test_ablation_switches_change_the_run(self):
        model, tgt = small_problem()
        full, _, _ = adapt(model, tgt, AdaptConfig(seed=0, **QUICK))
        nsl, _, _ = adapt(model, tgt, AdaptConfig(seed=0, use_self_loops=False, **QUICK))
        pw, _, _ = adapt(model, tgt, AdaptConfig(seed=0, high_order=False, **QUICK))
        assert not np.array_equal(full.W_f, nsl.W_f)
        assert not np.array_equal(full.W_f, pw.W_f)

    def test_validates_shapes_and_sizes(self):
        model, tgt = small_problem()
        with pytest.raises(ConfigError):
            adapt(init_model(5, 3, seed=0), tgt, AdaptConfig(seed=0, **QUICK))
        tiny = EmbeddingDataset(tgt.features[:3], None, "target", 3)
        with pytest.raises(ConfigError):
            adapt(model, tiny, AdaptConfig(seed=0, **QUICK))
        exact_h = EmbeddingDataset(tgt.features[:3], None, "target", 3)
        with pytest.raises(ConfigError):
            adapt(model, exact_h, AdaptConfig(seed=0, k=3, h=3))

    def test_zero_epochs_is_a_no_op(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, k=4, h=3, m_prime=4, epochs=0)
        adapted, metrics, state = adapt(model, tgt, cfg)
        assert metrics == [] and state.iteration == 0
        assert_models_equal(adapted, model)

    def test_refresh_interval_tracks_iterations(self):
        model, tgt = small_problem(labeled=False)
        _, _, state = adapt(model, tgt, AdaptConfig(seed=0, **QUICK))
        assert state.refreshed_at == 2  # t_in=2 over 4 iterations
        _, _, lazy = adapt(model, tgt, AdaptConfig(seed=0, **{**QUICK, "t_in": 50}))
        assert lazy.refreshed_at == 0

    def test_stop_after_plus_resume_matches_uninterrupted(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        full_model, full_metrics, full_state = adapt(model, tgt, cfg)
        part_model, part_metrics, part_state = adapt_for(model, tgt, cfg, 2)
        assert len(part_metrics) == 2
        res_model, res_metrics, res_state = adapt(
            part_model, tgt, cfg, resume_from=part_state
        )
        assert part_metrics + res_metrics == full_metrics
        assert_models_equal(res_model, full_model)
        for a, b in zip(res_state.velocity.tensors(), full_state.velocity.tensors()):
            assert np.array_equal(a, b)
        assert np.array_equal(res_state.ema.q, full_state.ema.q)
        assert np.array_equal(res_state.bank.features, full_state.bank.features)
        assert np.array_equal(res_state.bank.predictions, full_state.bank.predictions)

    def test_resume_leaves_the_state_and_can_repeat(self):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        part_model, _, part_state = adapt_for(model, tgt, cfg, 3)
        first = adapt(part_model, tgt, cfg, resume_from=part_state)
        assert part_state.iteration == 3
        second = adapt(part_model, tgt, cfg, resume_from=part_state)
        assert part_state.iteration == 3
        for ta, tb in zip(first[0].tensors(), second[0].tensors()):
            assert ta.tobytes() == tb.tobytes()
        assert first[1] == second[1]
        assert first[2] is not part_state

    def test_resume_through_checkpoint_file(self, tmp_path):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        full_model, full_metrics, _ = adapt(model, tgt, cfg)
        _, part_metrics, part_state = adapt_for(model, tgt, cfg, 3)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(part_state, path)
        assert not (tmp_path / "mid.ckpt.tmp").exists()
        loaded = load_checkpoint(path)
        assert loaded.iteration == 3 and loaded.refreshed_at == 2
        res_model, res_metrics, _ = adapt(loaded.model, tgt, cfg, resume_from=loaded)
        assert part_metrics + res_metrics == full_metrics
        assert_models_equal(res_model, full_model)

    def test_checkpoint_roundtrip_preserves_every_field(self, tmp_path):
        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 3)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert_models_equal(loaded.model, state.model)
        for a, b in zip(loaded.velocity.tensors(), state.velocity.tensors()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.ema.q, state.ema.q)
        assert np.array_equal(loaded.ema.last_update_iter, state.ema.last_update_iter)
        assert np.array_equal(loaded.bank.features, state.bank.features)
        assert np.array_equal(loaded.bank.predictions, state.bank.predictions)
        assert np.array_equal(loaded.clusters, state.clusters)
        assert np.array_equal(loaded.known_mask, state.known_mask)
        assert loaded.iteration == state.iteration
        assert loaded.refreshed_at == state.refreshed_at

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model, tgt = small_problem()
        cfg = AdaptConfig(seed=0, **QUICK)
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            _, _, state = adapt_for(model, tgt, cfg, 2)
            save_checkpoint(state, tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_resumed_state_copies_keep_views_on_own_vector(self, tmp_path):
        import copy

        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 2)
        save_checkpoint(state, tmp_path / "mid.ckpt")
        loaded = load_checkpoint(tmp_path / "mid.ckpt")
        dup = copy.deepcopy(loaded)
        for params, orig in ((dup.model, loaded.model), (dup.velocity, loaded.velocity)):
            assert not np.shares_memory(params.flat, orig.flat)
            for t in params.tensors():
                assert np.shares_memory(t, params.flat)
        dup.velocity.W_f[0, 0] += 1.0
        assert dup.velocity.flat[0] == loaded.velocity.flat[0] + 1.0

    def test_trainer_checkpoint_bytes_unchanged(self, tmp_path):
        # a fixed state, laid out tensor by tensor as before the parameters
        # became one vector
        import hashlib

        model = init_model(6, 3, seed=4, d_z=5)
        rng = np.random.default_rng(5)
        velocity = GradientSet(*[rng.standard_normal(t.shape) for t in model.tensors()])
        preds = rng.random((7, 3))
        preds /= preds.sum(1, keepdims=True)
        state = TrainerState(model, velocity, EmaState(rng.random((7, 3)), np.arange(7) - 1),
                             MemoryBank(rng.random((7, 5)), preds), rng.integers(0, 7, (7, 2)),
                             np.arange(7) % 3 > 0, 9, 8)
        save_checkpoint(state, tmp_path / "t.ckpt")
        assert hashlib.sha256((tmp_path / "t.ckpt").read_bytes()).hexdigest() == (
            "a90f9425dbed2a786011d3f418b07a2ede90534783a563692d82c995efdc7ac5")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_aborts_with_checkpoint(self, tmp_path):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, lr=1e300, **QUICK)
        with pytest.raises(TrainingAborted) as exc_info:
            adapt(model, tgt, cfg)
        exc = exc_info.value
        path = tmp_path / "abort.ckpt"
        save_checkpoint(exc.last_good, path)
        saved = load_checkpoint(path)
        failed = int(re.match(r"aborted at iteration (\d+): ", str(exc)).group(1))
        assert saved.iteration == failed
        # the rescued state predates the failing iteration entirely
        assert (saved.ema.last_update_iter < failed).all()
        for t in saved.model.tensors():
            assert np.isfinite(t).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborts_write_no_file(self, tmp_path, monkeypatch):
        # the last good state or model is the caller's to save
        monkeypatch.chdir(tmp_path)
        model, tgt = small_problem(labeled=False)
        with pytest.raises(TrainingAborted) as exc_info:
            adapt(model, tgt, AdaptConfig(seed=0, lr=1e300, **QUICK))
        assert isinstance(exc_info.value.last_good, TrainerState)
        src, _ = gen_gaussian_domains(3, 8, 60, 60, ShiftSpec(), seed=0)
        with pytest.raises(TrainingAborted, match="pretraining aborted") as exc_info:
            pretrain_source(init_model(8, 3, seed=0), src, 5, AdaptConfig(seed=0, lr=1e300))
        last = exc_info.value.last_good
        assert isinstance(last, AdaptModel) and last.non_finite() is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_model_overflowing_on_the_target_is_refused(self):
        # the first refresh runs the caller's model: its overflow is a bad input
        model, tgt = small_problem(labeled=False)
        huge = AdaptModel(model.W_f * 1e160, model.b_f, model.W_g, model.b_g)
        with pytest.raises(ConfigError, match="overflow"):
            adapt(huge, tgt, AdaptConfig(seed=0, **QUICK))

    def test_open_set_run_masks_high_entropy_samples(self):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, open_set=True, **QUICK)
        _, metrics, state = adapt(model, tgt, cfg)
        assert state.known_mask.dtype == bool and state.known_mask.any()
        assert len(metrics) == 4

    def test_iteration_callback_sees_every_record(self):
        model, tgt = small_problem(labeled=False)
        seen = []
        adapt(
            model, tgt, AdaptConfig(seed=0, **QUICK),
            iteration_callback=lambda state, rec: seen.append((state.iteration, rec)),
        )
        assert [it for it, _ in seen] == [1, 2, 3, 4]
        _, metrics, _ = adapt(model, tgt, AdaptConfig(seed=0, **QUICK))
        assert [rec for _, rec in seen] == metrics


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestLossRecord:
    @pytest.mark.parametrize("labeled", [True, False])
    def test_total_sums_the_recorded_terms(self, labeled):
        model, tgt = small_problem(labeled=labeled)
        cfg = AdaptConfig(seed=0, eta=0.7, **QUICK)
        _, metrics, _ = adapt(model, tgt, cfg)
        assert len(metrics) == 4
        for rec in metrics:
            assert bits(rec.total) == bits(rec.l_ada_pull + rec.l_ada_push + cfg.eta * rec.l_reg)
            assert bits(rec.lambda_used) == bits(lambda_schedule(rec.iteration, 4, cfg.beta))

    def test_empty_batches_record_zero_losses(self, monkeypatch):
        # every sample unknown: no batch member is left to step on
        model, tgt = small_problem(labeled=False)
        monkeypatch.setattr(trainer, "open_set_split",
                            lambda p: (np.empty(0, np.int64), np.arange(len(p))))
        adapted, metrics, _ = adapt(model, tgt, AdaptConfig(seed=0, open_set=True, **QUICK))
        assert_models_equal(adapted, model)
        for rec in metrics:
            assert [bits(v) for v in (rec.total, rec.l_ada_pull, rec.l_ada_push, rec.l_reg)] \
                == [bits(0.0)] * 4

    def test_non_finite_total_aborts_before_the_step(self, monkeypatch):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, **QUICK)
        _, _, after_1 = adapt_for(model, tgt, cfg, 2)
        kl, calls = trainer.kl_regularizer_batch, []

        def nan_at_iteration_2(q, p):
            calls.append(1)
            values, grad = kl(q, p)
            return (np.full_like(values, np.nan) if len(calls) == 3 else values), grad

        monkeypatch.setattr(trainer, "kl_regularizer_batch", nan_at_iteration_2)
        seen = []
        with pytest.raises(TrainingAborted, match="^aborted at iteration 2: non-finite loss total$"
                           ) as exc_info:
            adapt(model, tgt, cfg, iteration_callback=lambda _, rec: seen.append(rec))
        last = exc_info.value.last_good
        assert last.iteration == 2
        assert last.ema.q.tobytes() == after_1.ema.q.tobytes()
        assert last.ema.last_update_iter.tobytes() == after_1.ema.last_update_iter.tobytes()
        assert_models_equal(last.model, after_1.model)
        assert [rec.iteration for rec in seen] == [0, 1]


def state_bytes(state: TrainerState) -> list:
    arrays = (state.model.flat, state.velocity.flat, state.ema.q, state.ema.last_update_iter,
              state.bank.features, state.bank.predictions, state.clusters, state.known_mask)
    return [a.tobytes() for a in arrays] + [state.iteration, state.refreshed_at]


class TestStepMatchesStraightLineOracle:
    """adapt's buffered step against the straight-line oracle, iteration by iteration."""

    @pytest.mark.parametrize("case", ["short_last_batch", "open_set", "labeled"])
    def test_every_iteration_bitwise(self, case):
        model, tgt = small_problem(n=70, labeled=case == "labeled")
        cfg = AdaptConfig(seed=0, open_set=case == "open_set", **{**QUICK, "epochs": 3})
        assert tgt.n % cfg.batch_size != 0
        after, records = [], []

        def keep(state, record):
            after.append(copy.deepcopy(state))
            records.append(record)

        adapt(model, tgt, cfg, iteration_callback=keep)
        assert len(after) == 9
        if case == "open_set":  # some batch lost members to the unknown set
            assert any(not s.known_mask.all() for s in after)
        before = initial_state(model, tgt, cfg)
        for state, record in zip(after, records):
            want, sums = ref_adapt_iteration(before, tgt, cfg)
            assert state_bytes(state) == state_bytes(want)
            assert [bits(v) for v in (record.l_ada_pull, record.l_ada_push, record.l_reg)] \
                == [bits(v) for v in sums]
            before = state


class TestReusedBuffers:
    """adapt writes each step into buffers it allocates once; nothing it hands out moves."""

    def assert_state_before(self, exc, model, tgt, cfg, failed):
        assert re.match(rf"aborted at iteration {failed}: ", str(exc))
        want = initial_state(model, tgt, cfg) if failed == 0 else adapt_for(
            model, tgt, cfg, failed)[2]
        got = exc.last_good
        assert got.iteration == failed
        for a, b in ((got.model.flat, want.model.flat), (got.velocity.flat, want.velocity.flat),
                     (got.ema.q, want.ema.q),
                     (got.ema.last_update_iter, want.ema.last_update_iter)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_lr_hands_over_the_state_before(self):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, lr=1e300, **QUICK)
        with pytest.raises(TrainingAborted) as exc_info:
            adapt(model, tgt, cfg)
        self.assert_state_before(exc_info.value, model, tgt, cfg, 0)

    def test_non_finite_gradient_hands_over_the_state_before(self, monkeypatch):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, **QUICK)
        back, calls = trainer.backward, []

        def inf_at_iteration_2(*args, **kwargs):
            grads = back(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads.W_f[0, 0] = np.inf
            return grads

        monkeypatch.setattr(trainer, "backward", inf_at_iteration_2)
        with pytest.raises(TrainingAborted, match="non-finite gradient in W_f$") as exc_info:
            adapt(model, tgt, cfg)
        monkeypatch.undo()
        self.assert_state_before(exc_info.value, model, tgt, cfg, 2)

    def test_non_finite_output_after_the_step_hands_over_the_state_before(self, monkeypatch):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, **QUICK)
        fwd, step_calls = trainer.forward, []

        def nan_after_step_2(model, x, ws=None):
            z, p = fwd(model, x, ws)
            if ws is not None:  # the two forwards of each step
                step_calls.append(1)
                if len(step_calls) == 6:
                    p[0, 0] = np.nan
            return z, p

        monkeypatch.setattr(trainer, "forward", nan_after_step_2)
        with pytest.raises(TrainingAborted, match="outputs after the step$") as exc_info:
            adapt(model, tgt, cfg)
        monkeypatch.undo()
        self.assert_state_before(exc_info.value, model, tgt, cfg, 2)

    def test_models_handed_out_never_change(self):
        model, tgt = small_problem(labeled=False)
        kept = []

        def keep(state, record):
            if record.iteration == 1:
                kept.extend((state.model, state.model.flat.tobytes()))

        adapt(model, tgt, AdaptConfig(seed=0, **QUICK), iteration_callback=keep)
        held, then = kept
        assert held.flat.tobytes() == then and not held.flat.flags.writeable

    def test_caller_model_and_resumed_state_unchanged(self):
        model, tgt = small_problem(labeled=False)
        cfg = AdaptConfig(seed=0, **QUICK)
        _, _, part = adapt_for(model, tgt, cfg, 2)
        model_then, part_then = model.flat.tobytes(), state_bytes(part)
        adapt(model, tgt, cfg)
        adapt(part.model, tgt, cfg, resume_from=part)
        assert model.flat.tobytes() == model_then and state_bytes(part) == part_then


class TestCheckpointFormat:
    def test_model_file_is_not_a_trainer_checkpoint(self, tmp_path):
        model = init_model(4, 3, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="no trainer state"):
            load_checkpoint(path)

    def test_load_model_reads_trainer_checkpoint_prefix(self, tmp_path):
        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 1)
        path = tmp_path / "full.ckpt"
        save_checkpoint(state, path)
        assert_models_equal(load_model(path), state.model)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 1)
        path = tmp_path / "full.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        for cut in (len(blob) - 7, len(blob) // 2, 40):
            clipped = tmp_path / "cut.ckpt"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 1)
        path = tmp_path / "full.ckpt"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, what", [
        (lambda s: s.velocity.W_g, "tensor of shape"), (lambda s: s.ema.q, "EMA state"),
    ])
    def test_non_finite_state_rejected(self, tmp_path, where, what):
        model, tgt = small_problem()
        _, _, state = adapt_for(model, tgt, AdaptConfig(seed=0, **QUICK), 1)
        where(state)[0, 0] = np.nan
        save_checkpoint(state, tmp_path / "nan.ckpt")
        with pytest.raises(CheckpointError, match=f"non-finite values in {what}"):
            load_checkpoint(tmp_path / "nan.ckpt")
