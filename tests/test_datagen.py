import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersfda import (
    ConfigError,
    DatasetFormatError,
    EmbeddingDataset,
    ShiftSpec,
    gen_gaussian_domains,
    gen_two_moons_domains,
    load_dataset,
    save_dataset,
)

from helpers import ref_csv_text, rng_for


def class_means(ds):
    return np.stack([ds.features[ds.labels == c].mean(axis=0)
                     for c in range(ds.class_count)])


class TestEmbeddingDataset:
    def test_basic_properties(self):
        ds = EmbeddingDataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), "source", 2)
        assert ds.n == 4 and ds.dim == 3 and ds.labeled
        assert ds.features.dtype == np.float64
        assert ds.labels.dtype == np.int64

    def test_arrays_are_frozen(self):
        ds = EmbeddingDataset(np.zeros((2, 2)), None, "target", 3)
        assert not ds.labeled
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_rejects_bad_domain_tag(self):
        with pytest.raises(ConfigError):
            EmbeddingDataset(np.zeros((2, 2)), None, "val", 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ConfigError):
            EmbeddingDataset(np.zeros((2, 2)), np.array([0, 2]), "source", 2)

    def test_rejects_non_finite_features(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = np.nan
        with pytest.raises(ConfigError):
            EmbeddingDataset(feats, None, "source", 2)

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ConfigError):
            EmbeddingDataset(np.zeros((3, 2)), np.array([0, 1]), "source", 2)


class TestShiftSpec:
    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            ShiftSpec(noise_sigma=-0.1)

    def test_translation_adds_to_every_target_coordinate(self):
        src0, tgt0 = gen_two_moons_domains(50, 50, ShiftSpec(), seed=1, dim=4)
        src, tgt = gen_two_moons_domains(50, 50, ShiftSpec(translation=0.5), seed=1, dim=4)
        assert np.array_equal(src.features, src0.features)
        assert np.array_equal(tgt.features, tgt0.features + 0.5)


class TestGaussianDomains:
    def test_shapes_tags_and_labels(self):
        shift = ShiftSpec(rotation_angle=0.3, noise_sigma=0.5, seed=7)
        src, tgt = gen_gaussian_domains(3, 8, 90, 120, shift, seed=1)
        assert (src.n, src.dim) == (90, 8)
        assert (tgt.n, tgt.dim) == (120, 8)
        assert src.domain_tag == "source" and tgt.domain_tag == "target"
        assert src.labeled and tgt.labeled
        counts = np.bincount(src.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_in_seed(self):
        shift = ShiftSpec(rotation_angle=0.3, noise_sigma=0.5, seed=7)
        a = gen_gaussian_domains(3, 8, 60, 60, shift, seed=5)
        b = gen_gaussian_domains(3, 8, 60, 60, shift, seed=5)
        c = gen_gaussian_domains(3, 8, 60, 60, shift, seed=6)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_identity_shift_keeps_means(self):
        src, tgt = gen_gaussian_domains(4, 10, 4000, 4000, ShiftSpec(), seed=3)
        gap = np.abs(class_means(src) - class_means(tgt)).max()
        assert gap < 0.25

    def test_rotation_moves_only_first_two_coordinates(self):
        shift = ShiftSpec(rotation_angle=np.pi / 2)
        src, tgt = gen_gaussian_domains(4, 6, 6000, 6000, shift, seed=3)
        gap = np.abs(class_means(src)[:, 2:] - class_means(tgt)[:, 2:]).max()
        assert gap < 0.25
        moved = np.abs(class_means(src)[:, :2] - class_means(tgt)[:, :2]).max()
        assert moved > 0.5

    def test_noise_perturbs_means_not_spread(self):
        # the shift moves whole clusters: within-class scatter stays sigma
        shift = ShiftSpec(noise_sigma=3.0, seed=11)
        src, tgt = gen_gaussian_domains(4, 8, 4000, 4000, shift, seed=2)
        gap = np.abs(class_means(src) - class_means(tgt)).max()
        assert gap > 1.0
        spread_t = np.stack([tgt.features[tgt.labels == c].std(axis=0)
                             for c in range(4)])
        assert np.abs(spread_t - 1.0).max() < 0.15

    def test_noise_shift_grows_with_sigma_majority(self):
        wins = 0
        for seed in range(7):
            gaps = []
            for nu in (0.3, 1.5):
                shift = ShiftSpec(noise_sigma=nu, seed=seed)
                src, tgt = gen_gaussian_domains(3, 6, 1200, 1200, shift, seed=seed)
                gaps.append(np.linalg.norm(class_means(src) - class_means(tgt)))
            wins += gaps[1] > gaps[0]
        assert wins >= 5

    def test_per_class_sigma_scales_spread(self):
        sig = (0.5, 2.0)
        src, _ = gen_gaussian_domains(2, 6, 4000, 100, ShiftSpec(), seed=4,
                                      separation=20.0, sigma=sig)
        blocks = [src.features[src.labels == c] for c in (0, 1)]
        spread = [(b - b.mean(axis=0)).std() for b in blocks]
        assert spread[0] < 0.7 < 1.3 < spread[1]

    def test_scalar_sigma_matches_constant_vector(self):
        a = gen_gaussian_domains(3, 5, 60, 60, ShiftSpec(), seed=9, sigma=1.3)
        b = gen_gaussian_domains(3, 5, 60, 60, ShiftSpec(), seed=9,
                                 sigma=(1.3, 1.3, 1.3))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            gen_gaussian_domains(3, 5, 30, 30, ShiftSpec(), seed=0, sigma=(1.0, 2.0))
        with pytest.raises(ConfigError):
            gen_gaussian_domains(3, 5, 30, 30, ShiftSpec(), seed=0, sigma=0.0)

    def test_rejects_tiny_configs(self):
        with pytest.raises(ConfigError):
            gen_gaussian_domains(1, 5, 30, 30, ShiftSpec(), seed=0)
        with pytest.raises(ConfigError):
            gen_gaussian_domains(3, 1, 30, 30, ShiftSpec(), seed=0)
        with pytest.raises(ConfigError):
            gen_gaussian_domains(3, 5, 2, 30, ShiftSpec(), seed=0)


class TestTwoMoons:
    def test_shapes_and_determinism(self):
        shift = ShiftSpec(rotation_angle=0.5, noise_sigma=0.2, seed=3)
        a = gen_two_moons_domains(80, 100, shift, seed=2, dim=8)
        b = gen_two_moons_domains(80, 100, shift, seed=2, dim=8)
        assert (a[0].n, a[0].dim) == (80, 8)
        assert (a[1].n, a[1].dim) == (100, 8)
        assert a[0].class_count == 2
        assert np.array_equal(a[1].features, b[1].features)

    def test_moons_are_not_linearly_trivial(self):
        src, _ = gen_two_moons_domains(400, 50, ShiftSpec(), seed=1, dim=6)
        gap = np.linalg.norm(class_means(src)[0] - class_means(src)[1])
        assert 0.3 < gap < 3.0


class TestSaveLoadRoundTrip:
    def test_labeled_round_trip_exact(self, tmp_path):
        src, _ = gen_gaussian_domains(3, 7, 40, 40, ShiftSpec(), seed=8)
        path = tmp_path / "ds.csv"
        save_dataset(src, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, src.features)
        assert np.array_equal(back.labels, src.labels)
        assert back.domain_tag == src.domain_tag
        assert back.class_count == src.class_count

    def test_unlabeled_round_trip(self, tmp_path):
        ds = EmbeddingDataset(np.array([[1.5, -2.25], [0.1, 3.0]]), None, "target", 4)
        path = tmp_path / "u.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert not back.labeled
        assert np.array_equal(back.features, ds.features)

    @pytest.mark.parametrize("labels", [np.array([1, 0, 2]), None])
    def test_writer_matches_value_by_value_formatting(self, tmp_path, labels):
        feats = np.array([[-0.0, 5e-324, 1e308, -1.5e-7, 0.1],
                          [0.1, -1.5e-7, 1e308, 5e-324, -0.0],
                          [-1e308, -5e-324, 0.0, 1.5e-7, -0.1]])
        ds = EmbeddingDataset(feats, labels, "target", 3)
        save_dataset(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == ref_csv_text(ds).encode("utf-8")
        assert load_dataset(tmp_path / "d.csv").features.tobytes() == feats.tobytes()

    def test_writer_holds_one_row_at_a_time(self, tmp_path):
        # the whole file as one string is about 2.4 MB here
        ds = EmbeddingDataset(rng_for(17).standard_normal((1000, 128)), None, "target", 2)
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert (tmp_path / "big.csv").read_bytes() == ref_csv_text(ds).encode("utf-8")

    @given(rows=st.lists(st.lists(st.floats(-1e12, 1e12, allow_nan=False,
                                            allow_infinity=False, width=64),
                                  min_size=3, max_size=3),
                         min_size=1, max_size=12))
    def test_round_trip_property(self, rows):
        feats = np.asarray(rows, dtype=np.float64)
        ds = EmbeddingDataset(feats, None, "source", 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            save_dataset(ds, path)
            back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#hypersfda-embeddings v1 dim=2 classes=2 labeled=1 domain=source\n"
                        "0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"#hypersfda-embeddings v1 dim=2 classes=2 labeled=1 domain=source\n"
                         b"0,1.0,2.0\n1,\xff,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3: file is not UTF-8 text"):
            load_dataset(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#something v1 dim=2 classes=2 labeled=1 domain=source\n0,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_wrong_cell_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#hypersfda-embeddings v1 dim=3 classes=2 labeled=0 domain=target\n"
                        "-,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#hypersfda-embeddings v1 dim=2 classes=2 labeled=1 domain=source\n"
                        "5,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_unlabeled_file_rejects_stray_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#hypersfda-embeddings v1 dim=2 classes=2 labeled=0 domain=target\n"
                        "3,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)
