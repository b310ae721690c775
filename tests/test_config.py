"""AdaptConfig: the one owner of every configuration check."""
import dataclasses
import json
import math

import numpy as np
import pytest

from hypersfda import AdaptConfig, ConfigError


class TestRanges:
    @pytest.mark.parametrize("field, value", [
        ("k", 2), ("t_in", 0), ("alpha", -0.1), ("h", 0), ("gamma", 0.0),
        ("gamma", -1.0), ("delta", -0.1), ("delta", 1.0), ("eta", -1e-9),
        ("beta", -0.5), ("batch_size", 0), ("lr", 0.0), ("lr", -1e-3),
        ("momentum", -0.1), ("momentum", 1.0), ("epochs", -1), ("m_prime", 0),
        ("d_z", 0), ("label_smoothing", -0.1), ("label_smoothing", 1.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            AdaptConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = AdaptConfig(k=3, t_in=1, alpha=0.0, h=1, delta=0.0, eta=0.0, beta=0.0,
                          batch_size=1, momentum=0.0, epochs=0, m_prime=1, d_z=1,
                          label_smoothing=0.0)
        assert cfg.k == 3 and cfg.epochs == 0


class TestTypes:
    @pytest.mark.parametrize("field, value", [
        ("k", "four"), ("h", True), ("k", 4.5), ("epochs", 1.5), ("seed", None),
        ("open_set", "no"), ("high_order", 1), ("lr", math.nan), ("lr", "0.1"),
        ("alpha", math.inf), ("gamma", -math.inf), ("eta", False), ("m_prime", 6.0),
    ])
    def test_wrong_type_or_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            AdaptConfig(**{field: value})

    def test_numpy_scalars_and_optional_none_accepted(self):
        cfg = AdaptConfig(k=np.int64(5), lr=np.float64(0.01), alpha=1, m_prime=None,
                          d_z=np.int32(4), open_set=True)
        assert cfg.k == 5 and cfg.d_z == 4 and cfg.m_prime is None

    def test_frozen(self):
        cfg = AdaptConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 9
        assert dataclasses.replace(cfg, k=9).k == 9 and cfg.k == 6
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, k=2)


class TestJson:
    def test_round_trip_and_manifest(self, tmp_path):
        cfg = AdaptConfig(k=4, m_prime=None, open_set=True, lr=0.5)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
        (tmp_path / "run.json").write_text(json.dumps({"config": cfg.to_dict()}))
        assert AdaptConfig.from_json(tmp_path / "cfg.json") == cfg
        assert AdaptConfig.from_json(tmp_path / "run.json") == cfg

    @pytest.mark.parametrize("payload", [
        b'{"k": 4', b'{"k": 4}\xff', b"\xff\xfe\x00", b"", b'"config"', b"[1, 2]",
        b'{"k": 4, "learning_rate": 0.1}', b'{"lr": NaN}', b'{"alpha": Infinity}',
    ])
    def test_bad_files_raise_config_error(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_bytes(payload)
        with pytest.raises(ConfigError):
            AdaptConfig.from_json(path)
