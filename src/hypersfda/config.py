"""Run configuration for the adaptation engine."""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or generator argument."""


def seeded_rng(*key: int) -> np.random.Generator:
    """PCG64 generator on SeedSequence(key), key = (seed, stream id, ...).

    Stream ids keep the engine's draws independent of each other: 11-14
    the synthetic datasets (class means, source, target, shift noise), 21
    model init, 31 pretraining shuffles, 41 the PCA start and 71
    adaptation shuffles; epoch-wise streams append the epoch.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


@dataclass(frozen=True)
class AdaptConfig:
    """All knobs of the adaptation run, serializable for reproducibility.

    k            hyperedge degree (anchor + k-1 neighbors), must be > 2
    t_in         hypergraph refresh interval, in iterations
    alpha        weight of the coefficient-norm regularizer in the
                 neighbor-reconstruction solve
    h            cluster size (close-set neighbors per sample)
    gamma        sharpness exponent of the prediction-distance weighting
    delta        EMA factor for the accumulated target predictions
    eta          weight of the KL regularizer in the total loss
    beta         decay exponent of the pull/push balancing factor
    m_prime      compressed node-representation width (None: min(64, n-1))
    d_z          adapter output width (None: same as input dim)
    open_set     split target samples by entropy and train on the
                 low-entropy ("known") cluster only
    use_self_loops / high_order   ablation switches; both on by default

    Every value is checked against its declared type (floats must also be
    finite) and its range at construction; the object is frozen, so use
    dataclasses.replace to change a field.
    """

    k: int = 6
    t_in: int = 50
    alpha: float = 2.0
    h: int = 3
    gamma: float = 7.0
    delta: float = 0.8
    eta: float = 2.0
    beta: float = 0.25
    batch_size: int = 64
    lr: float = 1e-3
    momentum: float = 0.9
    epochs: int = 10
    m_prime: int | None = None
    d_z: int | None = None
    seed: int = 0
    open_set: bool = False
    use_self_loops: bool = True
    high_order: bool = True
    label_smoothing: float = 0.1

    def __post_init__(self) -> None:
        for name, (kind, optional) in FIELD_TYPES.items():
            value = getattr(self, name)
            if not (optional and value is None or _is_kind(value, kind)):
                raise ConfigError(f"{name} must be {_KIND_TEXT[kind]}, got {value!r}")
        for name, ok, rule in (
            ("k", self.k > 2, "> 2"),
            ("t_in", self.t_in >= 1, ">= 1"),
            ("alpha", self.alpha >= 0, ">= 0"),
            ("h", self.h >= 1, ">= 1"),
            ("gamma", self.gamma > 0, "> 0"),
            ("delta", 0 <= self.delta < 1, "in [0, 1)"),
            ("eta", self.eta >= 0, ">= 0"),
            ("beta", self.beta >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", self.lr > 0, "> 0"),
            ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("m_prime", self.m_prime is None or self.m_prime >= 1, ">= 1"),
            ("d_z", self.d_z is None or self.d_z >= 1, ">= 1"),
            ("label_smoothing", 0 <= self.label_smoothing < 1, "in [0, 1)"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptConfig":
        unknown = set(data) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "AdaptConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise ConfigError(f"config file {path} is not JSON text: {exc}") from None
        # a run manifest embeds the config under "config"
        if isinstance(data, dict) and isinstance(data.get("config"), dict):
            data = data["config"]
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} does not hold a JSON object")
        return cls.from_dict(data)


_KIND_TEXT = {int: "an integer", float: "a finite number", bool: "true or false"}


def _is_kind(value, kind: type) -> bool:
    """int: any integral but bool; float: any finite real but bool; bool: bool."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and math.isfinite(value)


# field name -> (int, float or bool; whether None is allowed), read from the
# annotations above; the CLI registers its flags from this table
FIELD_TYPES = {
    f.name: ({"int": int, "float": float, "bool": bool}[f.type.removesuffix(" | None")],
             f.type.endswith(" | None"))
    for f in fields(AdaptConfig)
}
