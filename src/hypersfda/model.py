"""Two-layer adaptable classifier with exact manual gradients.

The network is O = g(f(x)): an affine adapter f with a ReLU nonlinearity
followed by an affine classifier g with softmax. Gradients are computed by
hand (softmax Jacobian, ReLU subgradient 0 at 0) and applied by a
functional momentum-SGD step. Checkpoints are a small binary format with
bit-exact round-trip.
"""
from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AdaptConfig, ConfigError
from .datagen import EmbeddingDataset

CHECKPOINT_MAGIC = b"HSFD"
CHECKPOINT_VERSION_MODEL = 1
CHECKPOINT_VERSION_TRAINER = 2

PROB_FLOOR = 1e-12


class CheckpointError(ValueError):
    """Unreadable or malformed checkpoint file."""


@dataclass(frozen=True)
class AdaptModel:
    """Parameters of adapter f (W_f, b_f) and classifier g (W_g, b_g)."""

    W_f: np.ndarray  # (d, d_z)
    b_f: np.ndarray  # (d_z,)
    W_g: np.ndarray  # (d_z, |C|)
    b_g: np.ndarray  # (|C|,)

    def __post_init__(self) -> None:
        for name in ("W_f", "b_f", "W_g", "b_g"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            object.__setattr__(self, name, arr)
        if self.W_f.ndim != 2 or self.W_g.ndim != 2:
            raise ConfigError("weight matrices must be 2-D")
        d, d_z = self.W_f.shape
        d_z2, c = self.W_g.shape
        if d_z != d_z2 or self.b_f.shape != (d_z,) or self.b_g.shape != (c,):
            raise ConfigError(
                f"inconsistent parameter shapes: W_f {self.W_f.shape}, b_f {self.b_f.shape}, "
                f"W_g {self.W_g.shape}, b_g {self.b_g.shape}"
            )
        for name in ("W_f", "b_f", "W_g", "b_g"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite values in {name}")
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.W_f.shape[0]

    @property
    def d_z(self) -> int:
        return self.W_f.shape[1]

    @property
    def class_count(self) -> int:
        return self.W_g.shape[1]

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.W_f, self.b_f, self.W_g, self.b_g


@dataclass(frozen=True)
class GradientSet:
    """One buffer per parameter tensor, same shapes as AdaptModel."""

    W_f: np.ndarray
    b_f: np.ndarray
    W_g: np.ndarray
    b_g: np.ndarray

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.W_f, self.b_f, self.W_g, self.b_g

    @staticmethod
    def zeros_like(model: AdaptModel) -> "GradientSet":
        return GradientSet(*(np.zeros_like(t) for t in model.tensors()))


def init_model(dim: int, class_count: int, seed: int, d_z: int | None = None) -> AdaptModel:
    """Near-identity adapter plus 1/sqrt(fan_in)-scaled uniform classifier."""
    if dim < 1 or class_count < 2:
        raise ConfigError(f"need dim >= 1 and class_count >= 2, got {dim}, {class_count}")
    d_z = dim if d_z is None else d_z
    if d_z < 1:
        raise ConfigError(f"d_z must be >= 1, got {d_z}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 21])))
    W_f = np.eye(dim, d_z) + rng.uniform(-0.01, 0.01, (dim, d_z))
    b_f = rng.uniform(-1, 1, d_z) / np.sqrt(dim)
    W_g = rng.uniform(-1, 1, (d_z, class_count)) / np.sqrt(d_z)
    b_g = rng.uniform(-1, 1, class_count) / np.sqrt(d_z)
    return AdaptModel(W_f, b_f, W_g, b_g)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: AdaptModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (z, p) for a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.dim:
        raise ConfigError(f"input dim {x.shape[1]} does not match model dim {model.dim}")
    z = np.maximum(0.0, x @ model.W_f + model.b_f)
    return z, softmax(z @ model.W_g + model.b_g)


def backward(model: AdaptModel, batch_x: np.ndarray, z: np.ndarray, p: np.ndarray,
             upstream: np.ndarray) -> GradientSet:
    """Exact gradients of a loss given dL/dp for each batch row.

    Softmax Jacobian applied as dlogits = p * (u - (u . p)); ReLU passes
    gradient only where z > 0 (subgradient at 0 taken as 0).
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != p.shape or batch_x.shape[0] != p.shape[0]:
        raise ConfigError(
            f"upstream shape {upstream.shape} does not align with batch of {p.shape}"
        )
    dlogits = p * (upstream - (upstream * p).sum(axis=1, keepdims=True))
    dW_g = z.T @ dlogits
    db_g = dlogits.sum(axis=0)
    dz = (dlogits @ model.W_g.T) * (z > 0)
    dW_f = batch_x.T @ dz
    db_f = dz.sum(axis=0)
    return GradientSet(dW_f, db_f, dW_g, db_g)


def sgd_step(model: AdaptModel, grads: GradientSet, velocity: GradientSet,
             lr: float, momentum: float) -> tuple[AdaptModel, GradientSet]:
    """v <- momentum*v + grad; theta <- theta - lr*v. Functional, no mutation."""
    if lr <= 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    names = ("W_f", "b_f", "W_g", "b_g")
    new_v = []
    new_p = []
    for name, theta, g, v in zip(names, model.tensors(), grads.tensors(), velocity.tensors()):
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
        v_next = momentum * v + g
        new_v.append(v_next)
        new_p.append(theta - lr * v_next)
    return AdaptModel(*new_p), GradientSet(*new_v)


def smoothed_cross_entropy(p: np.ndarray, labels: np.ndarray, class_count: int,
                           epsilon: float) -> tuple[float, np.ndarray]:
    """Mean label-smoothed cross entropy and its gradient w.r.t. p."""
    n = p.shape[0]
    y = np.full((n, class_count), epsilon / class_count)
    y[np.arange(n), labels] += 1.0 - epsilon
    safe_p = np.maximum(p, PROB_FLOOR)
    loss = -(y * np.log(safe_p)).sum() / n
    upstream = -(y / safe_p) / n
    return float(loss), upstream


def accuracy(model: AdaptModel, ds: EmbeddingDataset) -> float:
    """Fraction of argmax predictions matching labels (ties to lower index)."""
    if ds.labels is None:
        raise ConfigError("accuracy requires a labeled dataset")
    _, p = forward(model, ds.features)
    return float(np.mean(p.argmax(axis=1) == ds.labels))


def pretrain_source(model: AdaptModel, source: EmbeddingDataset, epochs: int,
                    cfg: AdaptConfig) -> tuple[AdaptModel, float]:
    """Minimize smoothed cross entropy on the labeled source; returns accuracy too."""
    if source.labels is None:
        raise ConfigError("pretraining requires a labeled source dataset")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if source.class_count != model.class_count:
        raise ConfigError(
            f"dataset has {source.class_count} classes but model outputs {model.class_count}"
        )
    velocity = GradientSet.zeros_like(model)
    n = source.n
    for epoch in range(epochs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, 31, epoch]))
        )
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x = source.features[idx]
            z, p = forward(model, x)
            _, upstream = smoothed_cross_entropy(
                p, source.labels[idx], source.class_count, cfg.label_smoothing
            )
            grads = backward(model, x, z, p, upstream)
            model, velocity = sgd_step(model, grads, velocity, cfg.lr, cfg.momentum)
    return model, accuracy(model, source)


def write_arrays(fh, arrays, dtype: str = "<f8") -> None:
    for a in arrays:
        fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


@contextmanager
def checkpoint_writer(path: str | Path, version: int, model: AdaptModel):
    """Header and model tensors, then the caller's payload; replaces `path` atomically."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", version))
        fh.write(struct.pack("<III", model.dim, model.d_z, model.class_count))
        write_arrays(fh, model.tensors())
        yield fh
    os.replace(tmp, path)


def read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def read_array(fh, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    count = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(read_exact(fh, count, what), dtype=dtype).reshape(shape).copy()


def read_header(fh) -> tuple[int, int, int, int]:
    """Parse magic/version/dims; returns (version, d, d_z, class_count)."""
    magic = read_exact(fh, 4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<H", read_exact(fh, 2, "version"))
    if version not in (CHECKPOINT_VERSION_MODEL, CHECKPOINT_VERSION_TRAINER):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    d, d_z, c = struct.unpack("<III", read_exact(fh, 12, "dims"))
    return version, d, d_z, c


def read_model_tensors(fh, d: int, d_z: int, c: int) -> AdaptModel:
    shapes = [(d, d_z), (d_z,), (d_z, c), (c,)]
    return AdaptModel(
        *(read_array(fh, "<f8", shape, f"tensor of shape {shape}") for shape in shapes)
    )


def save_model(model: AdaptModel, path: str | Path) -> None:
    """Write a version-1 (model-only) checkpoint atomically."""
    with checkpoint_writer(path, CHECKPOINT_VERSION_MODEL, model):
        pass


def load_model(path: str | Path) -> AdaptModel:
    """Read the model from a version-1 or version-2 checkpoint."""
    with open(path, "rb") as fh:
        version, d, d_z, c = read_header(fh)
        model = read_model_tensors(fh, d, d_z, c)
        # version 2 continues with trainer state; version 1 must end here
        if version == CHECKPOINT_VERSION_MODEL and fh.read(1):
            raise CheckpointError("trailing bytes after model tensors")
        return model
