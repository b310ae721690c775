"""Two-layer adaptable classifier with exact manual gradients.

The network is O = g(f(x)): an affine adapter f with a ReLU nonlinearity
followed by an affine classifier g with softmax. Gradients are computed by
hand (softmax Jacobian, ReLU subgradient 0 at 0) and applied by a
functional momentum-SGD step. Checkpoints are a small binary format with
bit-exact round-trip.
"""
from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import AdaptConfig, ConfigError, seeded_rng
from .datagen import EmbeddingDataset

CHECKPOINT_MAGIC = b"HSFD"
CHECKPOINT_VERSION_MODEL = 1
CHECKPOINT_VERSION_TRAINER = 2

PROB_FLOOR = 1e-12


class CheckpointError(ValueError):
    """Unreadable or malformed checkpoint file."""


class TrainingAborted(RuntimeError):
    """Raised when non-finite values or an overflowing refresh stop training.

    last_good is what the caller may save: the TrainerState before the
    failing adaptation iteration, or the AdaptModel before the failing
    pretraining step.
    """

    def __init__(self, message: str, last_good):
        super().__init__(message)
        self.last_good = last_good


PARAM_NAMES = ("W_f", "b_f", "W_g", "b_g")


@dataclass(frozen=True)
class ParamVector:
    """W_f (d, d_z), b_f (d_z,), W_g (d_z, |C|) and b_g (|C|,) as views of one vector.

    `flat` is a contiguous float64 vector holding the four tensors in that
    order, row-major; the fields are reshaped views into it, so whole-set
    arithmetic runs once over `flat`.
    """

    W_f: np.ndarray
    b_f: np.ndarray
    W_g: np.ndarray
    b_g: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tensors = [np.asarray(getattr(self, name), dtype=np.float64) for name in PARAM_NAMES]
        W_f, b_f, W_g, b_g = tensors
        if not (W_f.ndim == W_g.ndim == 2 and b_f.shape == W_f.shape[1:] == W_g.shape[:1]
                and b_g.shape == W_g.shape[1:]):
            raise ConfigError("inconsistent parameter shapes: " + ", ".join(
                f"{name} {t.shape}" for name, t in zip(PARAM_NAMES, tensors)))
        self._bind(np.concatenate([t.ravel() for t in tensors]), *W_f.shape, W_g.shape[1])

    def _bind(self, flat: np.ndarray, d: int, d_z: int, c: int) -> None:
        i, j, k = d * d_z, (d + 1) * d_z, (d + 1 + c) * d_z
        self.__dict__.update(flat=flat, W_f=flat[:i].reshape(d, d_z), b_f=flat[i:j],
                             W_g=flat[j:k].reshape(d_z, c), b_g=flat[k:])

    @classmethod
    def from_flat(cls, flat: np.ndarray, d: int, d_z: int, c: int):
        """Views over `flat` (taken, not copied), with no checks."""
        params = object.__new__(cls)
        params._bind(flat, d, d_z, c)
        return params

    def __deepcopy__(self, memo) -> "ParamVector":
        # copying each view separately would cut it loose from the new vector
        return self.from_flat(self.flat.copy(), *self.dims)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(d, d_z, |C|)."""
        return (*self.W_f.shape, self.W_g.shape[1])

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.W_f, self.b_f, self.W_g, self.b_g

    def non_finite(self) -> str | None:
        """Name of the first tensor holding a non-finite value, or None."""
        return next((name for name, t in zip(PARAM_NAMES, self.tensors())
                     if not np.isfinite(t).all()), None)


class AdaptModel(ParamVector):
    """Parameters of adapter f (W_f, b_f) and classifier g (W_g, b_g); read-only, finite."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if (bad := self.non_finite()) is not None:
            raise FloatingPointError(f"non-finite values in {bad}")

    def _bind(self, flat: np.ndarray, d: int, d_z: int, c: int) -> None:
        flat.flags.writeable = False
        super()._bind(flat, d, d_z, c)

    @property
    def dim(self) -> int:
        return self.W_f.shape[0]

    @property
    def d_z(self) -> int:
        return self.W_f.shape[1]

    @property
    def class_count(self) -> int:
        return self.W_g.shape[1]


class GradientSet(ParamVector):
    """Gradients or momentum, same layout as AdaptModel; writable."""

    @staticmethod
    def zeros_like(model: AdaptModel) -> "GradientSet":
        return GradientSet.from_flat(np.zeros(model.flat.size), *model.dims)


def init_model(dim: int, class_count: int, seed: int, d_z: int | None = None) -> AdaptModel:
    """Near-identity adapter plus 1/sqrt(fan_in)-scaled uniform classifier."""
    if dim < 1 or class_count < 2:
        raise ConfigError(f"need dim >= 1 and class_count >= 2, got {dim}, {class_count}")
    d_z = dim if d_z is None else d_z
    if d_z < 1:
        raise ConfigError(f"d_z must be >= 1, got {d_z}")
    rng = seeded_rng(seed, 21)
    W_f = np.eye(dim, d_z) + rng.uniform(-0.01, 0.01, (dim, d_z))
    b_f = rng.uniform(-1, 1, d_z) / np.sqrt(dim)
    W_g = rng.uniform(-1, 1, (d_z, class_count)) / np.sqrt(d_z)
    b_g = rng.uniform(-1, 1, class_count) / np.sqrt(d_z)
    return AdaptModel(W_f, b_f, W_g, b_g)


class Workspace:
    """Buffers of one training step on batches of up to `rows` rows, allocated once per run.

    backward and sgd_step always write here, and forward does when given
    one: forward writes z and p, backward dz and the gradients, and
    sgd_step the new velocity, into whichever of the two velocity vectors
    the velocity passed in is not, so they take turns and the velocity
    passed in survives a failed step. Each new model's parameters are a
    fresh vector, so an AdaptModel never changes.
    """

    def __init__(self, model: AdaptModel, rows: int):
        self.z, self.dz = np.empty((2, rows, model.d_z))
        self.active, self.p = np.empty(self.z.shape, bool), np.empty((rows, model.class_count))
        self.grads, *self.velocities = [GradientSet.zeros_like(model) for _ in range(3)]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for stability, in place: returns logits."""
    np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def forward(model: AdaptModel, x: np.ndarray,
            ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return (z, p) for a batch of rows: fresh arrays, or rows of the workspace's."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.dim:
        raise ConfigError(f"input dim {x.shape[1]} does not match model dim {model.dim}")
    z, p = (None, None) if ws is None else (ws.z[:len(x)], ws.p[:len(x)])
    z = np.maximum(0.0, np.add(np.matmul(x, model.W_f, out=z), model.b_f, out=z), out=z)
    p = np.add(np.matmul(z, model.W_g, out=p), model.b_g, out=p)
    return z, softmax(p)


def backward(model: AdaptModel, batch_x: np.ndarray, z: np.ndarray, p: np.ndarray,
             upstream: np.ndarray, ws: Workspace) -> GradientSet:
    """Exact gradients of a loss given dL/dp for each batch row, in the workspace's arrays.

    Softmax Jacobian applied as dlogits = p * (u - (u . p)); ReLU passes
    gradient only where z > 0 (subgradient at 0 taken as 0).
    """
    if upstream.shape != p.shape or batch_x.shape[0] != p.shape[0]:
        raise ConfigError(
            f"upstream shape {upstream.shape} does not align with batch of {p.shape}"
        )
    dlogits = p * (upstream - (upstream * p).sum(axis=1, keepdims=True))
    grads = ws.grads
    np.matmul(z.T, dlogits, out=grads.W_g)
    dlogits.sum(axis=0, out=grads.b_g)
    dz = np.matmul(dlogits, model.W_g.T, out=ws.dz[:len(p)])
    dz *= np.greater(z, 0.0, out=ws.active[:len(p)])
    np.matmul(batch_x.T, dz, out=grads.W_f)
    dz.sum(axis=0, out=grads.b_f)
    return grads


def sgd_step(model: AdaptModel, grads: GradientSet, velocity: GradientSet, lr: float,
             momentum: float, ws: Workspace) -> tuple[AdaptModel, GradientSet]:
    """v <- momentum*v + grad; theta <- theta - lr*v over the flat vectors.

    Neither the model nor the velocity passed in changes. The new velocity
    is the workspace's other velocity vector; the new model is always
    fresh. A non-finite result names the first non-finite gradient tensor,
    or else the first non-finite parameter tensor. AdaptConfig checks lr
    and momentum.
    """
    new_velocity = ws.velocities[velocity is ws.velocities[0]]
    v = np.multiply(velocity.flat, momentum, out=new_velocity.flat)
    v += grads.flat
    theta = v * -lr  # theta - lr * v bit for bit, one temporary fewer
    theta += model.flat
    new_model = AdaptModel.from_flat(theta, *model.dims)
    if not np.isfinite(theta).all():
        bad = grads.non_finite()
        raise FloatingPointError(f"non-finite gradient in {bad}" if bad is not None
                                 else f"non-finite values in {new_model.non_finite()}")
    return new_model, new_velocity


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


def check_pretrain_inputs(model: AdaptModel, source: EmbeddingDataset, epochs: int) -> None:
    """Raise ConfigError unless `pretrain_source` can run these inputs."""
    if source.labels is None:
        raise ConfigError("pretraining requires a labeled source dataset")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if source.class_count != model.class_count:
        raise ConfigError(
            f"dataset has {source.class_count} classes but model outputs {model.class_count}"
        )


def pretrain_source(model: AdaptModel, source: EmbeddingDataset, epochs: int,
                    cfg: AdaptConfig) -> tuple[AdaptModel, float]:
    """Minimize smoothed cross entropy on the labeled source; returns accuracy too.

    A step that leaves a non-finite gradient or weight stops the run:
    TrainingAborted raises, naming the epoch and the step within it and
    carrying the last finite model. No file is written.
    check_pretrain_inputs refuses inputs the run cannot use.
    """
    check_pretrain_inputs(model, source, epochs)
    ws = Workspace(model, cfg.batch_size)
    velocity = ws.velocities[0]
    n = source.n
    for epoch in range(epochs):
        perm = seeded_rng(cfg.seed, 31, epoch).permutation(n)
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            x = source.features[idx]
            z, p = forward(model, x, ws)
            _, upstream = smoothed_cross_entropy(
                p, source.labels[idx], source.class_count, cfg.label_smoothing
            )
            grads = backward(model, x, z, p, upstream, ws)
            try:
                model, velocity = sgd_step(model, grads, velocity, cfg.lr, cfg.momentum, ws)
            except FloatingPointError as exc:
                raise TrainingAborted(
                    f"pretraining aborted at epoch {epoch}, step {step}: {exc}", model) from exc
    return model, accuracy(model, source)


def write_arrays(fh, arrays, dtype: str = "<f8") -> None:
    for a in arrays:  # the array's own buffer, not a bytes copy of it
        fh.write(np.ascontiguousarray(a, dtype=dtype))


@contextmanager
def checkpoint_writer(path: str | Path, version: int, model: AdaptModel):
    """Header and model tensors, then the caller's payload; replaces `path` atomically."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", version))
        fh.write(struct.pack("<III", model.dim, model.d_z, model.class_count))
        write_arrays(fh, [model.flat])
        yield fh
    os.replace(tmp, path)


def read_exact(fh, count: int, what: str) -> bytes:
    # checked against the bytes left first: read(count) allocates count bytes
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return fh.read(count)


def read_array(fh, dtype: str, shape: tuple[int, ...], what: str,
               finite: bool = True) -> np.ndarray:
    """The next array of `shape` in the file; a float array must be finite if `finite`."""
    count = math.prod(shape) * np.dtype(dtype).itemsize
    arr = np.frombuffer(read_exact(fh, count, what), dtype=dtype).reshape(shape).copy()
    if finite and arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise CheckpointError(f"non-finite values in {what}")
    return arr


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


def read_params(fh, d: int, d_z: int, c: int, kind=AdaptModel):
    """The parameter vector as an AdaptModel (or a GradientSet); it must be finite."""
    flat = read_array(fh, "<f8", ((d + 1 + c) * d_z + c,), "parameters", finite=False)
    params = kind.from_flat(flat, d, d_z, c)
    if (bad := params.non_finite()) is not None:
        raise CheckpointError(f"non-finite values in tensor of shape {getattr(params, bad).shape}")
    return params


def save_model(model: AdaptModel, path: str | Path) -> None:
    """Write a version-1 (model-only) checkpoint atomically."""
    with checkpoint_writer(path, CHECKPOINT_VERSION_MODEL, model):
        pass


def load_model(path: str | Path) -> AdaptModel:
    """Read the model from a version-1 or version-2 checkpoint."""
    with open(path, "rb") as fh:
        version, d, d_z, c = read_header(fh)
        model = read_params(fh, d, d_z, c)
        # version 2 continues with trainer state; version 1 must end here
        if version == CHECKPOINT_VERSION_MODEL and fh.read(1):
            raise CheckpointError("trailing bytes after model tensors")
        return model
