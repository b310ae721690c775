"""Embedding datasets, their CSV format, and synthetic domain-shift generators.

Datasets are plain matrices of per-sample feature vectors plus optional
integer labels. The generators produce a labeled source dataset and a
shifted target dataset from the same underlying mixture; target labels are
kept for evaluation only.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, seeded_rng

FORMAT_MAGIC = "#hypersfda-embeddings"
FORMAT_VERSION = "v1"

# independent sub-streams hung off a generator seed
_STREAM_MEANS = 11
_STREAM_SOURCE = 12
_STREAM_TARGET = 13
_STREAM_SHIFT = 14


class DatasetFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class EmbeddingDataset:
    """n x d feature matrix with optional labels and a domain tag."""

    features: np.ndarray
    labels: np.ndarray | None
    domain_tag: str
    class_count: int

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "features", feats)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ConfigError(f"features must be a nonempty 2-D matrix, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise ConfigError("features contain non-finite values")
        if self.class_count < 1:
            raise ConfigError(f"class_count must be >= 1, got {self.class_count}")
        if self.domain_tag not in ("source", "target"):
            raise ConfigError(f"domain_tag must be 'source' or 'target', got {self.domain_tag!r}")
        if self.labels is not None:
            labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
            object.__setattr__(self, "labels", labels)
            if labels.shape != (feats.shape[0],):
                raise ConfigError(
                    f"labels shape {labels.shape} does not match {feats.shape[0]} samples"
                )
            if labels.min() < 0 or labels.max() >= self.class_count:
                raise ConfigError(
                    f"labels must lie in [0, {self.class_count}), "
                    f"got range [{labels.min()}, {labels.max()}]"
                )
            labels.flags.writeable = False
        feats.flags.writeable = False

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled(self) -> bool:
        return self.labels is not None


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of the synthetic source-to-target shift.

    The shift acts on the class structure, not on individual samples: the
    target mixture means are rotated, translated, and then perturbed by a
    random per-class offset of scale noise_sigma, so target clusters stay
    as tight as source clusters but sit in shifted positions.

    rotation_angle   radians, applied in a fixed 2-D plane
    translation      added to every target coordinate
    noise_sigma      stdev of the random per-class mean offset
    seed             seed of the mean-offset stream
    """

    rotation_angle: float = 0.0
    translation: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _rotate_first_two(x: np.ndarray, angle: float) -> np.ndarray:
    """Rotate the first two coordinates of each row by `angle` radians."""
    out = x.copy()
    c, s = np.cos(angle), np.sin(angle)
    out[:, 0] = c * x[:, 0] - s * x[:, 1]
    out[:, 1] = s * x[:, 0] + c * x[:, 1]
    return out


def _balanced_labels(n: int, class_count: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled round-robin labels so every class appears when n >= class_count."""
    return rng.permutation(np.arange(n, dtype=np.int64) % class_count)


def _simplex_means(class_count: int, dim: int, separation: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Class means with controlled pairwise separation, randomly oriented.

    For dim >= class_count the means are the vertices of a regular simplex
    (centered standard-basis vectors) scaled so that every pairwise distance
    equals `separation`, then rotated by a random orthogonal map. In lower
    ambient dimensions equidistance is impossible; falls back to random
    unit directions at the same scale.
    """
    if dim >= class_count:
        base = np.zeros((class_count, dim))
        base[:, :class_count] = np.eye(class_count)
    else:
        base = rng.standard_normal((class_count, dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
    base -= base.mean(axis=0)
    # centered basis vectors are sqrt(2)/... apart; rescale to the target gap
    gap = np.linalg.norm(base[0] - base[1])
    base *= separation / gap
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return base @ q.T


def _mixture(n: int, means: np.ndarray, sig: np.ndarray, rng: np.random.Generator,
             domain: str) -> EmbeddingDataset:
    """n balanced samples of the mixture with these means and per-class scales.

    Built in place around one n x dim array: x * s + m has the bits of m + s * x.
    """
    labels = _balanced_labels(n, len(means), rng)
    feats = rng.standard_normal((n, means.shape[1]))
    feats *= sig[labels, None]
    feats += means[labels]
    return EmbeddingDataset(feats, labels, domain, len(means))


def gen_gaussian_domains(
    class_count: int,
    dim: int,
    n_source: int,
    n_target: int,
    shift: ShiftSpec,
    seed: int,
    separation: float = 4.0,
    sigma: float | Sequence[float] = 1.0,
) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Labeled Gaussian-mixture source plus a shifted target from the same mixture.

    The target mixture means are rotated by shift.rotation_angle in the
    first two coordinates, translated, and perturbed per class by a random
    offset of scale shift.noise_sigma (drawn from shift.seed), so target
    clusters keep their shape but move. `sigma` may be one scale for all
    components or one per class (unequal cluster widths, shared by both
    domains). Pure function of its arguments, including the seeds.
    """
    if class_count < 2:
        raise ConfigError(f"class_count must be >= 2, got {class_count}")
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")
    if n_source < class_count or n_target < class_count:
        raise ConfigError(
            f"sample counts must be >= class_count={class_count}, "
            f"got n_source={n_source}, n_target={n_target}"
        )
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.ndim == 0:
        sig = np.full(class_count, float(sig))
    if sig.shape != (class_count,) or not np.all(np.isfinite(sig)) or np.any(sig <= 0):
        raise ConfigError(
            f"sigma must be a positive scalar or {class_count} positive scales"
        )
    means = _simplex_means(
        class_count, dim, separation * float(np.mean(sig)), seeded_rng(seed, _STREAM_MEANS)
    )
    means_t = _rotate_first_two(means, shift.rotation_angle) + shift.translation
    if shift.noise_sigma > 0:
        rng_n = seeded_rng(shift.seed, _STREAM_SHIFT)
        means_t += shift.noise_sigma * rng_n.standard_normal((class_count, dim))
    return (_mixture(n_source, means, sig, seeded_rng(seed, _STREAM_SOURCE), "source"),
            _mixture(n_target, means_t, sig, seeded_rng(seed, _STREAM_TARGET), "target"))


def gen_two_moons_domains(
    n_source: int,
    n_target: int,
    shift: ShiftSpec,
    seed: int,
    dim: int = 8,
    moon_noise: float = 0.1,
) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Two interleaved half-circles lifted to `dim` by a fixed random affine map.

    The shift rotation acts in the intrinsic 2-D moon plane about the moons'
    centroid, so rotation_angle = pi swaps the two class clusters exactly.
    Translation and the per-class noise_sigma offsets act in the ambient
    space after lifting.
    """
    if n_source < 2 or n_target < 2:
        raise ConfigError(
            f"sample counts must be >= 2, got n_source={n_source}, n_target={n_target}"
        )
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")

    rng_embed = seeded_rng(seed, _STREAM_MEANS)
    q, _ = np.linalg.qr(rng_embed.standard_normal((dim, 2)))
    embed = q.T  # (2, dim), orthonormal rows
    offset = rng_embed.standard_normal(dim)

    def moons2d(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n_up = n // 2
        n_dn = n - n_up
        t_up = rng.uniform(0.0, np.pi, n_up)
        t_dn = rng.uniform(0.0, np.pi, n_dn)
        upper = np.stack([np.cos(t_up), np.sin(t_up)], axis=1)
        lower = np.stack([1.0 - np.cos(t_dn), 0.5 - np.sin(t_dn)], axis=1)
        pts = np.concatenate([upper, lower], axis=0)
        pts += moon_noise * rng.standard_normal(pts.shape)
        labels = np.concatenate([np.zeros(n_up, np.int64), np.ones(n_dn, np.int64)])
        perm = rng.permutation(n)
        return pts[perm], labels[perm]

    centroid = np.array([0.5, 0.25])

    pts_s, labels_s = moons2d(n_source, seeded_rng(seed, _STREAM_SOURCE))
    pts_t, labels_t = moons2d(n_target, seeded_rng(seed, _STREAM_TARGET))
    c, s = np.cos(shift.rotation_angle), np.sin(shift.rotation_angle)
    rot = np.array([[c, -s], [s, c]])
    pts_t = (pts_t - centroid) @ rot.T + centroid

    feats_s = pts_s @ embed + offset
    feats_t = pts_t @ embed + offset
    feats_t += shift.translation
    if shift.noise_sigma > 0:
        rng_n = seeded_rng(shift.seed, _STREAM_SHIFT)
        class_offsets = shift.noise_sigma * rng_n.standard_normal((2, dim))
        feats_t += class_offsets[labels_t]

    source = EmbeddingDataset(feats_s, labels_s, "source", 2)
    target = EmbeddingDataset(feats_t, labels_t, "target", 2)
    return source, target


def save_dataset(ds: EmbeddingDataset, path: str | Path) -> None:
    """Write a dataset as UTF-8 CSV, row by row; floats use shortest round-trip form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_MAGIC} {FORMAT_VERSION} dim={ds.dim} classes={ds.class_count} "
                 f"labeled={int(ds.labeled)} domain={ds.domain_tag}\n")
        for i in range(ds.n):
            label = str(int(ds.labels[i])) if ds.labeled else "-"
            fh.write(f"{label},{','.join(map(repr, ds.features[i].tolist()))}\n")


def _parse_header(line: str) -> dict:
    parts = line.strip().split()
    if len(parts) != 6 or parts[0] != FORMAT_MAGIC:
        raise DatasetFormatError(
            f"header must start with '{FORMAT_MAGIC} {FORMAT_VERSION}'", line=1
        )
    if parts[1] != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format version {parts[1]!r}", line=1)
    fields_: dict[str, str] = {}
    for token in parts[2:]:
        if "=" not in token:
            raise DatasetFormatError(f"malformed header token {token!r}", line=1)
        key, value = token.split("=", 1)
        fields_[key] = value
    for key in ("dim", "classes", "labeled", "domain"):
        if key not in fields_:
            raise DatasetFormatError(f"header missing '{key}'", line=1)
    try:
        out = {
            "dim": int(fields_["dim"]),
            "classes": int(fields_["classes"]),
            "labeled": int(fields_["labeled"]),
            "domain": fields_["domain"],
        }
    except ValueError as exc:
        raise DatasetFormatError(f"non-integer header field: {exc}", line=1) from None
    if out["labeled"] not in (0, 1):
        raise DatasetFormatError("header field labeled must be 0 or 1", line=1)
    return out


def _decode(raw: bytes, lineno: int) -> str:
    """One line of a dataset file as text, without its line ending."""
    try:
        return raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError:
        raise DatasetFormatError("file is not UTF-8 text", line=lineno) from None


def load_dataset(path: str | Path) -> EmbeddingDataset:
    """Parse a dataset CSV; errors carry the 1-based offending line number.

    Reads one line at a time, twice: the first pass counts the data rows,
    the second fills one preallocated feature array, so the file's text is
    never held whole and the file must be seekable (not a pipe). The first
    faulty line is the one reported; a file whose row count changes between
    the passes is refused.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():
            raise DatasetFormatError(f"{path} is not seekable: save a pipe's data to a file first")
        if not (first := fh.readline()):
            raise DatasetFormatError("empty file", line=1)
        header = _parse_header(_decode(first, 1))
        dim, classes, labeled = header["dim"], header["classes"], header["labeled"]
        n = sum(1 for raw in fh if raw.decode("utf-8", "replace").strip())
        if not n:
            raise DatasetFormatError("file contains no data rows", line=2)
        # A valid row takes 2 * dim + 1 bytes or more, so a file with more rows
        # than its size can hold has a bad row among the first `rows` + 1, and
        # the checks below report it before the array runs out of rows.
        rows = min(n, fh.tell() // (2 * dim + 1))
        fh.seek(len(first))
        i, labels = 0, []
        for lineno, raw in enumerate(fh, start=2):
            line = _decode(raw, lineno)
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != dim + 1:
                raise DatasetFormatError(
                    f"expected 1 label and {dim} values, found {len(cells)} cells",
                    line=lineno,
                )
            if i == 0:  # a row has shown that dim >= 0: allocate once
                feats = np.empty((rows, dim))
            label_cell = cells[0].strip()
            if labeled:
                try:
                    label = int(label_cell)
                except ValueError:
                    raise DatasetFormatError(
                        f"expected integer label, got {label_cell!r}", line=lineno
                    ) from None
                if not 0 <= label < classes:
                    raise DatasetFormatError(
                        f"label {label} out of range [0, {classes})", line=lineno
                    )
                labels.append(label)
            elif label_cell != "-":
                raise DatasetFormatError(
                    f"unlabeled file must use '-' in the label column, got {label_cell!r}",
                    line=lineno,
                )
            try:  # numpy parses str cells with float()'s rules and error text
                values = np.array(cells[1:], dtype=np.float64)
            except ValueError as exc:
                raise DatasetFormatError(f"bad float: {exc}", line=lineno) from None
            if not np.isfinite(values).all():
                raise DatasetFormatError("non-finite feature value", line=lineno)
            if i == rows:  # more valid rows than were counted: the file grew
                raise DatasetFormatError("file changed while it was read", line=lineno)
            feats[i] = values
            i += 1
    if i < n:
        raise DatasetFormatError("file changed while it was read")
    try:
        return EmbeddingDataset(feats, labels if labeled else None, header["domain"], classes)
    except ConfigError as exc:
        raise DatasetFormatError(str(exc)) from None
