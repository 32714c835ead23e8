"""Synthetic Gaussian-blob datasets with a labeled/unlabeled class split.

Old classes (labeled) and new classes (unlabeled) occupy disjoint index
spaces. Ground truth for unlabeled examples is kept in a separate
evaluation-only registry so training code cannot touch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, check_finite_floats, parse_flat


class DataFormatError(Exception):
    """Raised for malformed dataset files."""


@dataclass(eq=False)
class LabeledSet:
    """Labeled examples from the old classes."""

    x: np.ndarray  # (N, input_dim) float64
    y: np.ndarray  # (N,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("labeled set arrays disagree on example count")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledSet)
            and self.num_classes == other.num_classes
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    def one_hot(self) -> np.ndarray:
        out = np.zeros((len(self), self.num_classes))
        out[np.arange(len(self)), self.y] = 1.0
        return out


@dataclass(eq=False)
class UnlabeledSet:
    """Unlabeled examples from the new classes. Carries no labels."""

    x: np.ndarray  # (N, input_dim) float64
    num_classes: int  # number of new classes the clustering head must find

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("unlabeled set must be a 2-D array")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    def __len__(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnlabeledSet)
            and self.num_classes == other.num_classes
            and np.array_equal(self.x, other.x)
        )


class HiddenTruth:
    """Evaluation-only registry of ground-truth classes for unlabeled rows.

    Keyed by row index within the unlabeled set. Every read is counted so
    tests can audit that the training path never consults it.
    """

    def __init__(self, labels: np.ndarray):
        self._labels = np.asarray(labels, dtype=np.int64).copy()
        self._labels.flags.writeable = False
        self.reads = 0

    def __len__(self) -> int:
        return self._labels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, HiddenTruth) and np.array_equal(self._labels, other._labels)

    def labels_for_eval(self) -> np.ndarray:
        """Return ground-truth classes. Evaluation code only."""
        self.reads += 1
        return self._labels


@dataclass(eq=False)
class Dataset:
    labeled: LabeledSet
    unlabeled: UnlabeledSet
    truth: HiddenTruth

    def __post_init__(self):
        if len(self.unlabeled) != len(self.truth):
            raise ValueError("truth registry size must match unlabeled set")
        if self.labeled.x.shape[1] != self.unlabeled.x.shape[1]:
            raise ValueError("labeled and unlabeled input_dim differ")

    @property
    def input_dim(self) -> int:
        return self.labeled.x.shape[1]

    @property
    def c_l(self) -> int:
        return self.labeled.num_classes

    @property
    def c_u(self) -> int:
        return self.unlabeled.num_classes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.labeled == other.labeled
            and self.unlabeled == other.unlabeled
            and self.truth == other.truth
        )


@dataclass
class SplitSpec:
    """Recipe for a synthetic old/new class split."""

    c_l: int = 5
    c_u: int = 5
    per_class: int = 200
    input_dim: int = 16
    separation: float = 6.0
    sigma: float = 1.0
    seed: int = 0

    def validate(self) -> "SplitSpec":
        check_finite_floats(self)
        if self.c_l < 1:
            raise ConfigError("c_l must be >= 1")
        if self.c_u < 2:
            raise ConfigError("c_u must be >= 2")
        if self.per_class < 1:
            raise ConfigError("per_class must be >= 1")
        if self.input_dim < self.c_l + self.c_u:
            raise ConfigError("input_dim must be >= c_l + c_u for the center layout")
        if self.separation < 0 or self.sigma < 0:
            raise ConfigError("separation and sigma must be >= 0")
        return self


def load_split_spec(path: str) -> SplitSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read split spec {path}: {exc}") from exc
    return parse_flat(text, SplitSpec).validate()


def generate_blobs(spec: SplitSpec) -> Dataset:
    """Sample one Gaussian cluster per class.

    Centers sit at (separation / sqrt(2)) * e_k so every pair of distinct
    centers is exactly `separation` apart. First c_l clusters become the
    labeled set; the rest become unlabeled with hidden ground truth.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    total = spec.c_l + spec.c_u
    scale = spec.separation / np.sqrt(2.0)
    blocks = []
    for k in range(total):
        center = np.zeros(spec.input_dim)
        center[k] = scale
        blocks.append(center + spec.sigma * rng.standard_normal((spec.per_class, spec.input_dim)))
    n_l = spec.c_l * spec.per_class
    x = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(total), spec.per_class)
    labeled = LabeledSet(x[:n_l], labels[:n_l], spec.c_l)
    unlabeled = UnlabeledSet(x[n_l:], spec.c_u)
    truth = HiddenTruth(labels[n_l:] - spec.c_l)
    return Dataset(labeled, unlabeled, truth)


def _fmt(value: float) -> str:
    # repr of a python float is the shortest string that round-trips exactly
    return repr(float(value))


def save_dataset(path: str, ds: Dataset) -> None:
    """Write header `omx-dataset,v1,input_dim,C_l,C_u` then one row per example."""
    lines = [f"omx-dataset,v1,{ds.input_dim},{ds.c_l},{ds.c_u}"]
    for i in range(len(ds.labeled)):
        feats = ",".join(_fmt(v) for v in ds.labeled.x[i])
        lines.append(f"L,{ds.labeled.y[i]},{feats}")
    hidden = ds.truth._labels  # same-module persistence path, not an eval read
    for i in range(len(ds.unlabeled)):
        feats = ",".join(_fmt(v) for v in ds.unlabeled.x[i])
        lines.append(f"U,{hidden[i]},{feats}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad {what} {token!r}") from None


def load_dataset(path: str) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    if not lines:
        raise DataFormatError("line 1: missing header")
    head = lines[0].split(",")
    if len(head) != 5 or head[0] != "omx-dataset" or head[1] != "v1":
        raise DataFormatError(f"line 1: bad header {lines[0]!r}")
    input_dim = _parse_int(head[2], 1, "input_dim")
    c_l = _parse_int(head[3], 1, "C_l")
    c_u = _parse_int(head[4], 1, "C_u")
    if input_dim < 1 or c_l < 1 or c_u < 1:
        raise DataFormatError("line 1: header counts must be >= 1")

    lx, ly, ux, uy = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 2 + input_dim:
            raise DataFormatError(
                f"line {lineno}: expected {2 + input_dim} fields, got {len(parts)}"
            )
        kind = parts[0]
        label = _parse_int(parts[1], lineno, "class index")
        try:
            feats = [float(tok) for tok in parts[2:]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad feature value") from None
        if not all(np.isfinite(feats)):
            raise DataFormatError(f"line {lineno}: non-finite feature value")
        if kind == "L":
            if not 0 <= label < c_l:
                raise DataFormatError(f"line {lineno}: labeled class {label} out of range")
            lx.append(feats)
            ly.append(label)
        elif kind == "U":
            if not 0 <= label < c_u:
                raise DataFormatError(f"line {lineno}: hidden class {label} out of range")
            ux.append(feats)
            uy.append(label)
        else:
            raise DataFormatError(f"line {lineno}: row kind must be L or U, got {kind!r}")

    labeled = LabeledSet(
        np.asarray(lx, dtype=np.float64).reshape(len(lx), input_dim),
        np.asarray(ly, dtype=np.int64),
        c_l,
    )
    unlabeled = UnlabeledSet(
        np.asarray(ux, dtype=np.float64).reshape(len(ux), input_dim), c_u
    )
    return Dataset(labeled, unlabeled, HiddenTruth(np.asarray(uy, dtype=np.int64)))


def batch_iter(data, batch_size: int, seed: int, epoch: int):
    """Yield index arrays covering a seeded permutation of `data`.

    The permutation depends on (seed, epoch) only. Every index appears
    exactly once; the last batch may be short.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(data)
    order = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
