"""Synthetic Gaussian-blob datasets with a labeled/unlabeled class split.

Old classes (labeled) and new classes (unlabeled) occupy disjoint index
spaces. Ground truth for unlabeled examples is kept in a separate
evaluation-only registry so training code cannot touch it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import MAX_CONFIG_BYTES, MAX_WIDTH, ConfigError, check_finite_floats, parse_flat
from .fileio import read_text, write_atomic


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
        # by value, as perfbench's dataset check needs; the hidden labels are compared uncounted
        def parts(d):
            return d.c_l, d.c_u, d.labeled.x, d.labeled.y, d.unlabeled.x, d.truth._labels

        return isinstance(other, Dataset) and all(map(np.array_equal, parts(self), parts(other)))


# Class counts a dataset may declare: evaluation's k x k contingency table
# and its float copy take 256 MB at the cap, a one-hot label 32 KB a row.
MAX_CLASSES = 2**12

# Feature values a generated or loaded split may hold, and rows x classes on each
# side of a loaded file (its one-hot labels and logits): 128 MB as float64, 8 times
# the paper-shaped split (c_l=80, c_u=20, input_dim=100, per_class=200). As
# input_dim >= c_l + c_u, a generated split keeps within both and MAX_CLASSES.
MAX_SPLIT_VALUES = 2**24


@dataclass
class SplitSpec:
    """Recipe for a synthetic old/new class split."""

    c_l: int = 5
    c_u: int = 5
    per_class: int = 200
    input_dim: int = 16
    separation: float = 6.0
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
        if (self.c_l + self.c_u) * self.per_class * self.input_dim > MAX_SPLIT_VALUES:
            raise ConfigError(f"(c_l + c_u) * per_class * input_dim must be <= {MAX_SPLIT_VALUES}")
        if self.input_dim > MAX_WIDTH:
            raise ConfigError(f"input_dim must be <= {MAX_WIDTH}")
        if self.separation < 0:
            raise ConfigError("separation must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


def load_split_spec(path: str) -> SplitSpec:
    text = read_text(path, "split spec", ConfigError, MAX_CONFIG_BYTES)
    return parse_flat(text, SplitSpec).validate()


def generate_blobs(spec: SplitSpec) -> Dataset:
    """Sample one unit-variance Gaussian cluster per class.

    Centers sit at (separation / sqrt(2)) * e_k so every pair of distinct centers is exactly
    `separation` apart. First c_l clusters become the labeled set; the rest become unlabeled
    with hidden ground truth. Each class is drawn straight into its rows of one array.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    total = spec.c_l + spec.c_u
    scale = spec.separation / np.sqrt(2.0)
    x = np.empty((total * spec.per_class, spec.input_dim))
    blocks = x.reshape(total, spec.per_class, spec.input_dim)  # a view: one block per class
    for k in range(total):
        rng.standard_normal(out=blocks[k])
        blocks[k, :, k] += scale
    n_l = spec.c_l * spec.per_class
    labels = np.repeat(np.arange(total), spec.per_class)
    labeled = LabeledSet(x[:n_l], labels[:n_l], spec.c_l)
    unlabeled = UnlabeledSet(x[n_l:], spec.c_u)
    truth = HiddenTruth(labels[n_l:] - spec.c_l)
    return Dataset(labeled, unlabeled, truth)


MAGIC = b"OMXD"
# the magic bytes, then input_dim, C_l, C_u, n_l, n_u
HEADER = struct.Struct("<4s5I")


def save_dataset(path: str, ds: Dataset) -> None:
    """Write MAGIC and the u32 header, then x_l and x_u as little-endian float64, then y_l
    and the hidden y_u as little-endian int64, each straight from its array's memory."""
    hidden = ds.truth._labels  # same-module persistence path, not an eval read
    head = HEADER.pack(MAGIC, ds.input_dim, ds.c_l, ds.c_u, len(ds.labeled), len(ds.unlabeled))
    arrays = [np.ascontiguousarray(x, "<f8") for x in (ds.labeled.x, ds.unlabeled.x)]
    arrays += [np.ascontiguousarray(y, "<i8") for y in (ds.labeled.y, hidden)]
    write_atomic(path, [head, *(a.data.cast("B") for a in arrays)])


def load_dataset(path: str) -> Dataset:
    """The dataset in path, as save_dataset wrote it.

    The header is checked against the caps, and the file's size against the header, before
    the four arrays are allocated; each is then filled by one readinto.
    """

    def fail(msg: str) -> DataFormatError:
        return DataFormatError(f"{path}: {msg}")

    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if head[:4] != MAGIC:
            raise fail("bad magic bytes, not a dataset")
        if len(head) < HEADER.size:
            raise fail("truncated header")
        _, input_dim, c_l, c_u, n_l, n_u = HEADER.unpack(head)
        if not 1 <= input_dim <= MAX_WIDTH:
            raise fail(f"input_dim must be in [1, {MAX_WIDTH}], got {input_dim}")
        if not (1 <= c_l <= MAX_CLASSES and 1 <= c_u <= MAX_CLASSES):
            raise fail(f"class counts must be in [1, {MAX_CLASSES}], got {c_l} and {c_u}")
        if not n_l or n_u < 2:
            raise fail(f"need at least 1 L row and 2 U rows, found {n_l} and {n_u}")
        if max(n_l * c_l, n_u * c_u) > MAX_SPLIT_VALUES:
            raise fail(f"rows x classes must be <= {MAX_SPLIT_VALUES} on each side")
        if (n_l + n_u) * input_dim > MAX_SPLIT_VALUES:
            raise fail(f"rows x input_dim must be <= {MAX_SPLIT_VALUES}")
        size = HEADER.size + 8 * (n_l + n_u) * (input_dim + 1)
        if (found := os.fstat(fh.fileno()).st_size) != size:
            raise fail(f"expected {size} bytes, found {found}")
        x_l, x_u = np.empty((n_l, input_dim), "<f8"), np.empty((n_u, input_dim), "<f8")
        y_l, y_u = np.empty(n_l, "<i8"), np.empty(n_u, "<i8")
        if any(fh.readinto(a) != a.nbytes for a in (x_l, x_u, y_l, y_u)):
            raise fail("file ended inside its arrays")
    if not (np.isfinite(x_l).all() and np.isfinite(x_u).all()):
        raise fail("non-finite feature value")
    for side, y, c in (("labeled", y_l, c_l), ("hidden", y_u, c_u)):
        if y.min() < 0 or y.max() >= c:
            raise fail(f"{side} class index outside [0, {c})")
    return Dataset(LabeledSet(x_l, y_l, c_l), UnlabeledSet(x_u, c_u), HiddenTruth(y_u))


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
