"""Synthetic Gaussian-blob datasets with a labeled/unlabeled class split.

Old classes (labeled) and new classes (unlabeled) occupy disjoint index
spaces. Ground truth for unlabeled examples is kept in a separate
evaluation-only registry so training code cannot touch it.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .config import MAX_CONFIG_BYTES, MAX_WIDTH, ConfigError, check_finite_floats, parse_flat
from .fileio import decode, read_head, read_text, write_atomic


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
        # class counts and arrays by value; the hidden labels are compared uncounted
        def parts(d):
            return d.c_l, d.c_u, d.labeled.x, d.labeled.y, d.unlabeled.x, d.truth._labels

        return isinstance(other, Dataset) and all(map(np.array_equal, parts(self), parts(other)))


# Class counts a dataset may declare: evaluation's k x k contingency table
# and its float copy take 256 MB at the cap, a one-hot label 32 KB a row.
MAX_CLASSES = 2**12

# Feature values a generated split may hold, and rows x classes on each side
# of a loaded file (its one-hot labels and logits): 128 MB as float64, 8 times
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
        if (self.c_l + self.c_u) * self.per_class * self.input_dim > MAX_SPLIT_VALUES:
            raise ConfigError(f"(c_l + c_u) * per_class * input_dim must be <= {MAX_SPLIT_VALUES}")
        if self.input_dim > MAX_WIDTH:
            raise ConfigError(f"input_dim must be <= {MAX_WIDTH}")
        if self.separation < 0 or self.sigma < 0:
            raise ConfigError("separation and sigma must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


def load_split_spec(path: str) -> SplitSpec:
    text = read_text(path, "split spec", ConfigError, MAX_CONFIG_BYTES)
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
    try:
        with np.errstate(over="raise"):
            for k in range(total):
                center = np.zeros(spec.input_dim)
                center[k] = scale
                noise = rng.standard_normal((spec.per_class, spec.input_dim))
                blocks.append(center + spec.sigma * noise)
    except FloatingPointError:
        raise ConfigError("separation and sigma overflow the features to infinity") from None
    n_l = spec.c_l * spec.per_class
    x = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(total), spec.per_class)
    labeled = LabeledSet(x[:n_l], labels[:n_l], spec.c_l)
    unlabeled = UnlabeledSet(x[n_l:], spec.c_u)
    truth = HiddenTruth(labels[n_l:] - spec.c_l)
    return Dataset(labeled, unlabeled, truth)


# Rows per encoded chunk of save_dataset: at input_dim 16 a chunk is about
# 0.7 MB of text, and the write peaks about 2.6 MB above the dataset at any
# row count.
SAVE_CHUNK_ROWS = 2048


def save_dataset(path: str, ds: Dataset) -> None:
    """Write header `omx-dataset,v1,input_dim,C_l,C_u` then one row per example.

    Features are written as the repr of a Python float, the shortest string
    that round-trips exactly. The rows are encoded and written SAVE_CHUNK_ROWS
    at a time, so beside the dataset only one chunk's text and bytes are held.
    """
    hidden = ds.truth._labels  # same-module persistence path, not an eval read

    def chunks():
        yield f"omx-dataset,v1,{ds.input_dim},{ds.c_l},{ds.c_u}\n".encode()
        for kind, ys, x in (("L", ds.labeled.y, ds.labeled.x), ("U", hidden, ds.unlabeled.x)):
            for start in range(0, len(ys), SAVE_CHUNK_ROWS):
                rows = slice(start, start + SAVE_CHUNK_ROWS)
                yield "".join(
                    f"{kind},{y},{','.join(map(repr, row))}\n"
                    for y, row in zip(ys[rows].tolist(), x[rows].tolist())
                ).encode()

    write_atomic(path, chunks())


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad {what} {token!r}") from None


# The bytes of the writer's data lines, the only ones numpy's C reader gets: it
# and float() or int() disagree on whitespace, "_" and non-ASCII digits.
WRITER_ALPHABET = b"0123456789.,eE+-LU\n"


def _check_line(row: list[str], lineno: int, input_dim: int, c_l: int, c_u: int):
    """Parse one data line into (is_l, label, features), raising at its first failed check:
    field count, class index, feature values, finiteness, then kind and class range."""
    if len(row) != 2 + input_dim:
        raise DataFormatError(f"line {lineno}: expected {2 + input_dim} fields, got {len(row)}")
    label = _parse_int(row[1], lineno, "class index")
    try:
        feats = list(map(float, row[2:]))
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad feature value") from None
    if not all(map(math.isfinite, feats)):
        raise DataFormatError(f"line {lineno}: non-finite feature value")
    kind = row[0]
    if kind not in ("L", "U"):
        raise DataFormatError(f"line {lineno}: row kind must be L or U, got {kind!r}")
    # labels are stored as int64, so a class index beyond it is out of range
    # even where the header's class count is larger still
    if not 0 <= label < 2**63 or label >= (c_l if kind == "L" else c_u):
        side = "labeled" if kind == "L" else "hidden"
        raise DataFormatError(f"line {lineno}: {side} class {label} out of range")
    return kind == "L", label, feats


def _read_lines(lines: list[str], input_dim: int, c_l: int, c_u: int):
    """The exact route: (x, labels, is_l) from one data line at a time, or the first fault."""
    x, labels, is_l = array("d"), [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line:
            row_is_l, label, feats = _check_line(line.split(","), lineno, input_dim, c_l, c_u)
            x.extend(feats)
            labels.append(label)
            is_l.append(row_is_l)
    return np.frombuffer(x).reshape(-1, input_dim), np.array(labels, np.int64), np.array(is_l, bool)


def _read_c(body: bytes, input_dim: int, c_l: int, c_u: int):
    """The fast route: numpy's C reader parses a body of the writer's bytes at once.
    None where the body holds no row, or the reader or a check fails."""
    if not body.lstrip(b"\n"):
        return None
    dtype = [("kind", "U2"), ("label", "i8"), ("x", "f8", (input_dim,))]
    # int() reads the class indices, so its digit limit holds on both routes
    read = dict(delimiter=",", comments=None, converters={1: int}, ndmin=1)
    try:
        rows = np.loadtxt(io.BytesIO(body), dtype, **read)
    except ValueError:
        return None
    is_l, labels = rows["kind"] == "L", rows["label"]
    ok = (is_l | (rows["kind"] == "U")) & (labels >= 0) & (labels < np.where(is_l, c_l, c_u))
    return (rows["x"], labels, is_l) if ok.all() and np.isfinite(rows["x"]).all() else None


def _parse_header(first: list[str]) -> tuple[int, int, int]:
    """(input_dim, C_l, C_u) from the file's first line, [] where it has none."""
    if not first:
        raise DataFormatError("line 1: missing header")
    fields = first[0].split(",")
    if len(fields) != 5 or fields[0] != "omx-dataset" or fields[1] != "v1":
        raise DataFormatError(f"line 1: bad header {first[0]!r}")
    input_dim = _parse_int(fields[2], 1, "input_dim")
    c_l = _parse_int(fields[3], 1, "C_l")
    c_u = _parse_int(fields[4], 1, "C_u")
    if input_dim < 1 or c_l < 1 or c_u < 1:
        raise DataFormatError("line 1: header counts must be >= 1")
    return input_dim, c_l, c_u


def load_dataset(path: str) -> Dataset:
    """The dataset in path, as save_dataset wrote it.

    The file is read once, as bytes. numpy's C reader parses those bytes in
    place where it may; only the per-line route decodes them to a text copy.
    """
    head, body = read_head(path, "dataset", DataFormatError)
    # A file whose header is ASCII, holds no line break and ends at its first
    # "\n", over a body of the writer's bytes, is UTF-8 throughout and has that
    # header as its first line; its counts must fit the C reader's dtype and int64.
    first = head[:-1].decode("ascii") if head.isascii() and head.endswith(b"\n") else ""
    parsed = None
    if first.splitlines() == [first] and not body.translate(None, WRITER_ALPHABET):
        input_dim, c_l, c_u = _parse_header([first])
        if input_dim <= MAX_WIDTH and max(c_l, c_u) <= MAX_CLASSES:
            parsed = _read_c(body, input_dim, c_l, c_u)
    if parsed is None:
        lines = decode(head + body, path, "dataset", DataFormatError).splitlines()
        input_dim, c_l, c_u = _parse_header(lines[:1])
        parsed = _read_lines(lines, input_dim, c_l, c_u)
    x, labels, is_l = parsed
    n_l, n_u = int(is_l.sum()), int((~is_l).sum())
    if not n_l or n_u < 2:
        raise DataFormatError(f"need at least 1 L row and 2 U rows, found {n_l} and {n_u}")
    if max(c_l, c_u) > MAX_CLASSES:
        raise DataFormatError(f"line 1: class counts must be <= {MAX_CLASSES}, got {c_l} and {c_u}")
    if input_dim > MAX_WIDTH:
        raise DataFormatError(f"line 1: input_dim must be <= {MAX_WIDTH}, got {input_dim}")
    if max(n_l * c_l, n_u * c_u) > MAX_SPLIT_VALUES:
        raise DataFormatError(f"rows x classes must be <= {MAX_SPLIT_VALUES} on each side")
    labeled = LabeledSet(x[is_l], labels[is_l], c_l)
    unlabeled = UnlabeledSet(x[~is_l], c_u)
    return Dataset(labeled, unlabeled, HiddenTruth(labels[~is_l]))


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
