"""Dataset generation, persistence, the truth firewall, and batching."""

import dataclasses
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from openmix import data
from openmix.config import ConfigError
from openmix.data import (
    DataFormatError,
    Dataset,
    HiddenTruth,
    LabeledSet,
    SplitSpec,
    UnlabeledSet,
    batch_iter,
    generate_blobs,
    load_dataset,
    load_split_spec,
    save_dataset,
)
from helpers import dataset_bytes, tiny_spec, traced_peak


def test_split_spec_defaults_validate():
    spec = SplitSpec()
    spec.validate()
    names = [f.name for f in dataclasses.fields(spec)]
    assert names == ["c_l", "c_u", "per_class", "input_dim", "separation", "seed"]
    assert spec.c_l == 5 and spec.c_u == 5
    assert spec.per_class == 200
    assert spec.input_dim == 16
    assert spec.separation == 6.0 and spec.seed == 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("c_l", 0),
        ("c_u", 1),
        ("per_class", 0),
        ("input_dim", 9),
        ("separation", -1.0),
    ],
)
def test_split_spec_rejects(field, value):
    spec = SplitSpec()
    setattr(spec, field, value)
    with pytest.raises(ConfigError):
        spec.validate()


def test_generate_blobs_shapes_and_labels():
    spec = tiny_spec()
    ds = generate_blobs(spec)
    n = spec.per_class
    assert ds.labeled.x.shape == (spec.c_l * n, spec.input_dim)
    assert ds.unlabeled.x.shape == (spec.c_u * n, spec.input_dim)
    assert ds.labeled.x.dtype == np.float64
    assert ds.labeled.y.dtype == np.int64
    assert ds.c_l == spec.c_l and ds.c_u == spec.c_u
    # class blocks in order, labeled classes 0..c_l-1
    assert np.array_equal(ds.labeled.y, np.repeat(np.arange(spec.c_l), n))
    truth = ds.truth.labels_for_eval()
    assert np.array_equal(truth, np.repeat(np.arange(spec.c_u), n))


def test_generate_blobs_center_geometry():
    # every pair of class centers is `separation` apart by construction
    spec = SplitSpec(c_l=2, c_u=3, per_class=1600, input_dim=8, separation=6.0, seed=3)
    ds = generate_blobs(spec)
    truth = ds.truth.labels_for_eval()
    means = []
    for k in range(spec.c_l):
        means.append(ds.labeled.x[ds.labeled.y == k].mean(axis=0))
    for k in range(spec.c_u):
        means.append(ds.unlabeled.x[truth == k].mean(axis=0))
    means = np.stack(means)
    # unit-variance sample means approach centers at rate 1/sqrt(per_class) ~ 0.025
    tol = 0.2
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            d = np.linalg.norm(means[i] - means[j])
            assert abs(d - spec.separation) < tol, (i, j, d)


def test_generate_blobs_deterministic():
    a = generate_blobs(tiny_spec(seed=9))
    b = generate_blobs(tiny_spec(seed=9))
    c = generate_blobs(tiny_spec(seed=10))
    assert a == b
    assert a != c


def test_one_hot():
    ls = LabeledSet(np.zeros((3, 2)), np.array([0, 2, 1]), 3)
    want = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
    assert np.array_equal(ls.one_hot(), want)


def test_labeled_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((2, 2)), np.array([0, 3]), 2)
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((2, 2)), np.array([0]), 2)


def test_hidden_truth_counts_reads():
    truth = HiddenTruth(np.array([0, 1, 2]))
    assert truth.reads == 0
    labels = truth.labels_for_eval()
    assert truth.reads == 1
    truth.labels_for_eval()
    assert truth.reads == 2
    with pytest.raises(ValueError):
        labels[0] = 5  # read-only view


def test_dataset_equality_by_value_without_a_truth_read():
    x_l, y_l = np.arange(6.0).reshape(3, 2), np.array([0, 1, 1])
    x_u, h = np.arange(8.0).reshape(4, 2) / 3, np.array([2, 0, 1, 0])

    def make(c_l=2, c_u=3, x_l=x_l, y_l=y_l, x_u=x_u, h=h):
        # fresh arrays every time: equality is by value, not by identity
        labeled = LabeledSet(np.array(x_l), np.array(y_l), c_l)
        return Dataset(labeled, UnlabeledSet(np.array(x_u), c_u), HiddenTruth(np.array(h)))

    base = make()
    assert base == make()
    changed = {
        "c_l": make(c_l=3),
        "c_u": make(c_u=4),
        "labeled x": make(x_l=x_l + np.eye(3, 2)),
        "labeled y": make(y_l=[0, 1, 0]),
        "unlabeled x": make(x_u=x_u * 2),
        "hidden labels": make(h=[2, 0, 1, 1]),
    }
    for name, other in changed.items():
        assert base != other and other != base, name
        assert other.truth.reads == 0, name
    assert base != "dataset"
    assert base.truth.reads == 0


def test_dataset_cross_checks():
    with pytest.raises(ValueError, match="truth registry"):
        Dataset(
            LabeledSet(np.zeros((1, 2)), np.array([0]), 1),
            UnlabeledSet(np.zeros((2, 2)), 2),
            HiddenTruth(np.array([0])),
        )
    with pytest.raises(ValueError, match="input_dim"):
        Dataset(
            LabeledSet(np.zeros((1, 2)), np.array([0]), 1),
            UnlabeledSet(np.zeros((2, 3)), 2),
            HiddenTruth(np.array([0, 1])),
        )


def test_save_load_roundtrip_identity(tmp_path):
    ds = generate_blobs(tiny_spec(seed=4))
    path = tmp_path / "ds.bin"
    reads_before = ds.truth.reads
    save_dataset(str(path), ds)
    assert ds.truth.reads == reads_before  # persistence is not an eval read
    back = load_dataset(str(path))
    assert back == ds


def file_arrays(ds):
    """The four arrays of a dataset file, in file order; the hidden labels read uncounted."""
    return ds.labeled.x, ds.unlabeled.x, ds.labeled.y, ds.truth._labels


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize(
    "spec", [SplitSpec(per_class=1, c_u=2), SplitSpec(per_class=5000)], ids=["tiny", "50k-rows"]
)
def test_roundtrip_is_bit_exact(spec, tmp_path):
    # the file is the header, then the arrays' own bytes; a signed zero, a subnormal and
    # the largest floats come back bit for bit, which == alone would not show for -0.0
    ds = generate_blobs(spec)
    ds.labeled.x[0, :4] = EXTREMES
    ds.unlabeled.x[-1, -4:] = EXTREMES
    path = tmp_path / "ds.bin"
    save_dataset(str(path), ds)
    counts = (ds.input_dim, ds.c_l, ds.c_u, len(ds.labeled), len(ds.unlabeled))
    body = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes() for a in file_arrays(ds))
    assert path.read_bytes() == data.HEADER.pack(data.MAGIC, *counts) + body
    back = load_dataset(str(path))
    assert back == ds
    assert [a.tobytes() for a in file_arrays(back)] == [a.tobytes() for a in file_arrays(ds)]
    assert np.signbit(back.labeled.x[0, 0])


def load_error(path) -> str:
    """The message of the DataFormatError that loading path raises, after its path."""
    with pytest.raises(DataFormatError) as info:
        load_dataset(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: ") :]


def test_load_dataset_header_errors(tmp_path):
    path, width, k = tmp_path / "bad.bin", data.MAX_WIDTH, data.MAX_CLASSES
    text = b"omx-dataset,v1,2,1,2\nL,0,1.0,2.0\nU,0,1.0,2.0\nU,1,1.0,2.0\n"
    cases = [
        (b"", "bad magic bytes, not a dataset"),
        (text, "bad magic bytes, not a dataset"),  # the old text format
        (b"OMXE" + dataset_bytes()[4:], "bad magic bytes, not a dataset"),
        (dataset_bytes()[: data.HEADER.size - 1], "truncated header"),
        (dataset_bytes(input_dim=0), "input_dim must be in [1, 4096], got 0"),
        (dataset_bytes(input_dim=width + 1), "input_dim must be in [1, 4096], got 4097"),
        (dataset_bytes(c_l=0), "class counts must be in [1, 4096], got 0 and 3"),
        (dataset_bytes(c_u=k + 1), "class counts must be in [1, 4096], got 2 and 4097"),
        (dataset_bytes(n_l=0), "need at least 1 L row and 2 U rows, found 0 and 2"),
        (dataset_bytes(n_u=1), "need at least 1 L row and 2 U rows, found 1 and 1"),
        (data.HEADER.pack(data.MAGIC, width, 2, 3, 1, width),
         f"rows x input_dim must be <= {2**24}"),
    ]
    for blob, message in cases:
        path.write_bytes(blob)
        assert load_error(path) == message, blob[:40]


def test_load_dataset_row_errors(tmp_path, monkeypatch):
    path, good = tmp_path / "bad.bin", dataset_bytes()
    cases = [
        (good[:-1], f"expected {len(good)} bytes, found {len(good) - 1}"),
        (good + b"\0", f"expected {len(good)} bytes, found {len(good) + 1}"),
        (dataset_bytes(x=[0.5] * 5 + [np.nan]), "non-finite feature value"),
        (dataset_bytes(x=[np.inf] + [0.5] * 5), "non-finite feature value"),
        (dataset_bytes(x=[0.5] * 4 + [-np.inf, 0.5]), "non-finite feature value"),
        (dataset_bytes(y_l=2), "labeled class index outside [0, 2)"),
        (dataset_bytes(y_l=-1), "labeled class index outside [0, 2)"),
        (dataset_bytes(y_u=[0, 3]), "hidden class index outside [0, 3)"),
        (dataset_bytes(y_u=[-(2**63), 1]), "hidden class index outside [0, 3)"),
    ]
    for blob, message in cases:
        path.write_bytes(blob)
        assert load_error(path) == message, blob
    # a file that shrinks between its size check and its read
    path.write_bytes(good[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(good)))
    assert load_error(path) == "file ended inside its arrays"
    monkeypatch.undo()
    path.write_bytes(good)
    assert len(load_dataset(str(path)).unlabeled) == 2


@pytest.mark.parametrize(
    "n_l, n_u, message",
    [
        (0, 0, "need at least 1 L row and 2 U rows, found 0 and 0"),
        (1, 2, "expected 96 bytes, found 24"),
    ],
    ids=["header-only", "body-missing"],
)
def test_empty_body_fails_without_warning(n_l, n_u, message, tmp_path):
    # a file that ends at its header: one that claims no rows, and one whose rows are missing
    path = tmp_path / "ds.bin"
    path.write_bytes(dataset_bytes(n_l=n_l, n_u=n_u)[: data.HEADER.size])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_error(path) == message


@pytest.mark.parametrize("side", ["labeled", "unlabeled"])
def test_rows_times_classes_cap(side, tmp_path):
    # a 4096-class one-hot takes 32 KB a row: 4096 rows reach the cap, one more is beyond it
    k, path = data.MAX_CLASSES, tmp_path / "tall.bin"
    for rows in (data.MAX_SPLIT_VALUES // k, data.MAX_SPLIT_VALUES // k + 1):
        counts = dict(c_l=k, n_l=rows, c_u=2) if side == "labeled" else dict(c_l=1, c_u=k, n_u=rows)
        path.write_bytes(dataset_bytes(input_dim=1, y_l=0, y_u=1, **counts))
        if rows * k <= data.MAX_SPLIT_VALUES:
            ds = load_dataset(str(path))
            n, c = (len(ds.labeled), ds.c_l) if side == "labeled" else (len(ds.unlabeled), ds.c_u)
            assert (n, c) == (rows, k)
        else:
            assert load_error(path) == f"rows x classes must be <= {2**24} on each side"


def test_header_at_the_caps_is_refused_before_its_arrays(tmp_path):
    # a header every cap admits claims 134 MB of arrays; the file holds only the header
    path, k, width = tmp_path / "huge.bin", data.MAX_CLASSES, data.MAX_WIDTH
    path.write_bytes(data.HEADER.pack(data.MAGIC, width, k, k, width // 2, width // 2))
    peak = traced_peak(lambda: pytest.raises(DataFormatError, load_dataset, str(path)))
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
    size = data.HEADER.size + 8 * width * (width + 1)
    assert load_error(path) == f"expected {size} bytes, found {data.HEADER.size}"


def test_save_dataset_peak_memory(tmp_path):
    # a 10k-row file: the writer hands the arrays' own memory to the file, so it holds
    # no text and no copy of them (1.4 MB); a text writer of 2048-row chunks peaked at
    # about 2.6 MB
    ds = generate_blobs(SplitSpec(per_class=1000))
    peak = traced_peak(lambda: save_dataset(str(tmp_path / "ds.bin"), ds))
    assert peak < 1e5, f"peak {peak / 1e6:.2f} MB"


def test_load_dataset_peak_memory(tmp_path):
    # a 10k-row file: the split arrays (1.4 MB) are allocated once and read into; a text
    # loader that parsed 1 MiB chunks into them was traced at 3.5 MB
    path = str(tmp_path / "ds.bin")
    save_dataset(path, generate_blobs(SplitSpec(per_class=1000)))
    peak = traced_peak(lambda: load_dataset(path))
    assert peak < 4.5e6, f"peak {peak / 1e6:.1f} MB"


def test_load_dataset_peak_over_split_arrays(tmp_path):
    # the 50k-row file: beside the split arrays (6.8 MB), the finiteness check holds one
    # side's flags (0.4 MB) and the hidden truth its copy of the labels (0.2 MB)
    spec, path = SplitSpec(per_class=5000), str(tmp_path / "ds.bin")
    save_dataset(path, generate_blobs(spec))
    peak = traced_peak(lambda: load_dataset(path))
    split = (spec.c_l + spec.c_u) * spec.per_class * (spec.input_dim + 1) * 8  # x and y
    assert peak <= split + 1e6, f"peak {peak / 1e6:.2f} MB over {split / 1e6:.1f} MB"


def test_generate_blobs_peak_memory():
    # each class block is drawn in place in its rows of one (n, d) array, traced at 1.24
    # times the 6.4 MB of features; a center and a noise temporary per class peaked at
    # 1.34 times, and joining the blocks at the end at 2.2 times
    spec = SplitSpec(per_class=5000)
    peak = traced_peak(lambda: generate_blobs(spec))
    features = (spec.c_l + spec.c_u) * spec.per_class * spec.input_dim * 8
    assert peak < 1.3 * features, f"peak {peak / features:.2f} times the features"


def test_load_split_spec(tmp_path):
    path = tmp_path / "blob.spec"
    path.write_text("c_l = 2\nc_u = 2\nper_class = 3\ninput_dim = 4\n")
    spec = load_split_spec(str(path))
    assert spec.c_l == 2 and spec.per_class == 3
    path.write_text("c_u = 1\n")
    with pytest.raises(ConfigError):
        load_split_spec(str(path))


def test_batch_iter_partitions_exactly():
    ds = generate_blobs(tiny_spec())
    batches = list(batch_iter(ds.unlabeled, 7, seed=5, epoch=1))
    sizes = [len(b) for b in batches]
    assert sum(sizes) == len(ds.unlabeled)
    assert all(s == 7 for s in sizes[:-1])
    seen = np.sort(np.concatenate(batches))
    assert np.array_equal(seen, np.arange(len(ds.unlabeled)))


def test_batch_iter_seeded_and_epoch_varying():
    ds = generate_blobs(tiny_spec())
    a = np.concatenate(list(batch_iter(ds.unlabeled, 8, seed=5, epoch=2)))
    b = np.concatenate(list(batch_iter(ds.unlabeled, 8, seed=5, epoch=2)))
    c = np.concatenate(list(batch_iter(ds.unlabeled, 8, seed=5, epoch=3)))
    d = np.concatenate(list(batch_iter(ds.unlabeled, 8, seed=6, epoch=2)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        next(batch_iter(ds.unlabeled, 0, seed=0, epoch=1))
