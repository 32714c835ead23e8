"""Dataset generation, persistence, the truth firewall, and batching."""

import hashlib
import tracemalloc
import warnings

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
from helpers import tiny_spec


def test_split_spec_defaults_validate():
    spec = SplitSpec()
    spec.validate()
    assert spec.c_l == 5 and spec.c_u == 5
    assert spec.per_class == 200
    assert spec.input_dim == 16
    assert spec.separation == 6.0 and spec.sigma == 1.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("c_l", 0),
        ("c_u", 1),
        ("per_class", 0),
        ("input_dim", 9),
        ("separation", -1.0),
        ("sigma", -0.5),
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
    spec = SplitSpec(c_l=2, c_u=3, per_class=400, input_dim=8, separation=6.0, sigma=0.5, seed=3)
    ds = generate_blobs(spec)
    truth = ds.truth.labels_for_eval()
    means = []
    for k in range(spec.c_l):
        means.append(ds.labeled.x[ds.labeled.y == k].mean(axis=0))
    for k in range(spec.c_u):
        means.append(ds.unlabeled.x[truth == k].mean(axis=0))
    means = np.stack(means)
    # sample means approach centers at rate sigma/sqrt(per_class) ~ 0.025
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
    path = tmp_path / "ds.csv"
    reads_before = ds.truth.reads
    save_dataset(str(path), ds)
    assert ds.truth.reads == reads_before  # persistence is not an eval read
    back = load_dataset(str(path))
    assert back == ds  # float64 repr round-trips bitwise


@pytest.mark.parametrize(
    "spec",
    [SplitSpec(seed=0), SplitSpec(seed=1), SplitSpec(seed=2), SplitSpec(per_class=5000)],
    ids=["seed0", "seed1", "seed2", "per_class5000"],
)
def test_writer_made_file_never_falls_back(spec, tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("a writer-made file reached the per-line route")

    monkeypatch.setattr(data, "_read_lines", no_fallback)
    path = str(tmp_path / "ds.csv")
    save_dataset(path, generate_blobs(spec))
    assert load_dataset(path) == generate_blobs(spec)


@pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header-only", "blank-lines"])
def test_empty_body_fails_without_warning(body, tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("omx-dataset,v1,2,1,2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="need at least 1 L row and 2 U rows, found 0"):
            load_dataset(str(path))


def test_load_dataset_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nonsense,v1,4,1,2\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_dataset(str(path))
    path.write_text("")
    with pytest.raises(DataFormatError, match="line 1"):
        load_dataset(str(path))
    path.write_text("omx-dataset,v2,4,1,2\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_dataset(str(path))


def test_load_dataset_row_errors(tmp_path):
    path = tmp_path / "bad.csv"
    head = "omx-dataset,v1,2,1,2\n"

    path.write_text(head + "L,0,1.0\n")
    with pytest.raises(DataFormatError, match="line 2: expected 4 fields"):
        load_dataset(str(path))

    path.write_text(head + "L,0,1.0,2.0\nX,0,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 3: row kind"):
        load_dataset(str(path))

    path.write_text(head + "L,1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 2: labeled class 1"):
        load_dataset(str(path))

    path.write_text(head + "U,2,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 2: hidden class 2"):
        load_dataset(str(path))

    path.write_text(head + "U,0,1.0,nan\n")
    with pytest.raises(DataFormatError, match="line 2: non-finite"):
        load_dataset(str(path))

    path.write_text(head + "U,zero,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 2: bad class index"):
        load_dataset(str(path))

    path.write_text(head + "U,0,1.0,abc\n")
    with pytest.raises(DataFormatError, match="line 2: bad feature value"):
        load_dataset(str(path))

    # header class counts beyond int64: an index below them still cannot be stored
    huge = "omx-dataset,v1,2,99999999999999999999,99999999999999999999\n"
    path.write_text(huge + "U,0,1.0,2.0\nL,99999999999999999998,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 3: labeled class 99999999999999999998"):
        load_dataset(str(path))
    path.write_text(huge + "L,0,1.0,2.0\nU,9223372036854775808,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="line 3: hidden class 9223372036854775808"):
        load_dataset(str(path))


@pytest.mark.parametrize("route", ["c-reader", "per-line"])
def test_rows_times_classes_cap(route, tmp_path, monkeypatch):
    # a 4096-class one-hot takes 32 KB a row: 4096 rows reach the cap, one more is beyond it
    if route == "per-line":
        monkeypatch.setattr(data, "_read_c", lambda *args: None)
    c_l = data.MAX_CLASSES
    path = tmp_path / "tall.csv"
    for n_l in (data.MAX_SPLIT_VALUES // c_l, data.MAX_SPLIT_VALUES // c_l + 1):
        path.write_text(f"omx-dataset,v1,1,{c_l},2\n" + "L,7,0.5\n" * n_l + "U,0,1.0\nU,1,2.0\n")
        if n_l * c_l <= data.MAX_SPLIT_VALUES:
            ds = load_dataset(str(path))
            assert len(ds.labeled) == n_l and ds.c_l == c_l
        else:
            with pytest.raises(DataFormatError, match=f"rows x classes must be <= {2**24}"):
                load_dataset(str(path))


def test_save_dataset_exact_text(tmp_path):
    ds = Dataset(
        LabeledSet(np.array([[-0.0, 1e-05, 0.0001]]), np.array([1]), 2),
        UnlabeledSet(
            np.array([[1e16, 5e-324, 1.7976931348623157e308], [0.30000000000000004, 1.0, -2.5]]),
            2,
        ),
        HiddenTruth(np.array([0, 1])),
    )
    path = tmp_path / "ds.csv"
    save_dataset(str(path), ds)
    assert path.read_bytes() == (
        b"omx-dataset,v1,3,2,2\n"
        b"L,1,-0.0,1e-05,0.0001\n"
        b"U,0,1e+16,5e-324,1.7976931348623157e+308\n"
        b"U,1,0.30000000000000004,1.0,-2.5\n"
    )
    back = load_dataset(str(path))
    assert back == ds
    assert np.signbit(back.labeled.x[0, 0])


def test_save_dataset_bytes_frozen(tmp_path):
    # sha256 of the 50k-row file written before the array-at-a-time writer
    path = tmp_path / "ds.csv"
    save_dataset(str(path), generate_blobs(SplitSpec(per_class=5000, seed=0)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "7c684a676e1d646289dd734a8e49adab1e1bea28063beff8183d6ce4775cf62e"


def traced_peak(call) -> float:
    """Bytes at the traced peak of call(), above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_dataset_peak_memory(tmp_path):
    # a 10k-row, 3.2 MB file: one 2048-row chunk holds its floats as Python
    # objects (about 1 MB), then its text and its bytes (0.7 MB each), about
    # 2.6 MB. The whole-file text and bytes alone are 6.3 MB; a writer
    # building them peaked at 10.1 MB.
    ds = generate_blobs(SplitSpec(per_class=1000))
    peak = traced_peak(lambda: save_dataset(str(tmp_path / "ds.csv"), ds))
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def test_load_dataset_peak_memory(tmp_path, monkeypatch):
    # the C route on that file: its bytes (3.2 MB), the parsed rows (1.4 MB)
    # and the split features (1.3 MB) make about 6.1 MB. A loader that also
    # holds a decoded text copy of the file peaked at 9.5 MB.
    path = str(tmp_path / "ds.csv")
    save_dataset(path, generate_blobs(SplitSpec(per_class=1000)))
    monkeypatch.setattr(data, "_read_lines", None)  # the C route only
    peak = traced_peak(lambda: load_dataset(path))
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


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
