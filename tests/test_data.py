"""Dataset generation, persistence, the truth firewall, and batching."""

import hashlib
import os
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
from helpers import recorded_reads, tiny_spec, traced_peak


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
def test_empty_body_fails_without_warning(body, tmp_path, monkeypatch):
    # a body of no rows stays on the C route: the file is read once
    monkeypatch.setattr(data, "_read_lines", None)
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


def test_long_first_line_read_only_to_the_header_bound(tmp_path, monkeypatch):
    # a 1 MiB first line with no "\n": the C route reads no more of it than the longest
    # header within the caps before the per-line route takes the file
    path = tmp_path / "ds.csv"
    path.write_bytes(b"omx-dataset,v1," + b"9" * 2**20)
    asked = recorded_reads(monkeypatch, data)
    with pytest.raises(DataFormatError, match="line 1: bad header"):
        load_dataset(str(path))
    assert asked and min(asked) >= 0 and sum(asked) <= 32


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
    read_c, chunks = data._read_c, []

    def counted_read_c(chunk, *args):
        chunks.append(chunk)
        return read_c(chunk, *args)

    # 8-byte rows, 513 to a chunk on the C route, then 4096 U rows after the L rows
    monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", 4096)
    monkeypatch.setattr(data, "_read_c", counted_read_c if route == "c-reader" else lambda *a: None)
    c_l = data.MAX_CLASSES
    path = tmp_path / "tall.csv"
    tail = "U,0,1.0\nU,1,2.0\n" * 2048
    for n_l in (data.MAX_SPLIT_VALUES // c_l, data.MAX_SPLIT_VALUES // c_l + 1):
        chunks.clear()
        path.write_text(f"omx-dataset,v1,1,{c_l},2\n" + "L,7,0.5\n" * n_l + tail)
        if n_l * c_l <= data.MAX_SPLIT_VALUES:
            ds = load_dataset(str(path))
            assert len(ds.labeled) == n_l and ds.c_l == c_l
        else:
            with pytest.raises(DataFormatError, match=f"rows x classes must be <= {2**24}"):
                load_dataset(str(path))
            if route == "c-reader":
                # the C route stops at the chunk that holds the row past the cap
                parsed = b"".join(chunks)
                assert b"".join(chunks[:-1]).count(b"L") < n_l == parsed.count(b"L")
                assert parsed.count(b"U") < 513


def test_counting_stops_at_the_cap(tmp_path, monkeypatch):
    # 4097 L rows of a 4096-class side cross the cap in the eighth 513-row chunk, and
    # 100k U rows follow: each pass reads those eight chunks and no more of the file
    monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", 4096)
    c_l = data.MAX_CLASSES
    path = tmp_path / "tall.csv"
    rows = "L,7,0.5\n" * (data.MAX_SPLIT_VALUES // c_l + 1) + "U,0,1.0\n" * 100_000
    path.write_text(f"omx-dataset,v1,1,{c_l},2\n" + rows)
    asked = recorded_reads(monkeypatch, data)
    with pytest.raises(DataFormatError, match="rows x classes"):
        load_dataset(str(path))
    assert asked.count(4096) == 2 * 8


def test_refused_chunk_before_the_cap_crossing_reports_its_fault(tmp_path, monkeypatch):
    # the counting pass stops at the cap, but the second pass refuses the first chunk,
    # so the per-line route reports the fault in it, not the cap
    monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", 4096)
    c_l = data.MAX_CLASSES
    path = tmp_path / "tall.csv"
    rows = "L,7,0.5\n" * (data.MAX_SPLIT_VALUES // c_l + 1)
    path.write_text(f"omx-dataset,v1,1,{c_l},2\nL,7,0.5\nL,x,0.5\n" + rows + "U,0,1.0\nU,1,2.0\n")
    with pytest.raises(DataFormatError, match="line 3: bad class index 'x'"):
        load_dataset(str(path))


@pytest.mark.parametrize("extra", [-1, 1], ids=["fewer-rows", "more-rows"])
def test_rows_the_count_did_not_see_send_the_file_per_line(extra, tmp_path, monkeypatch):
    # as if the file changed between the two passes: the C reader finds one L row fewer
    # or more than were counted, and the per-line route reads the file again whole
    read_c, read_lines, per_line = data._read_c, data._read_lines, []

    def changed_read_c(*args):
        x_l, y_l, x_u, y_u = read_c(*args)
        rows = slice(1, None) if extra < 0 else [0, *range(len(y_l))]
        return x_l[rows], y_l[rows], x_u, y_u

    monkeypatch.setattr(data, "_read_c", changed_read_c)
    monkeypatch.setattr(data, "_read_lines", lambda *a: per_line.append(1) or read_lines(*a))
    ds = generate_blobs(tiny_spec(seed=6))
    path = str(tmp_path / "ds.csv")
    save_dataset(path, ds)
    assert load_dataset(path) == ds and per_line == [1]


def test_rows_too_short_for_their_fields_are_never_allocated(tmp_path):
    # 20k lines "L" under a 4096-wide header: counted as rows, they would ask for
    # 655 MB of features, but the file's 40 KB cannot hold one valid row, so the
    # counting pass refuses it and the per-line route reports the first line
    path = tmp_path / "wide.csv"
    path.write_text(f"omx-dataset,v1,{data.MAX_WIDTH},1,2\n" + "L\n" * 20_000)
    peak = traced_peak(lambda: pytest.raises(DataFormatError, load_dataset, str(path)))
    assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"
    with pytest.raises(DataFormatError, match=f"line 2: expected {data.MAX_WIDTH + 2} fields"):
        load_dataset(str(path))


@pytest.mark.parametrize("chunk_bytes", [None, 1, 97, 4096], ids=["default", "1", "97", "4096"])
def test_blank_lines_and_no_final_newline_at_every_chunk_size(chunk_bytes, tmp_path, monkeypatch):
    # a writer file with blank lines between and around its rows, cut before its last
    # newline: chunks of only blank lines, and a last chunk with no line end
    if chunk_bytes is not None:
        monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(data, "_read_lines", None)  # the C route only
    ds = generate_blobs(tiny_spec(seed=5))
    path = tmp_path / "ds.csv"
    save_dataset(str(path), ds)
    head, *rows = path.read_bytes().splitlines()
    path.write_bytes(head + b"\n\n" + b"\n\n\n".join(rows))
    assert load_dataset(str(path)) == ds


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


def test_save_dataset_peak_memory(tmp_path):
    # a 10k-row, 3.2 MB file: one 2048-row chunk holds its floats as Python
    # objects (about 1 MB), then its text and its bytes (0.7 MB each), about
    # 2.6 MB. The whole-file text and bytes alone are 6.3 MB; a writer
    # building them peaked at 10.1 MB.
    ds = generate_blobs(SplitSpec(per_class=1000))
    peak = traced_peak(lambda: save_dataset(str(tmp_path / "ds.csv"), ds))
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def test_load_dataset_peak_memory(tmp_path, monkeypatch):
    # the C route on that file, four chunks: the split arrays (1.4 MB), allocated once
    # after the counting pass, beside one 1 MiB chunk's bytes and its parsed rows
    # (0.5 MB), traced at 3.5 MB. A loader that held the split arrays once in parts and
    # once joined also peaked at 3.5 MB; one that held the file's bytes and all its
    # parsed rows, at 6.3 MB; one that also held a decoded text copy, at 9.5 MB.
    path = str(tmp_path / "ds.csv")
    save_dataset(path, generate_blobs(SplitSpec(per_class=1000)))
    monkeypatch.setattr(data, "_read_lines", None)  # the C route only
    peak = traced_peak(lambda: load_dataset(path))
    assert peak < 4.5e6, f"peak {peak / 1e6:.1f} MB"


def test_load_dataset_peak_below_file_size(tmp_path, monkeypatch):
    # a 20k-row, 6.3 MB file of six chunks: the split arrays (2.7 MB) and one chunk
    # peak at 4.8 MB, below the file's own size; the split arrays held twice, in parts
    # and joined, peaked at 5.5 MB, and a whole-file loader held about twice the file
    path = str(tmp_path / "ds.csv")
    save_dataset(path, generate_blobs(SplitSpec(per_class=2000)))
    monkeypatch.setattr(data, "_read_lines", None)  # the C route only
    peak = traced_peak(lambda: load_dataset(path))
    assert peak < os.path.getsize(path), f"peak {peak / 1e6:.1f} MB"


def test_load_dataset_peak_over_split_arrays(tmp_path, monkeypatch):
    # the 50k-row, 15.8 MB file: the split arrays (6.8 MB) are allocated once and
    # filled chunk by chunk, traced at 8.9 MB; held in parts and then joined, 13.6 MB
    spec, path = SplitSpec(per_class=5000), str(tmp_path / "ds.csv")
    save_dataset(path, generate_blobs(spec))
    monkeypatch.setattr(data, "_read_lines", None)  # the C route only
    peak = traced_peak(lambda: load_dataset(path))
    split = (spec.c_l + spec.c_u) * spec.per_class * (spec.input_dim + 1) * 8  # x and y
    assert peak <= split + 3e6, f"peak {peak / 1e6:.1f} MB over {split / 1e6:.1f} MB"


def test_generate_blobs_peak_memory():
    # each class block is drawn into its rows of one (n, d) array, traced at 1.2 times
    # the 6.4 MB of features; joining the blocks at the end peaked at 2.2 times
    spec = SplitSpec(per_class=5000)
    peak = traced_peak(lambda: generate_blobs(spec))
    features = (spec.c_l + spec.c_u) * spec.per_class * spec.input_dim * 8
    assert peak < 1.5 * features, f"peak {peak / features:.2f} times the features"


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
