"""Seeded fuzzing of the loaders: a corrupt file loads or fails typed.

Truncated, bit-flipped and garbage variants of a valid dataset, checkpoint,
run config and split spec go through their loaders. Each variant must
either load or raise the loader's documented error; anything else (a
UnicodeDecodeError, a bare ValueError, an IndexError) is a bug the CLI
would print as a traceback. The dataset loader must also match the
per-line reference loader on every variant, on mutations drawn from the
writer's own bytes and on hand-built files with several faults or edge
tokens: the same Dataset, or the same error and message. That holds too for
faulty headers over a body that is not UTF-8, where the whole-file UTF-8
check decides first. It must do so on both of its routes, numpy's C reader
and the per-line parser, and with the C reader's chunks cut at several sizes.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import dataset_reference
from openmix import data
from openmix.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from openmix.config import MAX_WIDTH, ConfigError, RunConfig, load_run_config
from openmix.data import (
    DataFormatError,
    generate_blobs,
    load_dataset,
    load_split_spec,
    save_dataset,
)
from helpers import tiny_model, tiny_spec

CASES = 40  # per file kind and corruption kind


def corruptions(blob, rng):
    """Truncated, bit-flipped and garbage variants of one file's bytes."""
    alphabet = np.frombuffer(blob, dtype=np.uint8)
    for _ in range(CASES):
        yield blob[: int(rng.integers(0, len(blob)))]
        flipped = bytearray(blob)
        for pos in rng.integers(0, len(blob), size=int(rng.integers(1, 9))):
            flipped[pos] ^= 1 << int(rng.integers(0, 8))
        yield bytes(flipped)
        yield rng.integers(0, 256, size=int(rng.integers(0, 300)), dtype=np.uint8).tobytes()
        # garbage over the file's own bytes reaches past the first sanity checks
        yield rng.choice(alphabet, size=int(rng.integers(0, 300))).tobytes()


def write_dataset(path):
    save_dataset(path, generate_blobs(tiny_spec()))


def write_checkpoint(path):
    save_checkpoint(path, tiny_model(seed=3))


def write_config(path):
    fields = dataclasses.asdict(RunConfig())
    fields["hidden_dims"] = "32,16"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in fields.items()))


def write_spec(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(tiny_spec()).items()))


KINDS = {
    "dataset": (write_dataset, load_dataset, DataFormatError),
    "checkpoint": (write_checkpoint, load_checkpoint, CheckpointError),
    "config": (write_config, load_run_config, ConfigError),
    "spec": (write_spec, load_split_spec, ConfigError),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_corrupt_files_load_or_fail_typed(kind, tmp_path):
    write, load, error = KINDS[kind]
    path = str(tmp_path / kind)
    write(path)
    load(path)  # the uncorrupted file loads
    with open(path, "rb") as fh:
        blob = fh.read()
    rng = np.random.default_rng(list(KINDS).index(kind))
    outcomes = {"loaded": 0, "typed error": 0}
    for variant in corruptions(blob, rng):
        with open(path, "wb") as fh:
            fh.write(variant)
        try:
            load(path)
        except error:
            outcomes["typed error"] += 1
        else:
            outcomes["loaded"] += 1
    assert sum(outcomes.values()) == 4 * CASES
    assert outcomes["typed error"] > 0


def outcome(load, path):
    """The loaded Dataset, or the type and message of what the load raised."""
    try:
        return load(path)
    except Exception as exc:  # the two loaders must fail alike, whatever the error
        return type(exc), str(exc)


GOOD_LINES = ["L,0,1.0,-2.5", "L,1, 3.0 ,1_0.5", "U,0,0.5,0.25", "U,2,+1e-3,-0.0", "U,1,7,8"]
FAULTY_LINES = [
    "L,0,1.0",  # field count
    "X,0,1.0,2.0,3.0",  # field count before kind
    "L,x,1.0,2.0",  # class index
    "Q,x,1.0,abc",  # class index before feature and kind
    "U,1,1.0,abc",  # feature value
    "L,9,1.0,abc",  # feature value before range
    "U,1,inf,2.0",  # non-finite
    "Q,5,nan,2.0",  # non-finite before kind
    "Q,0,1.0,2.0",  # kind
    "L,2,1.0,2.0",  # labeled range
    "U,-1,1.0,2.0",  # hidden range
    "U,99999999999999999999999,1.0,2.0",  # hidden range, beyond int64
]


# header class counts beyond int64, and indices below them that do or do not fit it
HUGE_HEAD = "omx-dataset,v1,2,99999999999999999999,99999999999999999999"
HUGE_LINES = [
    "L,99999999999999999998,1.0,2.0",
    "U,9223372036854775808,1.0,2.0",
    "U,9223372036854775807,1.0,2.0",  # the largest index that fits
]


# a header input_dim beyond the cap, with rows of that width: valid, then one short row
WIDE_HEAD = f"omx-dataset,v1,{MAX_WIDTH + 1},2,3"
WIDE_LINES = [row + ",0.5" * (MAX_WIDTH + 1) for row in ["L,1", "U,0", "U,2"]]

# a header class count at the cap, with rows x classes at the cap, then one L row beyond it
TALL_HEAD = f"omx-dataset,v1,2,{data.MAX_CLASSES},3"
TALL_LINES = ["L,1,1.0,2.0"] * (data.MAX_SPLIT_VALUES // data.MAX_CLASSES) + ["U,0,1.0,2.0"] * 2

# tokens of the writer's alphabet where numpy's C reader and int() or float()
# could part ways: signs, leading zeros, int64 edges, exponent forms,
# subnormals, overflow to inf, and kinds the C reader keeps two letters of
EDGE_LINES = [
    "L,+1,-.5e-3,1e0001",
    "U,-0,4.9e-324,-0.0",
    "U,00,1E4,+.5",
    "L,+5,1.0,2.0",
    "U,9223372036854775807,1.0,2.0",
    "U,9223372036854775808,1.0,2.0",
    "LU,0,1.0,2.0",
    "UL,0,1.0,2.0",
    # rows to the C route's counting pass, which the C reader then refuses
    "L,0,1.0",
    "L,0.5,1.0,2.0",
    "U,1e0,1.0,2.0",
    ",0,1.0,2.0",
    "U,1,1E400,2.0",
    "U,1,1.0,-1e400",
    f"U,{'0' * 5000}1,1.0,2.0",  # beyond int()'s digit limit
    f"U,1,{'0' * 5000}1.{'0' * 5000}1e-2,2.0",
    # outside the alphabet: line breaks to splitlines that the C reader strips as whitespace
    "U,0,0.5\x0c,0.25",
    "U,1\x1c,0.5,0.25",
]


def multi_fault_files():
    """Valid files and files with faults on two lines, in every order."""
    head = "omx-dataset,v1,2,2,3"
    yield [head, *GOOD_LINES]
    yield [head, *GOOD_LINES[2:]]  # no L row
    yield [head, GOOD_LINES[0], "", GOOD_LINES[2], ""]  # one U row, blank lines
    for first, second in itertools.product(FAULTY_LINES, repeat=2):
        yield [head, GOOD_LINES[0], first, GOOD_LINES[2], "", second, *GOOD_LINES[3:]]
        yield [head, first, second, *GOOD_LINES]
    yield [HUGE_HEAD, *GOOD_LINES]
    for line in HUGE_LINES:
        yield [HUGE_HEAD, *GOOD_LINES[:3], line, *GOOD_LINES[3:]]
    yield [WIDE_HEAD, *WIDE_LINES]
    yield [WIDE_HEAD, *WIDE_LINES, GOOD_LINES[0]]
    yield [TALL_HEAD, *TALL_LINES]
    yield [TALL_HEAD, *TALL_LINES, "L,0,1.0,2.0"]
    valid = ["L,0,1.0,-2.5", "U,0,0.5,0.25", "U,2,1e-3,-0.0"]
    yield [f"{head}\x0c{valid[0]}", *valid[1:]]  # a row that only splitlines splits off the header
    for line in EDGE_LINES:
        yield [head, *valid[:2], line, *valid[2:]]
        yield [HUGE_HEAD, *valid[:2], line, *valid[2:]]


# headers the writer never writes, each over a body with a byte that is not UTF-8
BAD_HEADS = ["omx-dataset,v2,2,2,3", "omx-dataset,v1,2,0,3", "omx-dataset,v1,2,x,3",
             "omx-dataset,v1,2,2,3,4"]
NON_UTF8_BODY = b"L,0,1.0,2.0\nU,0,\xff1.0,2.0\nU,1,1.0,2.0\n"


def files_bytes(lines):
    """A file's lines as written, with blank lines between them, and without the final newline."""
    yield ("\n".join(lines) + "\n").encode()
    yield ("\n\n".join(lines) + "\n\n").encode()
    yield "\n".join(lines).encode()


def alphabet_mutations(blob, rng):
    """Substitutions, insertions and deletions of the writer's own bytes in the data lines."""
    alphabet = np.frombuffer(data.WRITER_ALPHABET, dtype=np.uint8)
    body = blob.index(b"\n") + 1
    for _ in range(3 * CASES):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            pos, byte = int(rng.integers(body, len(mutated))), int(rng.choice(alphabet))
            edit = int(rng.integers(0, 3))
            if edit == 0:
                mutated[pos] = byte
            elif edit == 1:
                mutated.insert(pos, byte)
            else:
                del mutated[pos]
        yield bytes(mutated)


# the C route's chunk sizes: the default, a line per chunk, and chunks that end mid-file
# at many offsets; the ids of the default size name the route alone
CHUNKINGS = [
    pytest.param(route, size, id=route if size is None else f"{route}-chunk{size}")
    for size in (None, 1, 97)
    for route in ("c-reader", "per-line")
]


@pytest.mark.parametrize("route, chunk_bytes", CHUNKINGS)
def test_loader_matches_per_line_reference(route, chunk_bytes, tmp_path, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(data, "LOAD_CHUNK_BYTES", chunk_bytes)
    read_c, accepted = data._read_c, []

    def counted_read_c(*args):
        parsed = read_c(*args) if route == "c-reader" else None
        accepted.append(parsed is not None)
        return parsed

    monkeypatch.setattr(data, "_read_c", counted_read_c)
    path = str(tmp_path / "dataset")
    write_dataset(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    variants = list(corruptions(blob, np.random.default_rng(7)))
    variants += alphabet_mutations(blob, np.random.default_rng(8))
    variants += [v for lines in multi_fault_files() for v in files_bytes(lines)]
    variants += [f"{head}\n".encode() + NON_UTF8_BODY for head in BAD_HEADS]
    loaded = decided = 0
    for variant in variants:
        with open(path, "wb") as fh:
            fh.write(variant)
        want = outcome(dataset_reference.load_dataset, path)
        accepted.clear()
        got = outcome(load_dataset, path)
        decided += bool(accepted) and all(accepted)  # the C route took every chunk
        if isinstance(want, tuple) and want[0] is OverflowError:
            # the reference's one untyped failure: an index beyond int64 the header allows
            assert got[0] is DataFormatError and "out of range" in got[1], variant
        elif isinstance(want, data.Dataset) and max(want.c_l, want.c_u) > data.MAX_CLASSES:
            # the reference has no class-count cap
            assert got[0] is DataFormatError and "class counts" in got[1], variant
        elif isinstance(want, data.Dataset) and want.input_dim > MAX_WIDTH:
            # nor a width cap
            assert got[0] is DataFormatError and "input_dim must be" in got[1], variant
        elif isinstance(want, data.Dataset) and max(
            len(want.labeled) * want.c_l, len(want.unlabeled) * want.c_u
        ) > data.MAX_SPLIT_VALUES:
            # nor a rows x classes cap
            assert got[0] is DataFormatError and "rows x classes" in got[1], variant
        else:
            assert got == want, variant
        loaded += isinstance(want, data.Dataset)
    assert 0 < loaded < len(variants)
    # a fair share for the C reader: most variants are faulty, and it decides over half as
    # many as load
    assert decided > loaded / 2 if route == "c-reader" else not decided
