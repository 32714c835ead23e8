"""Seeded fuzzing of the loaders: a corrupt file loads or fails typed.

Truncated, bit-flipped and garbage variants of a valid dataset, checkpoint,
run config and split spec go through their loaders. Each variant must
either load or raise the loader's documented error; anything else (a
UnicodeDecodeError, a bare ValueError, an IndexError) is a bug the CLI
would print as a traceback. The dataset loader must also match the
per-line reference loader on every variant and on hand-built files with
several faults: the same Dataset, or the same error and message.
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


@pytest.mark.parametrize("chunk", [data.CHUNK_LINES, 2])
def test_loader_matches_per_line_reference(chunk, tmp_path, monkeypatch):
    # a small chunk puts the faults of one file in different chunks
    monkeypatch.setattr(data, "CHUNK_LINES", chunk)
    path = str(tmp_path / "dataset")
    write_dataset(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    variants = list(corruptions(blob, np.random.default_rng(7)))
    variants += [("\n".join(lines) + "\n").encode() for lines in multi_fault_files()]
    loaded = 0
    for variant in variants:
        with open(path, "wb") as fh:
            fh.write(variant)
        want = outcome(dataset_reference.load_dataset, path)
        got = outcome(load_dataset, path)
        if isinstance(want, tuple) and want[0] is OverflowError:
            # the reference's one untyped failure: an index beyond int64 the header allows
            assert got[0] is DataFormatError and "out of range" in got[1], variant
        elif isinstance(want, data.Dataset) and max(want.c_l, want.c_u) > data.MAX_CLASSES:
            # the reference has no class-count cap
            assert got[0] is DataFormatError and "class counts" in got[1], variant
        elif isinstance(want, data.Dataset) and want.input_dim > MAX_WIDTH:
            # nor a width cap
            assert got[0] is DataFormatError and "input_dim must be" in got[1], variant
        else:
            assert got == want, variant
        loaded += isinstance(want, data.Dataset)
    assert 0 < loaded < len(variants)
