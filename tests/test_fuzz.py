"""Seeded fuzzing of the loaders: a corrupt file loads or fails typed.

Truncated, bit-flipped and garbage variants of a valid dataset, checkpoint,
run config and split spec go through their loaders. Each variant must
either load or raise the loader's documented error; anything else (a
UnicodeDecodeError, a bare ValueError, an IndexError) is a bug the CLI
would print as a traceback.
"""

import dataclasses

import numpy as np
import pytest

from openmix.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from openmix.config import ConfigError, RunConfig, load_run_config
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
