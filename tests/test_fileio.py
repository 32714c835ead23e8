"""Atomic writes shared by the checkpoint, dataset and metrics writers."""

import os

import pytest

from openmix import fileio
from openmix.checkpoint import save_checkpoint
from openmix.data import generate_blobs, save_dataset
from openmix.train import EpochReport, write_metrics_csv
from helpers import tiny_model, tiny_spec

WRITERS = {
    "checkpoint": lambda path, n: save_checkpoint(path, tiny_model(seed=n)),
    "dataset": lambda path, n: save_dataset(path, generate_blobs(tiny_spec(seed=n))),
    "metrics": lambda path, n: write_metrics_csv(
        path, [EpochReport(n + 1, 0.5, 0.25, 0.1, 0.2, 0.0, 0, float("nan"))]
    ),
}


class HalfWriter:
    """A file whose write puts half the bytes down, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


@pytest.mark.parametrize("kind", list(WRITERS))
def test_failed_write_keeps_previous_file(kind, tmp_path, monkeypatch):
    write = WRITERS[kind]
    path = tmp_path / "out"
    write(str(path), 0)
    before = path.read_bytes()

    monkeypatch.setattr(fileio, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(str(path), 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out"]

    monkeypatch.undo()
    write(str(path), 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["out"]

