"""experiments/run_hashes.py gives the same digests for the same run (under the
reference's numpy, the reference's digest), its load digest is the sha256 of the
generated arrays, and it prints the cases of experiments/run_hashes.txt with the
same load digests."""

import hashlib
import re
from pathlib import Path

import numpy as np

from openmix import data
from helpers import load_experiment

REFERENCE = Path(__file__).resolve().parents[1] / "experiments" / "run_hashes.txt"
HEX64 = re.compile(r"[0-9a-f]{64}")


def test_same_case_gives_the_same_digests(tmp_path, monkeypatch):
    tool = load_experiment(monkeypatch, "run_hashes")
    pairs = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        pairs.append(tool.run_digests(0, tool.SHORT, str(workdir)))
    assert pairs[0] == pairs[1]
    run, pretrain = pairs[0]
    assert HEX64.fullmatch(run) and HEX64.fullmatch(pretrain)
    assert run != pretrain
    # the reference holds for the numpy, BLAS and CPU that the tool's docstring
    # names; another numpy may round differently, and there only the runs agree
    if np.__version__ == "2.4.6":
        assert f"{run}  short default" in REFERENCE.read_text(encoding="utf-8").splitlines()


def test_load_digest_covers_the_generated_arrays_in_order(tmp_path, monkeypatch):
    tool = load_experiment(monkeypatch, "run_hashes")
    ds = data.generate_blobs(data.SplitSpec(seed=0))
    path = str(tmp_path / "ds.bin")
    data.save_dataset(path, ds)
    digest = hashlib.sha256()
    for arr in (ds.labeled.x, ds.labeled.y, ds.unlabeled.x, ds.truth.labels_for_eval()):
        digest.update(arr.tobytes())
    assert tool.load_digest(path) == digest.hexdigest()


def test_main_prints_the_reference_cases_and_load_digests(monkeypatch, capsys):
    # the runs and reports are stubbed; the two 50k-row loads are recomputed, so the
    # generator's and the dataset file's bytes are checked against the reference
    tool = load_experiment(monkeypatch, "run_hashes")
    monkeypatch.setattr(tool, "run_digests", lambda seed, fields, workdir: ("0" * 64, "1" * 64))
    monkeypatch.setattr(tool, "analyze_digest", lambda seed: "2" * 64)
    assert tool.main() == 0
    printed = capsys.readouterr().out.splitlines()
    reference = REFERENCE.read_text(encoding="utf-8").splitlines()

    def names(lines):
        return [line.split("  ", 1)[1] for line in lines]

    def loads(lines):
        return [line for line in lines if " load per_class=5000 " in line]

    assert names(printed) == names(reference)
    assert len(loads(reference)) == 2 and loads(printed) == loads(reference)
