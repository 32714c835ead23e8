"""experiments/run_hashes.py gives the same digests for the same run, and its
spaced dataset copy loads to the same arrays by the other route."""

import importlib.util
import re
from pathlib import Path

from openmix import data

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "experiments" / "run_hashes.py"
HEX64 = re.compile(r"[0-9a-f]{64}")


def load_tool(monkeypatch):
    # loading the tool pins BLAS threads in os.environ; monkeypatch undoes it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("run_hashes", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_same_case_gives_the_same_digests(tmp_path, monkeypatch):
    tool = load_tool(monkeypatch)
    pairs = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        pairs.append(tool.run_digests(0, tool.SHORT, str(workdir)))
    assert pairs[0] == pairs[1]
    run, pretrain = pairs[0]
    assert HEX64.fullmatch(run) and HEX64.fullmatch(pretrain)
    assert run != pretrain


def test_spaced_copy_loads_to_the_same_arrays(tmp_path, monkeypatch):
    tool = load_tool(monkeypatch)
    path, spaced = str(tmp_path / "ds.csv"), str(tmp_path / "ds.csv.spaced")
    data.save_dataset(path, data.generate_blobs(data.SplitSpec(seed=0)))
    tool.spaced_copy(path, spaced)

    read_lines, routed = data._read_lines, []

    def counted_read_lines(*args):
        routed.append(args)
        return read_lines(*args)

    monkeypatch.setattr(data, "_read_lines", counted_read_lines)
    writer_digest = tool.load_digest(path)
    assert not routed  # the writer's file stays on the C route
    assert tool.load_digest(spaced) == writer_digest
    assert len(routed) == 1  # the spaced copy takes the per-line route
