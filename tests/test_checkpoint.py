"""Binary checkpoint round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from openmix import checkpoint, nn
from openmix.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from helpers import model_params_flat, recorded_reads, tiny_model, traced_peak


def test_roundtrip_bitwise(tmp_path):
    m = tiny_model(seed=11, hidden=(4, 3))
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), m)
    back = load_checkpoint(str(path))
    assert back.input_dim == m.input_dim
    assert back.hidden_dims == m.hidden_dims
    assert back.feature_dim == m.feature_dim
    assert back.c_l == m.c_l and back.c_u == m.c_u
    assert np.array_equal(model_params_flat(back), model_params_flat(m))


def test_roundtrip_no_hidden(tmp_path):
    m = nn.init_model(4, [], 3, 2, 2, seed=0)
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), m)
    back = load_checkpoint(str(path))
    assert back.hidden_dims == []
    assert np.array_equal(model_params_flat(back), model_params_flat(m))


def test_save_writes_parameters_from_their_own_memory(tmp_path):
    # the paper-shaped model's 618 KB of parameters go to the file uncopied; a writer
    # that joined them into one bytearray was traced at 1.30 times them
    m = nn.init_model(100, [], 384, 80, 20, seed=0)
    path = tmp_path / "m.omx"
    params = model_params_flat(m)
    peak = traced_peak(lambda: save_checkpoint(str(path), m))
    assert peak < 0.1 * params.nbytes, f"peak {peak / params.nbytes:.3f} times the parameters"
    head = checkpoint.MAGIC + struct.pack("<5I", 100, 0, 384, 80, 20)
    assert path.read_bytes() == head + params.astype("<f8").tobytes()


def test_save_is_deterministic(tmp_path):
    m = tiny_model(seed=5)
    p1, p2 = tmp_path / "a.omx", tmp_path / "b.omx"
    save_checkpoint(str(p1), m)
    save_checkpoint(str(p2), m)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "m.omx"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_truncated_header(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), m)
    blob = path.read_bytes()
    path.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_header_cut_inside_hidden_widths(tmp_path):
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), tiny_model(hidden=(4, 3)))
    # magic, input_dim, n_hidden = 2, then only the first hidden width
    path.write_bytes(path.read_bytes()[:16])
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(str(path))


def test_huge_hidden_count_in_short_file(tmp_path):
    path = tmp_path / "m.omx"
    path.write_bytes(b"OMX1" + struct.pack("<4I", 3, 2**32 - 1, 4, 5))
    assert len(path.read_bytes()) == 20
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), m)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="expected"):
        load_checkpoint(str(path))


def test_zero_dim_and_non_finite_rejected(tmp_path):
    path = tmp_path / "m.omx"
    # feature_dim 0 with a payload of the matching (smaller) size
    count = nn.parameter_count(3, [], 0, 1, 2)
    path.write_bytes(b"OMX1" + struct.pack("<5I", 3, 0, 0, 1, 2) + bytes(8 * count))
    with pytest.raises(CheckpointError, match="dims"):
        load_checkpoint(str(path))
    save_checkpoint(str(path), tiny_model())
    blob = bytearray(path.read_bytes())
    for bad in (float("nan"), float("inf")):
        blob[-8:] = struct.pack("<d", bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(str(path))


# (input_dim, hidden_dims, feature_dim, C_l, C_u) beyond a cap, with the message that names it
OVERSIZED = {
    "wide feature": ((1, [], 50_000, 1, 1), r"feature_dim and hidden_dims must be in \[1, 4096\]"),
    "deep stack": ((1, [1] * 65, 1, 1, 1), "hidden_dims must hold at most 64 widths"),
    "heavy stack": ((1, [4096, 4096], 1, 1, 1), f"must hold <= {2**24} weights"),
    "wide input": ((4097, [], 1, 1, 1), r"input_dim must be in \[1, 4096\]"),
    "many old classes": ((1, [], 1, 4097, 1), r"C_l and C_u in \[1, 4096\]"),
    "many new classes": ((1, [], 1, 1, 4097), r"C_l and C_u in \[1, 4096\]"),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_header_rejected_before_the_payload(case, tmp_path):
    # a hand-built header alone: the caps are checked before the payload's size
    (input_dim, hidden, feature_dim, c_l, c_u), match = OVERSIZED[case]
    header = [input_dim, len(hidden), *hidden, feature_dim, c_l, c_u]
    path = tmp_path / "m.omx"
    path.write_bytes(b"OMX1" + struct.pack(f"<{len(header)}I", *header))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(path))


def test_loader_reads_the_payload_plus_one_byte(tmp_path, monkeypatch):
    m = tiny_model(hidden=(4, 3))
    count = nn.parameter_count(m.input_dim, m.hidden_dims, m.feature_dim, m.c_l, m.c_u)
    path = tmp_path / "m.omx"
    save_checkpoint(str(path), m)
    size = path.stat().st_size
    asked = recorded_reads(monkeypatch, checkpoint)
    load_checkpoint(str(path))
    assert min(asked) >= 0 and sum(asked) == size + 1
    # a megabyte of trailing data is caught by that one byte, not read
    path.write_bytes(path.read_bytes() + bytes(2**20))
    asked.clear()
    trailing = f"expected {count} parameters, found more than {count}"
    with pytest.raises(CheckpointError, match=trailing):
        load_checkpoint(str(path))
    assert min(asked) >= 0 and sum(asked) == size + 1


def test_loader_reads_no_widths_past_the_cap(tmp_path, monkeypatch):
    path = tmp_path / "m.omx"
    path.write_bytes(b"OMX1" + struct.pack("<2I", 3, 2**32 - 1) + bytes(2**20))
    asked = recorded_reads(monkeypatch, checkpoint)
    with pytest.raises(CheckpointError, match="hidden_dims must hold at most 64 widths"):
        load_checkpoint(str(path))
    # magic, input_dim and the count, then one width past the cap and the three dims
    assert asked == [4, 8, 4 * (64 + 1 + 3)]


def test_missing_file():
    with pytest.raises(OSError):
        load_checkpoint("/nonexistent/m.omx")
