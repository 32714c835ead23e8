"""Binary checkpoint round-trips and corruption handling."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from openmix import checkpoint, nn
from openmix.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from helpers import model_params_flat, tiny_model, traced_peak


def header(input_dim, hidden, feature_dim, c_l, c_u):
    """The magic bytes and u32 fields that save_checkpoint writes for this geometry."""
    fields = [input_dim, len(hidden), *hidden, feature_dim, c_l, c_u]
    return checkpoint.MAGIC + struct.pack(f"<{len(fields)}I", *fields)


def saved(**kw):
    """The bytes save_checkpoint writes for tiny_model(**kw)."""
    m = tiny_model(**kw)
    head = header(m.input_dim, m.hidden_dims, m.feature_dim, m.c_l, m.c_u)
    return head + model_params_flat(m).astype("<f8").tobytes()


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
    assert path.read_bytes() == header(100, [], 384, 80, 20) + params.astype("<f8").tobytes()


def test_save_is_deterministic(tmp_path):
    m = tiny_model(seed=5)
    p1, p2 = tmp_path / "a.omx", tmp_path / "b.omx"
    save_checkpoint(str(p1), m)
    save_checkpoint(str(p2), m)
    assert p1.read_bytes() == p2.read_bytes() == saved(seed=5)


TINY = saved()  # 28 header bytes and 83 parameters: 692 bytes
WIDE = "feature_dim and hidden_dims must be in [1, 4096]"
DEEP = "hidden_dims must hold at most 64 widths"
HEAVY = f"hidden_dims and feature_dim must hold <= {2**24} weights"
FEW = "input_dim must be in [1, 4096], C_l and C_u in [1, 4096]"

MB = bytes(2**20)

# file bytes, and the message after "{path}: "
MALFORMED = {
    "bad magic": (b"NOPE" + bytes(64), "bad magic bytes, not a checkpoint"),
    "truncated header": (TINY[:10], "truncated header"),
    # magic, input_dim, n_hidden = 2, then only the first hidden width
    "header cut inside hidden widths": (saved(hidden=(4, 3))[:16], "truncated header"),
    "huge hidden count": (b"OMX1" + struct.pack("<4I", 3, 2**32 - 1, 4, 5), "truncated header"),
    "endless hidden widths": (b"OMX1" + struct.pack("<2I", 3, 2**32 - 1) + MB, DEEP),
    "truncated payload": (TINY[:-8], "expected 692 bytes, found 684"),
    "trailing byte": (TINY + b"\0", "expected 692 bytes, found 693"),
    "trailing megabyte": (saved(hidden=(4, 3)) + MB, f"expected 776 bytes, found {776 + 2**20}"),
    "zero feature_dim": (header(3, [], 0, 1, 2) + bytes(8 * 3), WIDE),  # and its 3 biases
    "nan parameter": (TINY[:-8] + struct.pack("<d", float("nan")), "non-finite parameter"),
    "inf parameter": (TINY[:-8] + struct.pack("<d", float("inf")), "non-finite parameter"),
}
# a bare header beyond a cap, and the message that names it
OVERSIZED = {
    "wide feature": (header(1, [], 50_000, 1, 1), WIDE),
    "deep stack": (header(1, [1] * 65, 1, 1, 1), DEEP),
    "heavy stack": (header(1, [4096] * 2, 1, 1, 1), HEAVY),
    "wide input": (header(4097, [], 1, 1, 1), FEW),
    "many old classes": (header(1, [], 1, 4097, 1), FEW),
    "many new classes": (header(1, [], 1, 1, 4097), FEW),
}


def load_error(path) -> str:
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(str(path))
    return str(exc.value)


def assert_refused(row, tmp_path):
    """Load row's bytes: its exact message, a traced peak under 100 KB, nothing made."""
    blob, message = row
    path, errors = tmp_path / "m.omx", []
    path.write_bytes(blob)
    peak = traced_peak(lambda: errors.append(load_error(path)))
    assert errors == [f"{path}: {message}"] and peak < 100_000, f"peak {peak} bytes"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_is_refused(case, tmp_path):
    # nothing past what the header implies is read: neither megabyte reaches memory
    assert_refused(MALFORMED[case], tmp_path)


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_header_rejected_before_the_payload(case, tmp_path):
    # the caps are checked before the payload's size: these files hold no payload
    assert_refused(OVERSIZED[case], tmp_path)


def test_file_shrunk_after_its_size_check(tmp_path, monkeypatch):
    path = tmp_path / "m.omx"
    path.write_bytes(TINY[:-8])
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: SimpleNamespace(st_size=len(TINY)))
    assert load_error(path) == f"{path}: file ended inside its parameters"


def test_missing_file():
    with pytest.raises(OSError):
        load_checkpoint("/nonexistent/m.omx")
