"""Binary model checkpoints.

Layout: magic bytes "OMX1"; little-endian u32 fields input_dim, number of
hidden layers, each hidden width, feature_dim, C_l, C_u; then every
parameter as little-endian float64 in declaration order (backbone layers
w,b in order, old head w,b, new head w,b).
"""

from __future__ import annotations

import struct

import numpy as np

from .fileio import write_atomic
from .nn import Affine, TwoHeadMLP, iter_params, parameter_count

MAGIC = b"OMX1"


class CheckpointError(Exception):
    """Raised for unreadable or malformed checkpoint files."""


def save_checkpoint(path: str, model: TwoHeadMLP) -> None:
    header = [
        model.input_dim,
        len(model.hidden_dims),
        *model.hidden_dims,
        model.feature_dim,
        model.c_l,
        model.c_u,
    ]
    blob = bytearray(MAGIC)
    blob += struct.pack(f"<{len(header)}I", *header)
    for _, p in iter_params(model):
        blob += np.ascontiguousarray(p, dtype="<f8").tobytes()
    write_atomic(path, bytes(blob))


def load_checkpoint(path: str) -> TwoHeadMLP:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")

    def read_u32(offset: int) -> tuple[int, int]:
        if offset + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated header")
        return struct.unpack_from("<I", blob, offset)[0], offset + 4

    off = 4
    input_dim, off = read_u32(off)
    n_hidden, off = read_u32(off)
    hidden_dims = []
    for _ in range(n_hidden):
        d, off = read_u32(off)
        hidden_dims.append(d)
    feature_dim, off = read_u32(off)
    c_l, off = read_u32(off)
    c_u, off = read_u32(off)
    if min(input_dim, feature_dim, c_l, c_u, *hidden_dims) < 1:
        raise CheckpointError(f"{path}: layer dims must be >= 1")

    expected = parameter_count(input_dim, hidden_dims, feature_dim, c_l, c_u)
    payload = blob[off:]
    if len(payload) != expected * 8:
        raise CheckpointError(
            f"{path}: expected {expected} parameters, found {len(payload) // 8}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: non-finite parameter")

    pos = 0

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal pos
        size = int(np.prod(shape))
        out = flat[pos : pos + size].reshape(shape).copy()
        pos += size
        return out

    dims = [input_dim, *hidden_dims, feature_dim]
    backbone = [
        Affine(take((a, b)), take((b,))) for a, b in zip(dims[:-1], dims[1:])
    ]
    old_head = Affine(take((feature_dim, c_l)), take((c_l,)))
    new_head = Affine(take((feature_dim, c_u)), take((c_u,)))
    return TwoHeadMLP(backbone, old_head, new_head)
