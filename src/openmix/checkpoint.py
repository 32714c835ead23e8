"""Binary model checkpoints.

Layout: magic bytes "OMX1"; little-endian u32 fields input_dim, number of
hidden layers, each hidden width, feature_dim, C_l, C_u; then every
parameter as little-endian float64, w then b for each layer of
nn.layer_shapes in its order.
"""

from __future__ import annotations

import struct

import numpy as np

from .config import MAX_WIDTH, check_hidden_stack
from .data import MAX_CLASSES
from .fileio import write_atomic
from .nn import TwoHeadMLP, iter_params, layer_shapes, on_flat, parameter_count

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
    for p in iter_params(model):
        blob += np.ascontiguousarray(p, dtype="<f8").tobytes()
    write_atomic(path, bytes(blob))


def load_checkpoint(path: str) -> TwoHeadMLP:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    try:
        input_dim, n_hidden = struct.unpack_from("<2I", blob, 4)
        # struct checks the length before it unpacks, so a huge n_hidden costs nothing
        *hidden_dims, feature_dim, c_l, c_u = struct.unpack_from(f"<{n_hidden + 3}I", blob, 12)
    except struct.error:
        raise CheckpointError(f"{path}: truncated header") from None
    check_hidden_stack(hidden_dims, feature_dim, lambda msg: CheckpointError(f"{path}: {msg}"))
    if not (1 <= input_dim <= MAX_WIDTH and 1 <= min(c_l, c_u) <= max(c_l, c_u) <= MAX_CLASSES):
        raise CheckpointError(
            f"{path}: input_dim must be in [1, {MAX_WIDTH}], C_l and C_u in [1, {MAX_CLASSES}]"
        )
    shapes = layer_shapes(input_dim, hidden_dims, feature_dim, c_l, c_u)

    off = 12 + 4 * (n_hidden + 3)
    expected = parameter_count(input_dim, hidden_dims, feature_dim, c_l, c_u)
    if len(blob) - off != expected * 8:
        raise CheckpointError(
            f"{path}: expected {expected} parameters, found {(len(blob) - off) // 8}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=off)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: non-finite parameter")
    return on_flat(shapes, flat.astype(np.float64))
