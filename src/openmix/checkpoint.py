"""Binary model checkpoints.

Layout: magic bytes "OMX1"; little-endian u32 fields input_dim, number of
hidden layers, each hidden width, feature_dim, C_l, C_u; then every
parameter as little-endian float64, w then b for each layer of
nn.layer_shapes in its order.
"""

from __future__ import annotations

import struct

import numpy as np

from .config import MAX_HIDDEN_LAYERS, MAX_WIDTH, check_hidden_stack
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
    """The model in path; reads no more than its header implies, plus one byte."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
        try:
            input_dim, n_hidden = struct.unpack("<2I", fh.read(8))
            # one width past the cap fails check_hidden_stack, so no more are read
            k = min(n_hidden, MAX_HIDDEN_LAYERS + 1) + 3
            *hidden_dims, feature_dim, c_l, c_u = struct.unpack(f"<{k}I", fh.read(4 * k))
        except struct.error:
            raise CheckpointError(f"{path}: truncated header") from None
        check_hidden_stack(hidden_dims, feature_dim, lambda msg: CheckpointError(f"{path}: {msg}"))
        if not (1 <= input_dim <= MAX_WIDTH and 1 <= min(c_l, c_u) <= max(c_l, c_u) <= MAX_CLASSES):
            raise CheckpointError(
                f"{path}: input_dim must be in [1, {MAX_WIDTH}], C_l and C_u in [1, {MAX_CLASSES}]"
            )
        shapes = layer_shapes(input_dim, hidden_dims, feature_dim, c_l, c_u)
        expected = parameter_count(input_dim, hidden_dims, feature_dim, c_l, c_u)
        payload = fh.read(8 * expected + 1)  # a byte past the payload is trailing data
    if len(payload) != 8 * expected:
        found = len(payload) // 8 if len(payload) < 8 * expected else f"more than {expected}"
        raise CheckpointError(f"{path}: expected {expected} parameters, found {found}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: non-finite parameter")
    return on_flat(shapes, flat.astype(np.float64))
