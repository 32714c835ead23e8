"""Per-line dataset loader: the reference both routes of data.load_dataset must equal.

This is the line-at-a-time route: each line is split, checked and parsed
on its own, in file order, and the first faulty line raises. For every
file, data.load_dataset must return an equal Dataset or raise the same
exception type with the same message.
"""

import numpy as np

from openmix.data import DataFormatError, Dataset, HiddenTruth, LabeledSet, UnlabeledSet
from openmix.fileio import read_text


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad {what} {token!r}") from None


def load_dataset(path: str) -> Dataset:
    lines = read_text(path, "dataset", DataFormatError).splitlines()
    if not lines:
        raise DataFormatError("line 1: missing header")
    head = lines[0].split(",")
    if len(head) != 5 or head[0] != "omx-dataset" or head[1] != "v1":
        raise DataFormatError(f"line 1: bad header {lines[0]!r}")
    input_dim = _parse_int(head[2], 1, "input_dim")
    c_l = _parse_int(head[3], 1, "C_l")
    c_u = _parse_int(head[4], 1, "C_u")
    if input_dim < 1 or c_l < 1 or c_u < 1:
        raise DataFormatError("line 1: header counts must be >= 1")

    lx, ly, ux, uy = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 2 + input_dim:
            raise DataFormatError(
                f"line {lineno}: expected {2 + input_dim} fields, got {len(parts)}"
            )
        kind = parts[0]
        label = _parse_int(parts[1], lineno, "class index")
        try:
            feats = [float(tok) for tok in parts[2:]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad feature value") from None
        if not all(np.isfinite(feats)):
            raise DataFormatError(f"line {lineno}: non-finite feature value")
        if kind == "L":
            if not 0 <= label < c_l:
                raise DataFormatError(f"line {lineno}: labeled class {label} out of range")
            lx.append(feats)
            ly.append(label)
        elif kind == "U":
            if not 0 <= label < c_u:
                raise DataFormatError(f"line {lineno}: hidden class {label} out of range")
            ux.append(feats)
            uy.append(label)
        else:
            raise DataFormatError(f"line {lineno}: row kind must be L or U, got {kind!r}")
    if not lx or len(ux) < 2:
        raise DataFormatError(
            f"need at least 1 L row and 2 U rows, found {len(lx)} and {len(ux)}"
        )

    labeled = LabeledSet(
        np.asarray(lx, dtype=np.float64).reshape(len(lx), input_dim),
        np.asarray(ly, dtype=np.int64),
        c_l,
    )
    unlabeled = UnlabeledSet(
        np.asarray(ux, dtype=np.float64).reshape(len(ux), input_dim), c_u
    )
    return Dataset(labeled, unlabeled, HiddenTruth(np.asarray(uy, dtype=np.int64)))
