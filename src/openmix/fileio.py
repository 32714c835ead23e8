"""Reading files with typed errors, and atomic writes of byte chunks."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable


def read_text(path: str, what: str, error: type[Exception], cap: int | None = None) -> str:
    """Read a UTF-8 file; an unreadable or non-UTF-8 file, or one of more than `cap`
    bytes or than memory holds, raises `error`. A capped read stops at cap + 1 bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(-1 if cap is None else cap + 1)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except MemoryError:
        raise error(f"{what} {path} does not fit in memory") from None
    if cap is not None and len(data) > cap:
        raise error(f"{what} {path} is larger than {cap} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks to `path` through a temp file beside it and os.replace.

    Readers see the old file or the new one, never a partial write; a failed
    write, or chunks that raise, leave the old file as it was and remove the
    temp file.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
