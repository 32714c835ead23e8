"""Reading UTF-8 text with typed errors, and atomic file writes."""

from __future__ import annotations

import contextlib
import os


def read_text(path: str, what: str, error: type[Exception]) -> str:
    """Read a UTF-8 file; an unreadable or non-UTF-8 file raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def write_atomic(path: str, data: bytes) -> None:
    """Write `data` to `path` through a temp file beside it and os.replace.

    Readers see the old file or the new one, never a partial write; a failed
    write leaves the old file as it was and removes the temp file.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
