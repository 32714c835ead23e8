"""Reading files with typed errors, and atomic writes of byte chunks."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable


def read_head(path: str, what: str, error: type[Exception], cap: int | None = None):
    """(first line, rest) of a file as bytes, the line's "\\n" kept, each read once.

    An unreadable file, or one of more than `cap` bytes, raises `error`; a
    capped read stops at cap + 1 bytes.
    """
    limit = -1 if cap is None else cap + 1
    try:
        with open(path, "rb") as fh:
            head = fh.readline(limit)
            rest = fh.read(-1 if cap is None else limit - len(head))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if cap is not None and len(head) + len(rest) > cap:
        raise error(f"{what} {path} is larger than {cap} bytes")
    return head, rest


def decode(data: bytes, path: str, what: str, error: type[Exception]) -> str:
    """`data`, read from `path`, as UTF-8 text; other bytes raise `error`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def read_text(path: str, what: str, error: type[Exception], cap: int | None = None) -> str:
    """Read a UTF-8 file; an unreadable or non-UTF-8 file, or one of more than `cap`
    bytes, raises `error`."""
    return decode(b"".join(read_head(path, what, error, cap)), path, what, error)


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
