"""Small file helpers: atomic writes and digests."""

from __future__ import annotations

import hashlib
import os
import secrets


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    The temp file is created as ``open(path, "w")`` would create the file,
    mode 0o666 less the umask, so the result's mode follows the umask.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
