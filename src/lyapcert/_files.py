"""Output files that appear whole or not at all."""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager


@contextmanager
def whole_file(path):
    """A text handle (UTF-8, LF line endings; its ``buffer`` takes bytes) on
    a temporary file beside ``path``, which replaces ``path`` once the
    ``with`` block completes.

    If the block raises, ``path`` is left as it was and the temporary file
    is removed; an ``OSError`` names ``path``, not the temporary file.
    """
    path = os.fspath(path)
    if os.path.isdir(path):  # fail before the work, not at os.replace after it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
