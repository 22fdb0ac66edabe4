"""The one file writer: temp file + ``os.replace`` (stdlib only).

Every document the program writes — exports, reports, committed
baselines — goes through :func:`atomic_write_text`, so an interrupted
run or a serializer that raises can never leave a truncated file where
a good one was.  This module imports nothing from the package: any
module may import it.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write_text"]


def atomic_write_text(path, text: str) -> str:
    """Write ``text`` to ``path``: either the old contents survive or
    the new ones land whole.

    The temp file lives in the destination directory so the replace
    stays on one filesystem (rename atomicity).
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
