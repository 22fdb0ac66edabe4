"""The one file writer and the one committed-document encoding (stdlib
only).

Every document the program writes — exports, reports, committed
baselines — goes through :func:`atomic_write_text`, so an interrupted
run or a serializer that raises can never leave a truncated file where
a good one was.  Every committed or exported JSON document that is read
by people and diffed between commits is encoded by
:func:`canonical_json`.  This module imports nothing from the package:
any module may import it.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_text", "canonical_json"]


def canonical_json(doc) -> str:
    """Sorted keys, two-space indent, trailing newline: the byte-stable
    form of ``BENCH_*.json``, comm-docs and reports."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
