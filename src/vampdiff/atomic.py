"""Atomic output files: a run killed mid-write leaves the previous file
(or none), never a truncated one."""
from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new temporary file beside ``path`` for writing (text mode
    with ``newline=""``, or ``"wb"``).

    On a clean exit the file replaces ``path`` in one ``os.replace``; if
    the body raises, the temporary file is removed and ``path`` is left as
    it was.  The file is created like ``open(path, "w")`` would create it,
    so it gets the usual permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, mode.replace("w", "x"),
             newline=None if "b" in mode else "")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
