"""Output files that appear whole or not at all.

Every CSV and summary of the package is written through ``open_output``:
the text goes to a temporary file in the target's directory, which
replaces the target only once it is complete, and is removed on any
error.  A target that exists but is not a regular file (a device such as
``/dev/stdout``, or a symbolic link) is written in place instead.
"""

from __future__ import annotations

import contextlib
import csv
import os
import secrets
import stat

__all__ = ["open_output", "write_csv"]


@contextlib.contextmanager
def open_output(path):
    """Text handle whose content replaces ``path`` when the block ends."""
    path = os.fspath(path)
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", newline="") as fh:
            yield fh
        return
    # "x" creates the file with the mode a plain open() gives
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:   # name the target, not the random temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header_lines, header, rows) -> None:
    """``# line`` comments, then the header row and the data rows."""
    with open_output(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
