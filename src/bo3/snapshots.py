"""File format of the experiment tables: CSV in full double precision.

Tables and plots reach their files through ``write_text``, piece by piece,
so neither is ever held whole as text.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "write_csv",
    "write_text",
    "read_csv",
]

_FMT = "%.17g"


def write_text(path, pieces) -> None:
    """Write the strings ``pieces`` one after another as the file ``path``.

    They go into a sibling temporary file that replaces ``path`` once the last
    one is written and the file closed, so a piece that fails to form leaves
    any earlier file under that name as it was, and no partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = open(tmp, "w")  # if this fails, nothing was made
    try:
        with out:
            out.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _lines(rows):
    """The lines of the table, one a row."""
    rows = iter(rows)
    header = next(rows, None)
    if header is None:  # no row: the file is one empty line
        yield "\n"
        return
    yield ",".join(str(c) for c in header) + "\n"
    for row in rows:
        yield ",".join(c if isinstance(c, str) else _FMT % c for c in row) + "\n"


def write_csv(path, rows) -> None:
    """Write rows (first row is the header) with full double precision.

    Each row is formatted and written on its own, so ``rows`` may be a
    generator of any length; the file is complete when this returns.
    """
    write_text(path, _lines(rows))


def read_csv(path):
    """Returns (header, list of rows of floats-or-strings).

    A file that cannot be read, or a row whose cell count differs from the
    header's, is a ValueError that names the file (and the line).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells under a header of "
                             f"{len(header)}")
        row = []
        for cell in cells:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows
