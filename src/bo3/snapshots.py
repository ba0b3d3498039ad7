"""File format of the experiment tables: CSV in full double precision."""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "write_csv",
    "read_csv",
]

_FMT = "%.17g"


def _fmt(v) -> str:
    return _FMT % v


def write_csv(path, rows) -> None:
    """Write rows (first row is the header) with full double precision."""
    path = Path(path)
    out = []
    for i, row in enumerate(rows):
        if i == 0:
            out.append(",".join(str(c) for c in row))
        else:
            out.append(",".join(
                c if isinstance(c, str) else _fmt(c) for c in row
            ))
    path.write_text("\n".join(out) + "\n")


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
