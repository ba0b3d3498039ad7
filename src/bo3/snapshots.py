"""File formats: field snapshots and CSV tables.

Snapshot format: one header line ``n L time`` followed by n lines ``x value``
(``x re im`` for complex fields), everything in full double precision.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .spectral import ComplexField, RealField, SpectralGrid

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_csv",
    "read_csv",
]

_FMT = "%.17g"


def _fmt(v) -> str:
    return _FMT % v


def write_snapshot(path, fld, time: float = 0.0) -> None:
    path = Path(path)
    lines = [f"{fld.grid.n} {_fmt(fld.grid.length)} {_fmt(time)}"]
    if isinstance(fld, ComplexField):
        for x, v in zip(fld.grid.x, fld.values):
            lines.append(f"{_fmt(x)} {_fmt(v.real)} {_fmt(v.imag)}")
    else:
        for x, v in zip(fld.grid.x, fld.values):
            lines.append(f"{_fmt(x)} {_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


def read_snapshot(path):
    """Returns (field, time)."""
    lines = Path(path).read_text().strip().split("\n")
    n_str, length_str, time_str = lines[0].split()
    grid = SpectralGrid(int(n_str), float(length_str))
    rows = [line.split() for line in lines[1:]]
    if len(rows) != grid.n:
        raise ValueError(f"expected {grid.n} samples, found {len(rows)}")
    if len(rows[0]) == 3:
        vals = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        return ComplexField(grid, vals), float(time_str)
    vals = np.array([float(r[1]) for r in rows])
    return RealField(grid, vals), float(time_str)


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
    """Returns (header, list of rows of floats-or-strings)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows
