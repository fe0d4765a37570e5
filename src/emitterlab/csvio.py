"""CSV documents with '#'-prefixed metadata, lossless at 17 significant digits.

Layout: metadata lines ``# key=value``, one header row of column names,
then numeric rows.  Matrices are stored long-form as
(row_value, col_value, cell_value) triples.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ModelError


def format_number(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Write a CSV document; ``rows`` is an iterable of value tuples."""
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    """Read back (meta, header, data) from :func:`write_csv` output."""
    meta: dict = {}
    header = None
    data = []
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ModelError(f"{path}:{lineno}: non-numeric row {line!r}")
        if len(row) != len(header):
            raise ModelError(
                f"{path}:{lineno}: row has {len(row)} columns, header has {len(header)}"
            )
        data.append(row)
    if header is None:
        raise ModelError(f"{path} contains no header row")
    return meta, header, np.array(data, dtype=float)


def matrix_rows(row_values, col_values, matrix):
    """Long-form (row_value, col_value, cell) triples, row-major order."""
    matrix = np.asarray(matrix)
    if matrix.shape != (len(row_values), len(col_values)):
        raise ModelError("matrix shape does not match axis lengths")
    for i, rv in enumerate(row_values):
        for j, cv in enumerate(col_values):
            yield (rv, cv, matrix[i, j])
