"""CSV documents with '#'-prefixed metadata, lossless at 17 significant digits.

Layout: metadata lines ``# key=value``, one header row of column names,
then one row per record.  Matrices are stored long-form as
(row_value, col_value, cell_value) triples.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ModelError

_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Write a CSV document; ``rows`` is a 2-D array or an iterable of value tuples.

    Each column is formatted by its numpy kind (floats as ``%.17g`` like
    :func:`format_number`), the whole body by one ``%`` on a row template.
    """
    if isinstance(rows, np.ndarray):
        columns = list(rows.T)
    else:
        columns = [np.asarray(column) for column in zip(*rows)]
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    n_rows = len(columns[0]) if columns else 0
    if n_rows:
        template = ",".join(_FORMATS[column.dtype.kind] for column in columns)
        values = chain.from_iterable(zip(*(column.tolist() for column in columns)))
        lines.append("\n".join([template] * n_rows) % tuple(values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    """Read back (meta, header, data) from :func:`write_csv` output.

    Blank lines and ``#`` lines may appear anywhere.  The numeric body is
    parsed in one ``np.array(cells, dtype=float)``, which accepts exactly
    what ``float()`` accepts.  A non-numeric or non-finite cell, or a row
    of the wrong width, raises :class:`ModelError` naming the file and line.
    """
    meta: dict = {}
    header = None
    body = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in map(str.strip, lines):
        if not line:
            continue
        if line.startswith("#"):
            entry = line[1:].strip()
            if "=" in entry:
                key, _, value = entry.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        body.append(line)
    if header is None:
        raise ModelError(f"{path} contains no header row")
    if not body:
        return meta, header, np.array([], dtype=float)
    width = len(header)
    # every row has width - 1 commas, so the cells reshape row by row; any
    # failure is parsed again row by row for the message
    if set(map(str.count, body, repeat(","))) == {width - 1}:
        try:
            data = np.array(",".join(body).split(","), dtype=float)
        except ValueError:
            pass
        else:
            if np.all(np.isfinite(data)):
                return meta, header, data.reshape(len(body), width)
    return meta, header, _parse_rows(path, lines, width)


def _parse_rows(path, lines, width: int) -> np.ndarray:
    """The body of ``lines`` parsed row by row, so that the first row that is
    not ``width`` finite numbers raises :class:`ModelError` naming its line."""
    stripped = (line.strip() for line in lines)
    numbered = [(n, line) for n, line in enumerate(stripped, start=1)
                if line and not line.startswith("#")]
    data = []
    for lineno, line in numbered[1:]:  # numbered[0] is the header
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ModelError(f"{path}:{lineno}: non-numeric row {line!r}")
        if not all(map(math.isfinite, row)):
            raise ModelError(f"{path}:{lineno}: non-finite value in row {line!r}")
        if len(row) != width:
            raise ModelError(
                f"{path}:{lineno}: row has {len(row)} columns, header has {width}"
            )
        data.append(row)
    return np.array(data, dtype=float)


def long_form(row_values, col_values, matrix) -> np.ndarray:
    """A matrix as (row_value, col_value, cell) rows of one array, row-major order."""
    n, m = len(row_values), len(col_values)
    if np.shape(matrix) != (n, m):
        raise ModelError("matrix shape does not match axis lengths")
    return np.column_stack([np.repeat(row_values, m), np.tile(col_values, n),
                            np.ravel(matrix)])
