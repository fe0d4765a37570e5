"""CSV documents with '#'-prefixed metadata, lossless at 17 significant digits.

Layout: metadata lines ``# key=value``, one header row of column names,
then one row per record; a string cell holding ``,``, ``"`` or a line break
is quoted (RFC 4180).  Matrices are stored long-form as (row_value,
col_value, cell_value) triples, kept unexpanded until they are written.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ModelError

_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


class LongForm(NamedTuple):
    """A matrix and its two axes, written as (row, col, cell) rows by :func:`write_csv`."""

    row_axis: np.ndarray
    col_axis: np.ndarray
    matrix: np.ndarray


def _quoted(cell: str) -> str:
    """``cell``, quoted with inner quotes doubled if it holds ``,``, ``"`` or a line break."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Write a CSV document; ``rows`` is a 2-D array, value tuples or a :class:`LongForm`.

    Each column is formatted by its numpy kind (floats as ``%.17g`` like
    :func:`format_number`), the whole body by one ``%`` on a row template.
    A long form's axis values are formatted once and baked into the template
    (a formatted number holds no ``%``), so the ``%`` converts the cells only.
    """
    if isinstance(rows, LongForm):
        fmt = _FORMATS[np.result_type(*rows).kind]
        cells = [(fmt % c) + "," + fmt for c in rows.col_axis.tolist()]
        template = "\n".join(r + "," + ("\n" + r + ",").join(cells)
                             for r in map(fmt.__mod__, rows.row_axis.tolist()))
        values = tuple(rows.matrix.ravel().tolist())
    else:
        columns = (list(rows.T) if isinstance(rows, np.ndarray)
                   else [np.asarray(column) for column in zip(*rows)])
        n_rows = len(columns[0]) if columns else 0
        template = "\n".join([",".join(_FORMATS[c.dtype.kind] for c in columns)] * n_rows)
        values = tuple(chain.from_iterable(zip(*(map(_quoted, c.tolist()) if c.dtype.kind == "U"
                                                 else c.tolist() for c in columns))))
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    if values:
        lines.append(template % values)
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


def long_form(row_values, col_values, matrix) -> LongForm:
    """A matrix with its axes, unexpanded; written as (row, col, cell) rows, row-major."""
    n, m = len(row_values), len(col_values)
    if np.shape(matrix) != (n, m):
        raise ModelError("matrix shape does not match axis lengths")
    return LongForm(np.asarray(row_values), np.asarray(col_values), np.asarray(matrix))
