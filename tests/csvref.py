"""load_dataset as first written, the reference that the block reader must equal.

csv.reader reads the whole file, and then each column is converted in turn.
"""
import csv
import math
from operator import itemgetter

import numpy as np

from distcorr.errors import DataFormatError, UsageError
from distcorr.screening import MISSING_POLICIES, Dataset


def _parse_cell(text: str, row: int, name: str) -> float:
    """A cell's value: NaN if empty (the missing value), else a finite float."""
    text = text.strip()
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"non-numeric cell {text!r} at row {row}, column {name!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite cell {text!r} at row {row}, column {name!r}")
    return value


def _parse_column(rows: list, j: int, name: str) -> np.ndarray:
    """Cell j of every row as ``_parse_cell`` reads it, without a Python call per cell for a clean column.

    ``float`` strips the whitespace that ``str.strip`` does, so a column of
    finite numbers reads the same values.  A column with an empty,
    non-numeric or non-finite cell is read again cell by cell, for its NaNs
    or its error message.
    """
    try:
        values = np.fromiter(map(float, map(itemgetter(j), rows)), np.float64, len(rows))
    except ValueError:  # an empty or non-numeric cell
        pass
    else:
        if np.isfinite(values).all():
            return values
    return np.array([_parse_cell(row[j], i, name) for i, row in enumerate(rows, start=1)])


def load_dataset(
    path,
    *,
    delimiter: str = ",",
    group_by: str | None = None,
    columns: list[str] | None = None,
    missing_policy: str = "reject",
) -> Dataset:
    """Parse a delimited file with a header row into numeric columns.

    The file is UTF-8 text, with or without a byte-order mark.  Missing
    values are empty cells; any other cell must be a finite number, and a
    column may be selected once, the group column not at all.  Names (the
    header's, ``group_by``, ``columns``) are compared without surrounding
    spaces.  Policy ``reject`` aborts on the first missing cell; ``drop-row``
    removes rows with a missing value in any selected column and reports the
    count; ``pairwise-drop`` keeps NaNs for per-pair complete-case handling downstream.
    """
    if missing_policy not in MISSING_POLICIES:
        raise UsageError(
            f"unknown missing policy {missing_policy!r}; known: {', '.join(MISSING_POLICIES)}"
        )
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise UsageError(f"delimiter must be exactly one character, got {delimiter!r}")
    group_by = None if group_by is None else group_by.strip()
    if group_by in [name.strip() for name in columns or ()]:  # constant within a group: every pair noise
        raise UsageError(f"group column {group_by!r} cannot also be a selected column")
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise DataFormatError(f"unreadable CSV in {path} at line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.end]
            raise DataFormatError(f"{path} is not UTF-8 text ({exc.reason}: {bad!r})") from None
    if header is None:
        raise DataFormatError(f"{path} is empty")
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DataFormatError(f"duplicate column names in header of {path}")
    if set(map(len, rows)) - {len(header)}:
        i, row = next((i, row) for i, row in enumerate(rows, start=1) if len(row) != len(header))
        raise DataFormatError(f"ragged row {i}: expected {len(header)} cells, got {len(row)}")

    if group_by is not None and group_by not in header:
        raise DataFormatError(f"group column {group_by!r} not found in header")
    selected = [name.strip() for name in columns] if columns is not None else [
        h for h in header if h != group_by
    ]
    for i, name in enumerate(selected):
        if name not in header:
            raise DataFormatError(f"selected column {name!r} not found in header")
        if name in selected[:i]:
            raise DataFormatError(f"column {name!r} selected twice")

    idx = {h: j for j, h in enumerate(header)}
    data = {name: _parse_column(rows, idx[name], name) for name in selected}
    groups = (
        np.array(list(map(str.strip, map(itemgetter(idx[group_by]), rows))), dtype=object)
        if group_by is not None
        else None
    )

    dropped = 0
    if missing_policy == "reject":
        for name in selected:
            bad = np.isnan(data[name])
            if bad.any():
                row = int(np.argmax(bad)) + 1
                raise DataFormatError(f"missing value at row {row}, column {name!r}")
    elif missing_policy == "drop-row":
        if selected:
            keep = ~np.any(np.column_stack([np.isnan(data[n]) for n in selected]), axis=1)
            dropped = int((~keep).sum())
            data = {n: v[keep] for n, v in data.items()}
            if groups is not None:
                groups = groups[keep]

    row_count = len(next(iter(data.values()))) if data else len(rows)
    return Dataset(columns=data, row_count=row_count, group_labels=groups, dropped_rows=dropped)
