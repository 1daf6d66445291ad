"""Variable-pair screening over a tabular dataset.

Loads a delimited file, optionally partitions rows by a grouping column,
computes Pearson and distance correlation for every unordered pair of
selected columns within each group, applies configurable outlier flags,
and emits plot-ready CSV or JSON.

A group's pairs are sorted by their complete-case rows, each pair keyed
by its own rows as a bit set.  While a group's K centered columns fit
``core.DEFAULT_MEMORY_BUDGET``, the one budget that its permutation tests
read too, each column is centered once over its own rows, zero-padded,
into one (K, n//2 + 1, n) buffer reused from group to group, and one
``core.gram`` product over it serves every pair whose rows are one of
its columns' rows (``_read_nested``).  Each other set of rows is read in
one go (``_read_pairs``): its distinct columns, restricted to those rows,
are centered as one stack (``core._centered_columns``), stored in the
same buffer, whose Gram product gives its pairs' dcov^2 and dVar^2.
Above the budget every set's stack is of sorted forms, in O(K n) memory.
A pair of sorted forms, or one whose Gram entries come out negative or
NaN, takes ``inner`` and ``dvar`` on its two forms.  Every pair's Pearson
is its set's sums over its own rows.

With p-values, the tests of a group's pairs that its product serves, as
one list, and then those of each other set, are split into contiguous
spans after their forms exist, one per process that ``inference._plan``
allows for them (``jobs``: one unless asked, None for every CPU this
process may run on), and each span after the first runs in a forked
child that shares the forms copy-on-write (``inference._fork_map``); a
span whose child fails, or that cannot be forked, runs in this process.
Each test stays serial.  Every pair's test is seeded by (seed, group,
pair), so the records are the same for any count.
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from operator import itemgetter

import numpy as np

from . import core
from .core import _centered_columns, _sorted_deviations, _unit_exponents, correlation, gram, rows_that_fit
from .errors import DataFormatError, UsageError, check_count
from .inference import _fork_map, _plan, permutation_test

MISSING_POLICIES = ("reject", "drop-row", "pairwise-drop")
FORMATS = ("csv", "json")
MIN_COMPLETE_ROWS = 3  # a pair screened in a group needs this many complete rows
MIN_GROUP_RECORDS = 20  # the low-dcor percentile rule needs a populated group


@dataclass(frozen=True)
class Dataset:
    columns: dict[str, np.ndarray]  # name -> length-M float64 (NaN = missing)
    row_count: int
    group_labels: np.ndarray | None = None  # length-M strings, or None
    dropped_rows: int = 0


@dataclass(frozen=True)
class ScreenConfig:
    p_values: bool = False
    replicates: int = 199
    seed: int = 0

    def __post_init__(self):
        check_count("replicates", self.replicates)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class OutlierRule:
    nonlinear_gap: float = 0.25  # flag when dcor - |pearson| >= gap
    low_dcor_percentile: float = 5.0

    def __post_init__(self):
        if not math.isfinite(self.nonlinear_gap):
            raise UsageError(f"nonlinear_gap must be finite, got {self.nonlinear_gap}")
        if not 0.0 <= self.low_dcor_percentile <= 100.0:  # False for NaN
            raise UsageError(f"low_dcor_percentile must be in [0, 100], got {self.low_dcor_percentile}")


@dataclass(frozen=True)
class PairRecord:
    group: str
    var_a: str
    var_b: str
    n: int
    pearson: float
    dcor: float
    p_value: float | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CorrelationTable:
    records: tuple[PairRecord, ...]
    metadata: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


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


def _pair_seed(base_seed: int, group_index: int, pair_index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(group_index, pair_index))
    return int(ss.generate_state(1)[0])


def _star(pairs: list) -> int | None:
    """The least column in every pair (pair index, i, j), or None."""
    return min(set.intersection(*({i, j} for _, i, j in pairs)), default=None)


def _read(pairs: list, vxy: np.ndarray, dvar_sq: np.ndarray, deviations: np.ndarray, forms) -> dict:
    """(dcor, pearson) of each pair (pair index, i, j) of a stack of columns, by pair index.

    dcov^2 is ``vxy[i, j]`` and the dVar^2 are ``dvar_sq[i]`` and ``[j]``; a
    pair where any of them is negative or NaN takes ``inner`` and ``dvar``
    on ``forms()``'s i and j instead, for the scale check of ``inner``.
    Pearson takes ``pearson``'s sums of the scaled ``deviations``' products,
    one column (``_star``, or each pair's lower one) against all its
    partners at a time, so it is ``pearson``'s value (None for a zero norm).
    """
    with np.errstate(invalid="ignore"):  # NaN for a negative or NaN dVar^2
        dvars, vxy = np.sqrt(dvar_sq).tolist(), vxy.tolist()
    norms = np.sqrt((deviations * deviations).sum(axis=1))
    star, partners, results = _star(pairs), {}, {}
    for pair in pairs:
        partners.setdefault(min(pair[1:]) if star is None else star, []).append(pair)
    for first, group in partners.items():
        others = [i + j - first for _, i, j in group]
        products = deviations[others]
        products *= deviations[first]
        with np.errstate(invalid="ignore", divide="ignore"):  # a zero norm: None below
            pearsons = np.clip(products.sum(axis=1) / (norms[first] * norms[others]), -1.0, 1.0)
        for (pair_index, i, j), p in zip(group, pearsons.tolist()):
            v, di, dj = vxy[i][j], dvars[i], dvars[j]
            if not (v >= 0.0 and di >= 0.0 and dj >= 0.0):  # NaN compares False
                v, di, dj = forms()[i].inner(forms()[j]), forms()[i].dvar, forms()[j].dvar
            results[pair_index] = (correlation(v, di, dj), p if norms[i] > 0.0 and norms[j] > 0.0 else None)
    return results


def _tests(tests: list, config: ScreenConfig, gi: int, jobs: int | None) -> dict:
    """The p-value of each test (pair index, x's form, y's form), seeded by (group ``gi``, pair index), by pair index.

    The tests run in up to ``jobs`` processes, as many as ``_plan`` allows
    for them all at the largest n among them.
    """
    if not (config.p_values and tests):
        return {}
    largest = max((x for _, x, _ in tests), key=lambda x: x.n)
    p_values = _fork_map(
        lambda span: [permutation_test(x, y, config.replicates, _pair_seed(config.seed, gi, pair_index)).p_value
                      for pair_index, x, y in span],
        tests, _plan(largest, largest, len(tests) * config.replicates, jobs)[2])
    return {pair_index: p for (pair_index, _, _), p in zip(tests, p_values.tolist())}


def _read_pairs(columns: np.ndarray, pairs: list, layouts: np.ndarray | None, config: ScreenConfig,
                gi: int, jobs: int | None) -> dict:
    """(n, dcor, pearson, p-value) of each pair (pair index, i, j) of the rows of ``columns``, by pair index.

    ``columns`` is a (K, n) stack of columns with no missing cell.  Given
    ``layouts``, a (K, n//2 + 1, n) array, they are centered into it and one
    ``gram`` gives every dcov^2 and dVar^2: the whole product, or only one
    row of it when one column is in every pair (``_star``).  Every pair of
    sorted forms (``layouts`` None) takes ``inner`` and ``dvar`` (``_read``).
    With ``config.p_values``, each pair's permutation test takes its two
    forms once every pair's dcor is read (``_tests``).
    """
    forms, deviations = _centered_columns(columns, _unit_exponents(columns), layouts)
    vxy = np.full((len(forms),) * 2, np.nan) if layouts is None else gram(layouts, _star(pairs))
    results = _read(pairs, vxy, np.diag(vxy), deviations, lambda: forms)
    tested = _tests([(pair_index, forms[i], forms[j]) for pair_index, i, j in pairs], config, gi, jobs)
    return {pair_index: (columns.shape[1], *results[pair_index], tested.get(pair_index)) for pair_index, _, _ in pairs}


def _read_nested(data: np.ndarray, bits: list, sets: dict, layouts: np.ndarray, config: ScreenConfig,
                 gi: int, jobs: int | None) -> tuple[dict, list]:
    """Each pair whose rows are one of its columns' rows, read off one Gram product of the group's columns.

    ``data`` is the group's (K, N) stack of columns, NaN where a cell is
    missing, and ``bits`` each one's rows as a bit set; ``sets`` holds the
    pairs (pair index, column, column) by their rows' bit set, as (rows,
    their count, pairs).  Each column is centered once over its own rows
    into ``layouts``, zero-padded (``_centered_columns``), and one ``gram``
    takes them all.  Let S be a pair's rows, m = |S|, and S be column i's
    rows (the inner column): i's layout is its matrix centered over S, and
    the other column's layout differs from its own matrix centered over S
    only by row and column constants, which sum to 0 against i's.  So
    dcov^2 over S is G_ij N^2 / m^2, and i's dVar^2 is G_ii N^2 / m^2.
    The other column's dVar^2 over S comes from its sorted terms
    (``core._sorted_deviations``), for all of a set's columns at once with
    their deviations for Pearson, and its sorted form is made only for a p-value
    or a negative or NaN entry; complete columns keep the group's own forms.
    The other column serves only while its exponent over S is that over its
    own rows (``_unit_exponents``): otherwise values outside S would enter
    as row constants large against its distances in S, which cancel only in
    exact arithmetic.  Returns the records by pair index, and the sets (rows,
    count, pairs) of the other pairs, which take their own stacks.
    """
    n = data.shape[1]
    exponents = _unit_exponents(data)
    group_forms, deviations = _centered_columns(data, exponents, layouts)
    vxy = gram(layouts)
    diag = np.diag(vxy)

    def read(key: int, ok: np.ndarray, m: int, members: list) -> tuple[dict, list, list]:
        """A set's records and tests that the Gram product serves, and its other pairs."""
        if m == n:  # complete columns, each centered over these rows already
            nested, forms = members, lambda: group_forms
            records = _read(members, vxy, diag, deviations, forms)
        else:
            cols = sorted({c for _, a, b in members for c in (a, b)})
            local, index = {c: k for k, c in enumerate(cols)}, np.ix_(cols, ok)
            own = _unit_exponents(data[index])
            inner = np.array([bits[c] == key for c in cols])
            fits = own == exponents[cols]  # the range guard; true of every inner column
            nested = [(pair_index, local[a], local[b]) for pair_index, a, b in members
                      if (inner[local[a]] or inner[local[b]]) and fits[local[a]] and fits[local[b]]]
            if not nested:
                return {}, [], members
            ratio = n * n / (m * m)
            d, sorted_sq = _sorted_deviations(data, index, own)
            dvar_sq = np.where(inner, diag[cols] * ratio, sorted_sq)
            # sorted forms over these rows, for p-values and negative or NaN entries
            forms = cache(lambda: _centered_columns(data[index], own, None)[0])
            records = _read(nested, vxy[np.ix_(cols, cols)] * ratio, dvar_sq, d, forms)
        taken = {pair_index for pair_index, _, _ in nested}
        tests = [(pair_index, forms()[i], forms()[j]) for pair_index, i, j in nested] if config.p_values else []
        return ({pair_index: (m, *record, None) for pair_index, record in records.items()}, tests,
                [pair for pair in members if pair[0] not in taken])

    results, tests, left = {}, [], []
    for key, (ok, m, members) in sets.items():
        records, more, rest = read(key, ok, m, members)
        results.update(records)
        tests += more
        if rest:
            left.append((ok, m, rest))
    for pair_index, p in _tests(tests, config, gi, jobs).items():
        results[pair_index] = (*results[pair_index][:3], p)
    return results, left


def pairwise_screen(dataset: Dataset, config: ScreenConfig | None = None, jobs: int | None = 1) -> CorrelationTable:
    """One record per unordered column pair per group: K columns -> K(K-1)/2.

    With p-values, the tests run in up to ``jobs`` processes (None: the
    CPUs this process may run on); the records are the same for any count.
    """
    if config is None:
        config = ScreenConfig()
    names = list(dataset.columns)
    if len(names) < 2:
        raise DataFormatError("screening needs at least 2 numeric columns")
    # (var_a, var_b) sorted by name, and their columns' indices
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = sorted((i, j), key=names.__getitem__)
            pairs.append((names[a], names[b], a, b))

    if dataset.group_labels is not None:
        labels = sorted(set(dataset.group_labels))
        masks = [(g, dataset.group_labels == g) for g in labels]
    else:
        masks = [("all", np.ones(dataset.row_count, dtype=bool))]

    records = []
    warnings = []
    usable_groups = 0
    buffer = np.empty(0)  # the layouts of a group's columns, reused so that no group or set faults it in
    for gi, (label, mask) in enumerate(masks):
        rows = int(mask.sum())
        if rows < MIN_COMPLETE_ROWS:
            warnings.append(f"group {label!r} skipped: {rows} rows < minimum {MIN_COMPLETE_ROWS}")
            continue
        usable_groups += 1
        data = np.array([dataset.columns[name][mask] for name in names])
        finite = np.isfinite(data)
        bits = [int.from_bytes(np.packbits(f).tobytes(), "big") for f in finite]  # a column's rows as a bit set
        by_rows = {}  # the pairs by their complete-case rows: key -> (rows, their count, [(pair index, a, b)])
        for pair_index, (var_a, var_b, a, b) in enumerate(pairs):
            key = bits[a] & bits[b]  # the pair's own rows
            if key not in by_rows:
                ok = finite[a] & finite[b]
                by_rows[key] = (ok, int(ok.sum()), [])
            _, n, members = by_rows[key]
            if n < MIN_COMPLETE_ROWS:
                warnings.append(
                    f"pair ({var_a}, {var_b}) in group {label!r} skipped: "
                    f"only {n} complete rows"
                )
                continue
            members.append((pair_index, a, b))

        sets = {key: value for key, value in by_rows.items() if value[2]}
        used = {c for _, _, members in sets.values() for _, a, b in members for c in (a, b)}
        data[[c for c in range(len(names)) if c not in used]] = 0.0  # in no pair: constant, so its layout is 0
        # The group's columns are stored as one stack while K + 2 n x n matrices fit the budget:
        # each column stores half of one, which leaves room for a permutation test's block of
        # y's distances.  The pairs that it does not serve take stacks of their own set of rows
        # in the same buffer.  Otherwise each set of rows is a stack of sorted forms.
        stacked = rows_that_fit(rows, core.DEFAULT_MEMORY_BUDGET) >= (len(names) + 2) * rows
        size = len(names) * (rows // 2 + 1) * rows if stacked and sets else 0
        if buffer.size < size:
            del buffer  # freed before the larger one is allocated
            buffer = np.empty(size)
        results, left = _read_nested(data, bits, sets, buffer[:size].reshape(len(names), rows // 2 + 1, rows),
                                     config, gi, jobs) if size else ({}, list(sets.values()))
        for ok, n, members in left:
            cols = sorted({c for _, a, b in members for c in (a, b)})
            local = {c: k for k, c in enumerate(cols)}
            size = len(cols) * (n // 2 + 1) * n if stacked else 0  # within the group's stack
            results.update(_read_pairs(
                data[np.ix_(cols, ok)], [(pair_index, local[a], local[b]) for pair_index, a, b in members],
                buffer[:size].reshape(len(cols), n // 2 + 1, n) if stacked else None, config, gi, jobs))
        for pair_index, (var_a, var_b, _, _) in enumerate(pairs):
            if pair_index in results:
                n, r, p, tested = results[pair_index]
                records.append(PairRecord(str(label), var_a, var_b, n, 0.0 if p is None else p, r, tested,
                                          () if p is not None else ("degenerate-variance",)))
    if usable_groups == 0:
        raise DataFormatError("all groups are smaller than the minimum row count")

    metadata = {
        "columns": names,
        "seed": config.seed,
        "replicates": config.replicates if config.p_values else None,
        "p_values": config.p_values,
    }
    return CorrelationTable(records=tuple(records), metadata=metadata, warnings=tuple(warnings))


def flag_outliers(table: CorrelationTable, rule: OutlierRule | None = None) -> CorrelationTable:
    """Apply the nonlinear-candidate and low-dcor-outlier flags.

    Both rules are heuristics (configurable, defaults are conventions):
    ``nonlinear-candidate`` marks dcor - |pearson| >= gap, and
    ``low-dcor-outlier`` marks records whose dcor falls below the group's
    q-th percentile while |pearson| exceeds the group median.  Existing
    flags from screening are preserved; record order is preserved.
    """
    if rule is None:
        rule = OutlierRule()
    if not table.records:
        raise DataFormatError("cannot flag outliers in an empty table")

    by_group: dict[str, list[PairRecord]] = {}
    for rec in table.records:
        by_group.setdefault(rec.group, []).append(rec)

    thresholds = {}
    for group, recs in by_group.items():
        if len(recs) >= MIN_GROUP_RECORDS:
            thresholds[group] = (_percentile(sorted(r.dcor for r in recs), rule.low_dcor_percentile),
                                 _median(sorted(abs(r.pearson) for r in recs)))

    new_records = []
    for rec in table.records:
        flags = [f for f in rec.flags if f not in ("nonlinear-candidate", "low-dcor-outlier")]
        if rec.dcor - abs(rec.pearson) >= rule.nonlinear_gap:
            flags.append("nonlinear-candidate")
        if rec.group in thresholds:
            dcor_cut, pearson_median = thresholds[rec.group]
            if rec.dcor < dcor_cut and abs(rec.pearson) > pearson_median:
                flags.append("low-dcor-outlier")
        if tuple(flags) != rec.flags:  # rebuilt only then: dataclasses.replace costs 3 us a record
            rec = PairRecord(rec.group, rec.var_a, rec.var_b, rec.n, rec.pearson, rec.dcor, rec.p_value, tuple(flags))
        new_records.append(rec)
    return replace(table, records=tuple(new_records))


def _percentile(values: list, q: float) -> float:
    """``np.percentile(values, q)`` of sorted values, bit for bit: numpy's ``linear`` method.

    The virtual index is (n - 1) q / 100, and the value lies between its
    floor's and the next, interpolated as numpy's ``_lerp`` does: from the
    upper one when the weight t is at least 0.5.  numpy 2's percentile and
    median import ``numpy.ma`` (15-17 ms) through ``np.unique``.
    """
    i = (len(values) - 1) * (q / 100)
    if i >= len(values) - 1:
        return values[-1]
    k = math.floor(i)
    a, b, t = values[k], values[k + 1], i - k
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _median(values: list) -> float:
    """``np.median`` of sorted values, bit for bit: the middle one, or the mean of the middle two."""
    h = len(values) // 2
    return values[h] if len(values) % 2 else (values[h - 1] + values[h]) / 2


_FIELDS = ("group", "var_a", "var_b", "n", "pearson", "dcor", "p_value", "flags")


def emit_plot_data(table: CorrelationTable, format: str, path) -> None:
    """Write the table sorted by (group, var_a, var_b); atomic and deterministic."""
    if format not in FORMATS:
        raise UsageError(f"unknown output format {format!r}; use {' or '.join(FORMATS)}")
    records = sorted(table.records, key=lambda r: (r.group, r.var_a, r.var_b))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            if format == "csv":
                writer = csv.writer(fh)
                writer.writerow(_FIELDS)
                for r in records:
                    writer.writerow(
                        [
                            r.group,
                            r.var_a,
                            r.var_b,
                            r.n,
                            repr(r.pearson),
                            repr(r.dcor),
                            "" if r.p_value is None else repr(r.p_value),
                            ";".join(r.flags),
                        ]
                    )
            else:
                json.dump([asdict(r) for r in records], fh, indent=2)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
