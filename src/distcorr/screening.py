"""Variable-pair screening over a tabular dataset.

Loads a delimited file, optionally partitions rows by a grouping column,
computes Pearson and distance correlation for every unordered pair of
selected columns within each group, applies configurable outlier flags,
and emits plot-ready CSV or JSON.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import DEFAULT_MEMORY_BUDGET, _scaled, dcor, rows_that_fit
from .errors import DataFormatError
from .inference import permutation_test

MISSING_POLICIES = ("reject", "drop-row", "pairwise-drop")


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
    min_group_rows: int = 3


@dataclass(frozen=True)
class OutlierRule:
    nonlinear_gap: float = 0.25  # flag when dcor - |pearson| >= gap
    low_dcor_percentile: float = 5.0
    min_group_records: int = 20  # percentile rule needs a populated group


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
    text = text.strip()
    if text == "":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(
            f"non-numeric cell {text!r} at row {row}, column {name!r}"
        ) from None


def load_dataset(
    path,
    *,
    delimiter: str = ",",
    group_by: str | None = None,
    columns: list[str] | None = None,
    missing_policy: str = "reject",
) -> Dataset:
    """Parse a delimited file with a header row into numeric columns.

    Missing values are empty cells.  Policy ``reject`` aborts on the first
    missing cell; ``drop-row`` removes rows with a missing value in any
    selected column and reports the count; ``pairwise-drop`` keeps NaNs
    for per-pair complete-case handling downstream.
    """
    if missing_policy not in MISSING_POLICIES:
        raise DataFormatError(
            f"unknown missing policy {missing_policy!r}; known: {', '.join(MISSING_POLICIES)}"
        )
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataFormatError(f"duplicate column names in header of {path}")
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataFormatError(
                    f"ragged row {i}: expected {len(header)} cells, got {len(row)}"
                )
            rows.append(row)

    if group_by is not None and group_by not in header:
        raise DataFormatError(f"group column {group_by!r} not found in header")
    selected = list(columns) if columns is not None else [
        h for h in header if h != group_by
    ]
    for name in selected:
        if name not in header:
            raise DataFormatError(f"selected column {name!r} not found in header")

    idx = {h: j for j, h in enumerate(header)}
    data = {
        name: np.array(
            [_parse_cell(row[idx[name]], i, name) for i, row in enumerate(rows, start=1)]
        )
        for name in selected
    }
    groups = (
        np.array([row[idx[group_by]].strip() for row in rows], dtype=object)
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


def _centered_column(cache: dict | None, name: str, col: np.ndarray, ok: np.ndarray):
    """The column's cached CenteredMatrix if ``ok`` are its own complete rows, else col[ok]."""
    if cache is None or not np.array_equal(ok, np.isfinite(col)):
        return col[ok]
    if name not in cache:
        cache[name] = _scaled(col[ok])
    return cache[name]


def pairwise_screen(dataset: Dataset, config: ScreenConfig | None = None) -> CorrelationTable:
    """One record per unordered column pair per group: K columns -> K(K-1)/2."""
    if config is None:
        config = ScreenConfig()
    names = list(dataset.columns)
    if len(names) < 2:
        raise DataFormatError("screening needs at least 2 numeric columns")

    if dataset.group_labels is not None:
        labels = sorted(set(dataset.group_labels))
        masks = [(g, dataset.group_labels == g) for g in labels]
    else:
        masks = [("all", np.ones(dataset.row_count, dtype=bool))]

    records = []
    warnings = []
    usable_groups = 0
    for gi, (label, mask) in enumerate(masks):
        rows = int(mask.sum())
        if rows < config.min_group_rows:
            warnings.append(
                f"group {label!r} skipped: {rows} rows < minimum {config.min_group_rows}"
            )
            continue
        usable_groups += 1
        # One centered matrix per column, kept while the group's columns fit the
        # budget next to one pair's two fresh matrices (a permutation test holds
        # at most one of them and a distance block of at most as many rows).
        cache = {} if rows_that_fit(rows, DEFAULT_MEMORY_BUDGET) >= (len(names) + 2) * rows else None
        pair_index = 0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                var_a, var_b = sorted((names[i], names[j]))
                col_a = dataset.columns[var_a][mask]
                col_b = dataset.columns[var_b][mask]
                ok = np.isfinite(col_a) & np.isfinite(col_b)
                n = int(ok.sum())
                if n < config.min_group_rows:
                    warnings.append(
                        f"pair ({var_a}, {var_b}) in group {label!r} skipped: "
                        f"only {n} complete rows"
                    )
                    pair_index += 1
                    continue
                a = _centered_column(cache, var_a, col_a, ok)
                b = _centered_column(cache, var_b, col_b, ok)
                stats = dcor(a, b)
                flags = () if stats.pearson is not None else ("degenerate-variance",)
                p_value = None
                if config.p_values:
                    seed = _pair_seed(config.seed, gi, pair_index)
                    p_value = permutation_test(a, b, config.replicates, seed).p_value
                records.append(
                    PairRecord(
                        group=str(label),
                        var_a=var_a,
                        var_b=var_b,
                        n=n,
                        pearson=0.0 if stats.pearson is None else stats.pearson,
                        dcor=stats.dcor,
                        p_value=p_value,
                        flags=flags,
                    )
                )
                pair_index += 1
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
        if len(recs) >= rule.min_group_records:
            dcors = np.array([r.dcor for r in recs])
            pearsons = np.abs([r.pearson for r in recs])
            thresholds[group] = (
                float(np.percentile(dcors, rule.low_dcor_percentile)),
                float(np.median(pearsons)),
            )

    new_records = []
    for rec in table.records:
        flags = [f for f in rec.flags if f not in ("nonlinear-candidate", "low-dcor-outlier")]
        if rec.dcor - abs(rec.pearson) >= rule.nonlinear_gap:
            flags.append("nonlinear-candidate")
        if rec.group in thresholds:
            dcor_cut, pearson_median = thresholds[rec.group]
            if rec.dcor < dcor_cut and abs(rec.pearson) > pearson_median:
                flags.append("low-dcor-outlier")
        new_records.append(replace(rec, flags=tuple(flags)))
    return replace(table, records=tuple(new_records))


_FIELDS = ("group", "var_a", "var_b", "n", "pearson", "dcor", "p_value", "flags")


def _sorted_records(table: CorrelationTable):
    return sorted(table.records, key=lambda r: (r.group, r.var_a, r.var_b))


def emit_plot_data(table: CorrelationTable, format: str, path) -> None:
    """Write the table sorted by (group, var_a, var_b); atomic and deterministic."""
    if format not in ("csv", "json"):
        raise DataFormatError(f"unknown output format {format!r}; use csv or json")
    records = _sorted_records(table)

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
