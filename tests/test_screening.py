import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distcorr import core, inference, samples, screening
from distcorr.core import CenteredMatrix, dcor
from distcorr.errors import DataFormatError, DataQualityError, UsageError
from distcorr.inference import permutation_test
from distcorr.screening import (
    MIN_COMPLETE_ROWS,
    CorrelationTable,
    Dataset,
    OutlierRule,
    PairRecord,
    ScreenConfig,
    emit_plot_data,
    flag_outliers,
    load_dataset,
    pairwise_screen,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


COMPLETE = "a,b,c\n1,2,3\n4,5,6\n7,8,9\n2,1,0\n5,5,5\n"


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        ds = load_dataset(write(tmp_path, COMPLETE))
        assert set(ds.columns) == {"a", "b", "c"}
        assert ds.row_count == 5

    def test_missing_cell_reject(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n,3\n4,5\n")
        with pytest.raises(DataFormatError, match="row 2.*'a'"):
            load_dataset(path, missing_policy="reject")

    def test_missing_cell_drop_row(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n,3\n4,5\n")
        ds = load_dataset(path, missing_policy="drop-row")
        assert ds.row_count == 2
        assert ds.dropped_rows == 1

    def test_drop_row_drops_the_group_label_too(self, tmp_path):
        path = write(tmp_path, "g,a,b\np,1,2\nq,,3\nr,4,5\n")
        ds = load_dataset(path, group_by="g", missing_policy="drop-row")
        assert ds.row_count == 2 and ds.dropped_rows == 1
        assert list(ds.group_labels) == ["p", "r"]
        assert list(ds.columns["b"]) == [2.0, 5.0]

    def test_pairwise_drop_keeps_nan(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n,3\n4,5\n")
        ds = load_dataset(path, missing_policy="pairwise-drop")
        assert ds.row_count == 3
        assert np.isnan(ds.columns["a"][1])

    @pytest.mark.parametrize("delimiter", ["", ";;", 1])
    def test_delimiter_not_one_character(self, tmp_path, delimiter):
        with pytest.raises(UsageError, match=f"got {delimiter!r}"):
            load_dataset(write(tmp_path, COMPLETE), delimiter=delimiter)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataFormatError, match="ragged row 2"):
            load_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\nfoo,3\n")
        with pytest.raises(DataFormatError, match="'foo'"):
            load_dataset(path)

    def test_group_column_excluded_from_numeric(self, tmp_path):
        path = write(tmp_path, "g,a,b\nred,1,2\nblue,3,4\nred,5,6\n")
        ds = load_dataset(path, group_by="g")
        assert set(ds.columns) == {"a", "b"}
        assert list(ds.group_labels) == ["red", "blue", "red"]

    def test_unknown_group_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="group column"):
            load_dataset(write(tmp_path, COMPLETE), group_by="nope")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataFormatError, match=" is empty$"):
            load_dataset(path)

    def test_unknown_selected_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="selected column 'zz' not found in header"):
            load_dataset(write(tmp_path, COMPLETE), columns=["a", "zz"])

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            load_dataset(write(tmp_path, "a,a\n1,2\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_dataset(tmp_path / "does-not-exist.csv")

    @pytest.mark.parametrize("policy", screening.MISSING_POLICIES)
    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "nan"])
    def test_non_finite_cell(self, tmp_path, policy, cell):
        # an empty cell is the missing value; any other cell must be a finite number
        path = write(tmp_path, f"a,b\n1,2\n3,{cell}\n4,5\n")
        with pytest.raises(DataFormatError, match=f"non-finite cell '{cell}' at row 2, column 'b'"):
            load_dataset(path, missing_policy=policy)

    def test_unknown_missing_policy(self, tmp_path):
        with pytest.raises(UsageError, match="unknown missing policy 'skip'"):
            load_dataset(write(tmp_path, COMPLETE), missing_policy="skip")

    def test_group_by_and_column_names_are_stripped(self, tmp_path):
        # as the header's names are
        ds = load_dataset(write(tmp_path, "g , a,b\nred,1,2\nblue,3,4\n"), group_by="g ", columns=[" b", "a "])
        assert list(ds.columns) == ["b", "a"]
        assert list(ds.group_labels) == ["red", "blue"]

    def test_group_column_cannot_be_selected(self, tmp_path):
        # constant within each group, it would make every pair with it noise; checked before the file is read
        with pytest.raises(UsageError, match="group column 'g' cannot also be a selected column"):
            load_dataset(tmp_path / "does-not-exist.csv", group_by="g", columns=["a", " g "])

    def test_column_selected_twice(self, tmp_path):
        with pytest.raises(DataFormatError, match="column 'a' selected twice"):
            load_dataset(write(tmp_path, COMPLETE), columns=["a", "a", "b"])

    def test_cells_read_bit_for_bit_as_parse_cell_reads_them(self, tmp_path):
        # a clean column is read without a call per cell; a gapped one cell by cell
        odd = [" 1.5 ", "\t2e3", "+.5", "-0", "1_0", "\uff11\uff12"]  # the last is fullwidth 12
        gapped = ["3", "", " -0.0 ", "", "4e-320", "5"]
        path = tmp_path / "odd.csv"
        path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in zip(odd, gapped)), encoding="utf-8")
        ds = load_dataset(path, missing_policy="pairwise-drop")
        for name, cells in (("a", odd), ("b", gapped)):
            expected = np.array([screening._parse_cell(c, i, name) for i, c in enumerate(cells, start=1)])
            assert ds.columns[name].dtype == np.float64
            assert ds.columns[name].tobytes() == expected.tobytes()  # -0.0 and NaN alike
        assert ds.columns["a"].tolist() == [1.5, 2000.0, 0.5, 0.0, 10.0, 12.0]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" files start with a BOM
        grouped, plain = tmp_path / "grouped.csv", tmp_path / "plain.csv"
        grouped.write_text("g,a,b\nred,1,2\nblue,3,4\n", encoding="utf-8-sig")
        plain.write_text("a,b\n1,2\n3,4\n", encoding="utf-8-sig")
        ds = load_dataset(grouped, group_by="g")
        assert list(ds.columns) == ["a", "b"] and list(ds.group_labels) == ["red", "blue"]
        assert load_dataset(plain, columns=["a"]).columns["a"].tolist() == [1.0, 3.0]

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "a;b\n1;2\n3;4\n")
        ds = load_dataset(path, delimiter=";")
        assert ds.columns["b"].tolist() == [2.0, 4.0]


def synthetic_dataset(tmp_path, n=200, seed=314):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, n)
    noise = rng.standard_normal(n)
    lines = ["u,usq,noise"]
    for i in range(n):
        lines.append(f"{float(u[i])!r},{float(u[i]*u[i])!r},{float(noise[i])!r}")
    return load_dataset(write(tmp_path, "\n".join(lines) + "\n"))


def gapped_dataset():
    """Two groups of 40 rows; in group g0, c and d each miss 3 cells, in different rows."""
    rng = np.random.default_rng(21)
    cols = {name: rng.normal(size=80) for name in "abcd"}
    cols["b"] = np.round(cols["a"] ** 2 * 3)  # tied integer values
    cols["c"][[1, 5, 9]] = np.nan
    cols["d"][[2, 6, 10]] = np.nan
    groups = np.array(["g0"] * 40 + ["g1"] * 40, dtype=object)
    return Dataset(columns=cols, row_count=80, group_labels=groups)


def builds(monkeypatch):
    """The (K, rows) of each stack of columns that pairwise_screen centers, in order."""
    calls = []
    build = screening._centered_columns
    monkeypatch.setattr(screening, "_centered_columns",
                        lambda data, *a: calls.append(data.shape) or build(data, *a))
    return calls


@st.composite
def screen_columns(draw, n):
    """One to four real or tied integer columns of n rows, maybe offset by 1e8, and a constant one.

    With ``gaps``, each column may miss some cells (NaN).
    """
    cols = {}
    for k in range(draw(st.integers(1, 4))):
        elements = st.integers(0, 2).map(float) if draw(st.booleans()) else st.floats(-100, 100)
        cols[f"c{k}"] = draw(arrays(np.float64, n, elements=elements)) + draw(st.sampled_from([0.0, 1e8]))
    cols["const"] = np.full(n, draw(st.floats(-100, 100)))
    if draw(st.booleans()):
        for v in cols.values():
            v[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = np.nan
    return cols


class TestPairwiseScreen:
    def test_pair_count_33_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        names = [f"v{i:02d}" for i in range(33)]
        rows = rng.normal(size=(10, 33))
        text = ",".join(names) + "\n" + "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rows
        ) + "\n"
        table = pairwise_screen(load_dataset(write(tmp_path, text)))
        assert len(table.records) == 528

    def test_single_pair(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,1\n5,9\n")
        table = pairwise_screen(load_dataset(path))
        assert len(table.records) == 1

    def test_nonlinear_pair_detected(self, tmp_path):
        # frozen regression: seed 314 calibration of the (u, u^2, noise) fixture
        table = pairwise_screen(synthetic_dataset(tmp_path))
        by_pair = {(r.var_a, r.var_b): r for r in table.records}
        rec = by_pair[("u", "usq")]
        assert abs(rec.pearson) < 0.2
        assert rec.dcor > 0.4
        for pair in (("noise", "u"), ("noise", "usq")):
            assert by_pair[pair].dcor < 0.25

    def test_too_few_columns(self, tmp_path):
        path = write(tmp_path, "a\n1\n2\n3\n")
        with pytest.raises(DataFormatError):
            pairwise_screen(load_dataset(path))

    def test_small_group_skipped_with_warning(self, tmp_path):
        path = write(tmp_path, "g,a,b\nbig,1,2\nbig,3,4\nbig,5,1\nsmall,0,0\n")
        table = pairwise_screen(load_dataset(path, group_by="g"))
        assert {r.group for r in table.records} == {"big"}
        assert any("small" in w for w in table.warnings)

    def test_every_group_below_the_minimum_raises(self, tmp_path):
        rows = "".join(f"{g},{i},{i * i}\n" for g in "pq" for i in range(MIN_COMPLETE_ROWS - 1))
        table_path = write(tmp_path, "g,a,b\n" + rows)
        with pytest.raises(DataFormatError, match="all groups are smaller than the minimum row count"):
            pairwise_screen(load_dataset(table_path, group_by="g"))

    def test_group_decomposition(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["g,a,b"]
        for i in range(40):
            g = "x" if i < 20 else "y"
            lines.append(f"{g},{float(rng.normal())!r},{float(rng.normal())!r}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        full = pairwise_screen(load_dataset(path, group_by="g"))
        # re-screen group x alone
        solo_lines = ["a,b"] + [l.split(",", 1)[1] for l in lines[1:21]]
        solo = pairwise_screen(load_dataset(write(tmp_path, "\n".join(solo_lines) + "\n", "solo.csv")))
        rec_full = next(r for r in full.records if r.group == "x")
        rec_solo = solo.records[0]
        assert rec_full.pearson == pytest.approx(rec_solo.pearson, abs=1e-12)
        assert rec_full.dcor == pytest.approx(rec_solo.dcor, abs=1e-12)

    @pytest.mark.parametrize("field, config", [
        ("replicates", dict(p_values=True, replicates=0)), ("replicates", dict(p_values=True, replicates=2.5)),
        ("seed", dict(seed=-1)), ("seed", dict(seed=1.5)),
    ])
    def test_config_rejects_values_that_fail_at_the_first_test(self, field, config):
        with pytest.raises(UsageError, match=f"^{field} must be"):
            ScreenConfig(**config)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True, "x"])
    def test_jobs_rejected_before_any_work(self, jobs, monkeypatch):
        calls = builds(monkeypatch)
        for config in (None, ScreenConfig(p_values=True, replicates=9)):
            with pytest.raises(UsageError, match="^jobs must be a positive integer"):
                pairwise_screen(gapped_dataset(), config, jobs=jobs)
        assert calls == []  # not one table centered

    def test_p_values_deterministic(self, tmp_path):
        ds = synthetic_dataset(tmp_path, n=30)
        cfg = ScreenConfig(p_values=True, replicates=49, seed=99)
        t1 = pairwise_screen(ds, cfg)
        t2 = pairwise_screen(ds, cfg)
        assert t1.records == t2.records
        assert all(r.p_value is not None for r in t1.records)

    def test_records_equal_dcor_bit_for_bit(self, monkeypatch):
        calls = []
        for module in (core, samples):  # the stacks' deviations, and any one sample's
            kernel = module._deviations
            monkeypatch.setattr(module, "_deviations",
                                lambda v, kernel=kernel: calls.append(v.shape[:-1]) or kernel(v))
        base, cfg = gapped_dataset(), ScreenConfig(p_values=True, replicates=9)
        unscaled = pairwise_screen(base, cfg)
        # column a's squared distances underflow or overflow unless it is scaled first
        for scale in (1.0, 1e-300, 1e160):
            ds = replace(base, columns={**base.columns, "a": scale * base.columns["a"]})
            calls.clear()
            table = pairwise_screen(ds, cfg)
            # g0: the group's four columns, then c and d over their own rows; the deviations on c's
            # rows and on d's rows (a, b and that column), for Pearson and a and b's dVar^2 there,
            # each taken again for the tests' sorted forms; then the stack of (c, d) on their common
            # rows.  g1: its four columns.  No sample's deviations again
            assert calls == [(4,), (1,), (1,), (3,), (3,), (3,), (3,), (2,), (4,)]
            for r, u in zip(table.records, unscaled.records):
                mask = ds.group_labels == r.group
                a, b = ds.columns[r.var_a][mask], ds.columns[r.var_b][mask]
                ok = np.isfinite(a) & np.isfinite(b)
                stats = dcor(a[ok], b[ok])
                assert (r.n, r.pearson) == (int(ok.sum()), stats.pearson)
                assert r.dcor == pytest.approx(stats.dcor, rel=1e-12)  # a BLAS product sums in its own order
                assert r.p_value == u.p_value
        # the three kinds of rows: the group's (full columns), a gapped column's own (c with
        # a full column), and a pair's own, which differ from both columns' rows (c, d)
        assert {(r.var_a, r.var_b, r.n) for r in table.records if r.group == "g0"} >= {
            ("a", "b", 40), ("a", "c", 37), ("c", "d", 34)
        }

    def test_one_distance_matrix_per_column_and_group(self, monkeypatch):
        calls = builds(monkeypatch)
        per_pair = []
        kernel = core._shift_distances  # the per-pair builds': none while the stacks fit
        monkeypatch.setattr(core, "_shift_distances", lambda *a: per_pair.append(a) or kernel(*a))
        ds = gapped_dataset()
        full = {"a": ds.columns["a"], "b": ds.columns["b"], "e": ds.columns["a"] + 1.0}
        pairwise_screen(replace(ds, columns=full))
        assert calls == [(3, 40)] * 2  # 3 columns in each of 2 groups
        calls.clear()
        pairwise_screen(ds)
        # One layout per column and group: g0's four columns, c and d each over its own rows,
        # zero-padded, serve every pair but (c, d), whose rows are neither column's: c and d at
        # the rows both have.  g1 has no gaps: one stack of its four columns.
        assert calls == [(4, 40), (2, 34), (4, 40)]
        assert per_pair == []

    def test_p_values_center_each_pair_once(self, monkeypatch):
        calls = builds(monkeypatch)
        per_pair = []
        build = core.double_center
        monkeypatch.setattr(core, "double_center", lambda *args: per_pair.append(args) or build(*args))
        ds = gapped_dataset()
        plain = pairwise_screen(ds, ScreenConfig(replicates=9, seed=4))
        without = list(calls)
        calls.clear()
        table = pairwise_screen(ds, ScreenConfig(p_values=True, replicates=9, seed=4))
        # the stacks serve the Gram products and the tests alike, but for the pairs on c's or d's
        # rows, whose tests take sorted forms over those rows, made only with p-values
        assert without == [(4, 40), (2, 34), (4, 40)]
        assert calls == [(4, 40), (3, 37), (3, 37), (2, 34), (4, 40)]
        assert per_pair == []
        for gi, group in enumerate(("g0", "g1")):
            mask = ds.group_labels == group
            records = [r for r in table.records if r.group == group]
            without_p = [u for u in plain.records if u.group == group]
            for pair_index, (r, u) in enumerate(zip(records, without_p)):
                assert replace(r, p_value=None) == u
                a, b = ds.columns[r.var_a][mask], ds.columns[r.var_b][mask]
                ok = np.isfinite(a) & np.isfinite(b)
                seed = screening._pair_seed(4, gi, pair_index)
                assert r.p_value == permutation_test(a[ok], b[ok], 9, seed).p_value

    def test_over_budget_builds_per_pair_with_identical_records(self, monkeypatch):
        base = gapped_dataset()
        ds = replace(base, columns={**base.columns, "e": np.full(80, 2.5)})  # a constant column too
        cfg = ScreenConfig(p_values=True, replicates=9, seed=4)
        cached = pairwise_screen(ds, cfg)
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 0)
        per_pair = pairwise_screen(ds, cfg)  # past the stack rule: sorted forms and per-pair dcor
        assert (per_pair.metadata, per_pair.warnings) == (cached.metadata, cached.warnings)
        assert len(per_pair.records) == len(cached.records)
        for r, c in zip(per_pair.records, cached.records):
            # all but dcor identical: the sorted forms' cross term and a BLAS product round apart
            assert replace(r, dcor=c.dcor) == c
            assert r.dcor == pytest.approx(c.dcor, rel=1e-12)
            if "e" in (r.var_a, r.var_b):  # a zero norm and a zero dVar on both paths
                assert (r.pearson, r.dcor, r.flags) == (0.0, 0.0, ("degenerate-variance",))

    @pytest.mark.parametrize("n, budget", [
        pytest.param(n, budget, id=str(n) if budget else f"{n}-past-stack-rule")
        for budget in (core.DEFAULT_MEMORY_BUDGET, 0) for n in (3, 4, 11, 12)
    ])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_gram_records_agree_with_per_pair_dcor(self, n, budget, data):
        # past the stack rule (budget 0) every set of rows takes sorted forms and per-pair dcor
        cols = data.draw(screen_columns(n))
        if sum(np.isfinite(v).all() for v in cols.values()) < len(cols):
            cols["full"] = np.arange(float(n))  # every group of rows has a complete column
        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
            table = pairwise_screen(Dataset(columns=cols, row_count=n))
        skipped = sum(w.startswith("pair ") for w in table.warnings)
        assert len(table.records) + skipped == len(cols) * (len(cols) - 1) // 2
        for r in table.records:
            ok = np.isfinite(cols[r.var_a]) & np.isfinite(cols[r.var_b])
            x, y = cols[r.var_a][ok], cols[r.var_b][ok]
            stats = dcor(x, y)
            assert r.n == int(ok.sum()) >= 3
            assert r.flags == (() if stats.pearson is not None else ("degenerate-variance",))
            # dcor^2 = dcov^2 / (dVar dVar): an error of 1e-12 of the scale sum(|A * B|) / n^2 moves it
            # by at most 1e-12, and dcor itself by more only where it is near 0
            assert abs(r.dcor**2 - stats.dcor**2) <= 1e-12
            assert r.pearson == (0.0 if stats.pearson is None else stats.pearson)
            if "const" in (r.var_a, r.var_b):
                assert (r.dcor, r.pearson, r.flags) == (0.0, 0.0, ("degenerate-variance",))

    def test_values_outside_a_pairs_rows_do_not_reach_it(self):
        rng = np.random.default_rng(26)
        x, y, z = rng.normal(size=(3, 200))
        gone = rng.choice(200, 5, replace=False)
        x[gone], y[gone] = 1e10, np.nan  # x is complete; its outliers are in the rows y misses
        table = pairwise_screen(Dataset(columns={"x": x, "y": y, "z": z}, row_count=200))
        ok = np.isfinite(y)
        for r in table.records:
            a, b = table.metadata["columns"].index(r.var_a), table.metadata["columns"].index(r.var_b)
            u, v = (x, y, z)[a], (x, y, z)[b]
            keep = ok if "y" in (r.var_a, r.var_b) else np.ones(200, dtype=bool)
            stats = dcor(u[keep], v[keep])
            assert (r.n, r.pearson) == (int(keep.sum()), stats.pearson)
            assert r.dcor == pytest.approx(stats.dcor, rel=1e-12)

    def test_a_left_table_of_several_pairs(self, monkeypatch):
        # each complete column has an outlier in a row that y misses, so none passes the range
        # guard on y's rows: the four pairs (x_k, y) are left to one table of y's rows
        rng = np.random.default_rng(27)
        gone = [3, 11, 19, 27]
        cols = {f"x{k}": rng.normal(size=40) for k in range(4)}
        for k, row in enumerate(gone):
            cols[f"x{k}"][row] = 1e6
        cols["y"] = rng.normal(size=40)
        cols["y"][gone] = np.nan
        calls = builds(monkeypatch)
        table = pairwise_screen(Dataset(columns=cols, row_count=40), ScreenConfig(p_values=True, replicates=19, seed=3))
        assert calls == [(5, 40), (5, 36)]
        assert len(table.records) == 10
        for pair_index, r in enumerate(table.records):
            x, y = cols[r.var_a], cols[r.var_b]
            ok = np.isfinite(x) & np.isfinite(y)
            stats = dcor(x[ok], y[ok])
            assert (r.n, r.pearson) == (int(ok.sum()), stats.pearson)
            assert r.dcor == pytest.approx(stats.dcor, rel=1e-12)
            assert r.p_value == permutation_test(x[ok], y[ok], 19, screening._pair_seed(3, 0, pair_index)).p_value
        assert sum(r.n == 36 for r in table.records) == 4

    def test_column_constant_on_another_columns_rows(self):
        a = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0])
        b = np.array([0.5, 2.0, np.nan, -1.0, 4.0, np.nan, 3.0, 0.0])
        c = np.arange(8.0)
        table = pairwise_screen(Dataset(columns={"a": a, "b": b, "c": c}, row_count=8))
        records = {(r.var_a, r.var_b): r for r in table.records}
        # a is constant on b's rows, but not on its own
        assert (records["a", "b"].n, records["a", "b"].dcor, records["a", "b"].pearson) == (6, 0.0, 0.0)
        assert records["a", "b"].flags == ("degenerate-variance",)
        assert records["a", "c"].flags == () and records["a", "c"].dcor > 0.0

    @pytest.mark.parametrize("corrupt", ["negative", "tiny negative", "nan"])
    def test_negative_or_nan_gram_entry_takes_inner(self, monkeypatch, corrupt):
        rng = np.random.default_rng(23)
        cols = {name: rng.normal(size=30) for name in "abc"}
        forms = {}
        build = screening._centered_columns

        def corrupted(data, exponents, out):
            stack, deviations = build(data, exponents, out)
            for k, x in enumerate(data):
                name = next(name for name, v in cols.items() if np.array_equal(x, v))
                c = stack[k]
                if name == "b":
                    if corrupt == "nan":
                        out[k, 0, 0] = np.nan
                    else:  # -A, times 1e-20 for a sum within inner's clamp
                        f = 1.0 if corrupt == "negative" else 1e-20
                        out[k] *= -f
                        c = CenteredMatrix(c.sample, -f * c.row_mean, -f * c.grand_mean, shifts=out[k],
                                           block_rows=c.block_rows, scale=c.scale)
                stack[k] = forms[name] = c
            return stack, deviations

        monkeypatch.setattr(screening, "_centered_columns", corrupted)
        if corrupt == "tiny negative":
            table = pairwise_screen(Dataset(columns=cols, row_count=30))
            for r in table.records:
                stats = dcor(forms[r.var_a], forms[r.var_b])
                if "b" in (r.var_a, r.var_b):  # inner clamps the sum to 0
                    assert (r.dcor, r.pearson) == (0.0, stats.pearson) == (stats.dcor, stats.pearson)
                else:
                    assert r.pearson == stats.pearson
                    assert r.dcor == pytest.approx(stats.dcor, rel=1e-12)
            return
        with pytest.raises(DataQualityError) as raised:
            pairwise_screen(Dataset(columns=cols, row_count=30))
        with pytest.raises(DataQualityError) as direct:
            forms["a"].inner(forms["b"])  # the first pair, (a, b)
        assert str(raised.value) == str(direct.value)
        assert "NaN or significantly negative" in str(raised.value)

    def test_p_values_keep_order_seeds_and_values(self, monkeypatch):
        rng = np.random.default_rng(24)
        complete = {name: rng.normal(size=60) for name in "dcba"}
        complete["c"] = np.round(complete["b"] ** 2 * 3)  # tied integer values
        # in g0, c misses 4 cells and a 3 in other rows; in g1, d and b have only row 46 in
        # common, so that pair is skipped and the later pairs keep their seeds
        gapped = {name: v.copy() for name, v in complete.items()}
        gapped["c"][[0, 7, 8, 20]] = gapped["a"][[3, 4, 29]] = np.nan
        gapped["d"][30:46] = gapped["b"][47:] = np.nan
        groups = np.array(["g0"] * 30 + ["g1"] * 30, dtype=object)
        names = list(complete)
        pairs = [tuple(sorted((names[i], names[j]))) for i in range(4) for j in range(i + 1, 4)]
        cfg = ScreenConfig(p_values=True, replicates=19, seed=7)
        for cols, skipped in ((complete, None), (gapped, ("g1", "b", "d"))):
            ds = Dataset(columns=cols, row_count=60, group_labels=groups)
            with monkeypatch.context() as m:
                table = pairwise_screen(ds, cfg)
                m.setattr(core, "DEFAULT_MEMORY_BUDGET", 0)
                per_pair = pairwise_screen(ds, cfg)
            assert [(r.group, r.var_a, r.var_b, r.n, r.p_value) for r in table.records] == [
                (r.group, r.var_a, r.var_b, r.n, r.p_value) for r in per_pair.records
            ]
            expected = [(f"g{gi}", *p) for gi in range(2) for p in pairs if (f"g{gi}", *p) != skipped]
            assert [(r.group, r.var_a, r.var_b) for r in table.records] == expected
            for r in table.records:
                gi, pair_index = int(r.group[1]), pairs.index((r.var_a, r.var_b))
                mask = groups == r.group
                seed = screening._pair_seed(7, gi, pair_index)
                x, y = cols[r.var_a][mask], cols[r.var_b][mask]
                ok = np.isfinite(x) & np.isfinite(y)
                assert r.p_value == permutation_test(x[ok], y[ok], 19, seed).p_value

    def test_group_buffer_bounds_traced_peak(self):
        assert_screen_peak_within_layouts(gaps=0)

    def test_gapped_group_buffer_bounds_traced_peak(self):
        # three gapped columns: four sets of rows take turns in the one buffer
        assert_screen_peak_within_layouts(gaps=3)

    def test_past_stack_rule_peak_is_linear(self, monkeypatch):
        # past the stack rule every column is a sorted form: no shift layout is built
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 0)
        per_pair = []
        kernel = core._shift_distances
        monkeypatch.setattr(core, "_shift_distances", lambda *a: per_pair.append(a) or kernel(*a))
        assert_screen_peak_within_layouts(gaps=1, k=6, n=2000, stacked=False)
        assert per_pair == []

    def test_statistics_in_range(self, tmp_path):
        table = pairwise_screen(synthetic_dataset(tmp_path, n=50))
        for r in table.records:
            assert -1.0 <= r.pearson <= 1.0
            assert 0.0 <= r.dcor <= 1.0


def assert_screen_peak_within_layouts(gaps: int, k: int = 33, n: int = 400, stacked: bool = True):
    rng = np.random.default_rng(25)
    cols = {f"v{i:02d}": rng.normal(size=n) for i in range(k)}
    for i in range(gaps):
        cols[f"v{i:02d}"][rng.choice(n, 10, replace=False)] = np.nan
    ds = Dataset(columns=cols, row_count=n)
    tracemalloc.start()
    try:
        pairwise_screen(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the layouts' shifts 1..n//2 (21.1 MB at K = 33, n = 400) and no copy of them, if stacked,
    # plus O(K n): about 8 vectors of n per column (the layouts' rows of shift 0, the group's
    # columns and a stack's copy, scaled samples, deviations, row means and the sort's
    # temporaries) and a temporary block of 64 doubled shifts, or the O(n) vectors of cross_term
    layouts = k * 8 * n * (n // 2) if stacked else 0
    assert peak <= layouts + 8 * n * (8 * k + 128)


class TestForkedPValues:
    @pytest.mark.parametrize("budget", [core.DEFAULT_MEMORY_BUDGET, 50_000], ids=["stored", "sorted"])
    def test_any_job_count_gives_the_same_records(self, budget, monkeypatch):
        # 50 kB is below the stack rule at 40 rows: each test lays x's sorted form out in its process
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
        monkeypatch.setattr(inference, "FORK_ENTRIES", 1)
        chunks = []
        fork_map = screening._fork_map
        monkeypatch.setattr(screening, "_fork_map",
                            lambda fn, items, k: chunks.append(min(k, len(items))) or fork_map(fn, items, k))
        cfg = ScreenConfig(p_values=True, replicates=19, seed=11)
        tables = [pairwise_screen(gapped_dataset(), cfg, jobs=jobs) for jobs in (1, 2, 3)]
        assert tables[0].records and all(r.p_value is not None for r in tables[0].records)
        assert tables[1] == tables[0] and tables[2] == tables[0]
        # group g0's sets under pairwise-drop: (a, b); the stars of c and of d, two pairs each; (c, d).
        # Then group g1's one set of six pairs.  While the group's stack fits, the first three sets'
        # five pairs are read off it and tested as one list
        if budget == 50_000:
            assert chunks == [1, 1, 1, 1, 1] + [1, 2, 2, 1, 2] + [1, 2, 2, 1, 3]
        else:
            assert chunks == [1, 1, 1] + [2, 1, 2] + [3, 1, 3]
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_runs_its_pairs_here(self, monkeypatch, failing_fork):
        monkeypatch.setattr(inference, "FORK_ENTRIES", 1)
        cfg = ScreenConfig(p_values=True, replicates=19, seed=11)
        assert pairwise_screen(gapped_dataset(), cfg, jobs=3) == pairwise_screen(gapped_dataset(), cfg)
        assert len(failing_fork.calls) > 1  # one set's pairs forked once; every later fork failed
        failing_fork.check()

    def test_no_fork_without_p_values(self, monkeypatch):
        monkeypatch.setattr(inference, "FORK_ENTRIES", 1)
        monkeypatch.setattr(screening, "_fork_map", lambda fn, items, k: pytest.fail("forked"))
        assert pairwise_screen(gapped_dataset(), jobs=3) == pairwise_screen(gapped_dataset())


def make_table(records):
    return CorrelationTable(records=tuple(records))


class TestFlagOutliers:
    def test_nonlinear_candidate(self):
        rec = PairRecord("g", "a", "b", 10, pearson=0.0, dcor=0.5)
        out = flag_outliers(make_table([rec]))
        assert "nonlinear-candidate" in out.records[0].flags

    def test_high_pearson_high_dcor_unflagged(self):
        rec = PairRecord("g", "a", "b", 10, pearson=0.9, dcor=0.95)
        out = flag_outliers(make_table([rec]))
        assert "nonlinear-candidate" not in out.records[0].flags

    def test_percentile_rule_needs_populated_group(self):
        rec = PairRecord("g", "a", "b", 10, pearson=0.9, dcor=0.01)
        out = flag_outliers(make_table([rec]))
        assert "low-dcor-outlier" not in out.records[0].flags

    @pytest.mark.parametrize("field, value", [
        ("nonlinear_gap", float("nan")), ("nonlinear_gap", float("inf")), ("nonlinear_gap", -float("inf")),
        ("low_dcor_percentile", -1.0), ("low_dcor_percentile", 150.0), ("low_dcor_percentile", float("nan")),
    ])
    def test_rule_rejects_values_that_flag_nothing_or_fail_later(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be"):
            OutlierRule(**{field: value})
        assert OutlierRule(low_dcor_percentile=100.0).low_dcor_percentile == 100.0  # the ends are valid

    def test_percentile_rule_flags_low_dcor_high_pearson(self):
        rng = np.random.default_rng(1)
        records = [
            PairRecord("g", f"a{i}", f"b{i}", 10, pearson=float(rng.uniform(0, 0.4)),
                       dcor=float(rng.uniform(0.5, 0.9)))
            for i in range(30)
        ]
        records.append(PairRecord("g", "odd", "pair", 10, pearson=0.8, dcor=0.05))
        out = flag_outliers(make_table(records))
        assert "low-dcor-outlier" in out.records[-1].flags

    def test_order_preserved(self):
        records = [
            PairRecord("g", "z", "y", 5, pearson=0.1, dcor=0.2),
            PairRecord("g", "a", "b", 5, pearson=0.0, dcor=0.6),
        ]
        out = flag_outliers(make_table(records))
        assert [(r.var_a, r.var_b) for r in out.records] == [("z", "y"), ("a", "b")]

    def test_empty_table_rejected(self):
        with pytest.raises(DataFormatError):
            flag_outliers(make_table([]))

    def test_custom_gap(self):
        rec = PairRecord("g", "a", "b", 10, pearson=0.3, dcor=0.45)
        assert "nonlinear-candidate" not in flag_outliers(make_table([rec])).records[0].flags
        loose = flag_outliers(make_table([rec]), OutlierRule(nonlinear_gap=0.1))
        assert "nonlinear-candidate" in loose.records[0].flags

    def test_thresholds_are_numpys_percentile_and_median_bit_for_bit(self):
        rng = np.random.default_rng(27)
        for case in range(3000):
            n = int(rng.integers(1, 60))
            values = [rng.random(n), rng.integers(0, 4, n) / 3.0, rng.normal(size=n)][case % 3]  # ties, signs
            q = [0.0, 2.5, 5.0, 50.0, 99.9, 100.0, float(rng.uniform(0, 100))][case % 7]
            ordered = sorted(values.tolist())
            assert np.float64(screening._percentile(ordered, q)).tobytes() == np.percentile(values, q).tobytes()
            assert np.float64(screening._median(ordered)).tobytes() == np.median(values).tobytes()

    def test_unchanged_records_are_kept(self):
        flagged = PairRecord("g", "a", "b", 10, pearson=0.0, dcor=0.5, flags=("nonlinear-candidate",))
        plain = PairRecord("g", "a", "c", 10, pearson=0.9, dcor=0.95)
        out = flag_outliers(make_table([flagged, plain]))
        assert out.records[0] is flagged and out.records[1] is plain

    def test_screen_does_not_import_numpy_ma(self, tmp_path):
        # numpy 2's percentile and median import numpy.ma (15-17 ms) through np.unique
        rng = np.random.default_rng(28)
        path = tmp_path / "table.csv"
        rows = rng.normal(size=(30, 7)).tolist()
        path.write_text("a,b,c,d,e,f,g\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        src = os.path.dirname(os.path.dirname(screening.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["screen", "--data", str(path), "--seed", "1", "--out", str(tmp_path / "out.csv")]
        code = f"import sys; from distcorr import cli; print(cli.main({argv!r}), 'numpy.ma' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split()[-2:] == ["0", "False"]
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 21  # one group of 21 records


class TestEmitPlotData:
    def records(self):
        return [
            PairRecord("g2", "a", "b", 5, pearson=0.5, dcor=0.6, flags=("nonlinear-candidate",)),
            PairRecord("g1", "c", "d", 7, pearson=-0.25, dcor=0.1, p_value=0.05),
        ]

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_plot_data(make_table(self.records()), "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "group,var_a,var_b,n,pearson,dcor,p_value,flags"
        assert len(lines) == 3
        assert lines[1].startswith("g1,c,d,7")  # sorted by group first

    def test_json_fields(self, tmp_path):
        path = tmp_path / "out.json"
        emit_plot_data(make_table(self.records()), "json", path)
        data = json.loads(path.read_text())
        assert [d["group"] for d in data] == ["g1", "g2"]
        assert data[0]["p_value"] == 0.05
        assert data[1]["p_value"] is None
        assert data[1]["flags"] == ["nonlinear-candidate"]

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_plot_data(make_table([]), "csv", path)
        assert path.read_text().strip() == "group,var_a,var_b,n,pearson,dcor,p_value,flags"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        table = make_table(self.records())
        emit_plot_data(table, "csv", p1)
        emit_plot_data(table, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UsageError):
            emit_plot_data(make_table(self.records()), "xml", tmp_path / "x")

    def test_failed_rename_leaves_no_temporary_file_and_the_old_output(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def broken(src, dst):
            assert src.endswith(".tmp") and os.path.exists(src)
            raise OSError("rename failed")

        monkeypatch.setattr(screening.os, "replace", broken)
        with pytest.raises(OSError, match="rename failed"):
            emit_plot_data(make_table(self.records()), "csv", path)
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_output_has_the_mode_of_a_plain_write(self, tmp_path):
        umask = os.umask(0o022)
        try:
            emit_plot_data(make_table(self.records()), "csv", tmp_path / "out.csv")
        finally:
            os.umask(umask)
        assert os.stat(tmp_path / "out.csv").st_mode & 0o777 == 0o644

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_plot_data(make_table(self.records()), "csv", tmp_path / "nodir" / "x" / "y.csv")
