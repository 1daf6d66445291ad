import json
from dataclasses import replace

import numpy as np
import pytest

from distcorr import core, samples, screening
from distcorr.core import dcor
from distcorr.errors import DataFormatError
from distcorr.screening import (
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

    def test_pairwise_drop_keeps_nan(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n,3\n4,5\n")
        ds = load_dataset(path, missing_policy="pairwise-drop")
        assert ds.row_count == 3
        assert np.isnan(ds.columns["a"][1])

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

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            load_dataset(write(tmp_path, "a,a\n1,2\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_dataset(tmp_path / "does-not-exist.csv")

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

    def test_p_values_deterministic(self, tmp_path):
        ds = synthetic_dataset(tmp_path, n=30)
        cfg = ScreenConfig(p_values=True, replicates=49, seed=99)
        t1 = pairwise_screen(ds, cfg)
        t2 = pairwise_screen(ds, cfg)
        assert t1.records == t2.records
        assert all(r.p_value is not None for r in t1.records)

    def test_records_equal_dcor_bit_for_bit(self, monkeypatch):
        calls = []
        kernel = samples._deviations
        monkeypatch.setattr(samples, "_deviations", lambda v: calls.append(len(v)) or kernel(v))
        base, cfg = gapped_dataset(), ScreenConfig(p_values=True, replicates=9)
        unscaled = pairwise_screen(base, cfg)
        # column a's squared distances underflow or overflow unless it is scaled first
        for scale in (1.0, 1e-300, 1e160):
            ds = replace(base, columns={**base.columns, "a": scale * base.columns["a"]})
            calls.clear()
            table = pairwise_screen(ds, cfg)
            # pearson's deviations, like the distance matrices: once per cached column and
            # group, and once per rebuilt side (see test_one_distance_matrix_per_column_and_group)
            assert len(calls) == 4 + 4 + 2 + 4
            for r, u in zip(table.records, unscaled.records):
                mask = ds.group_labels == r.group
                a, b = ds.columns[r.var_a][mask], ds.columns[r.var_b][mask]
                ok = np.isfinite(a) & np.isfinite(b)
                stats = dcor(a[ok], b[ok])
                assert (r.n, r.dcor, r.pearson) == (int(ok.sum()), stats.dcor, stats.pearson)
                assert r.p_value == u.p_value
        # cache hits (full columns), one cached side (c with a full column), and
        # a pairwise-drop pair whose rows differ from both cached columns (c, d)
        assert {(r.var_a, r.var_b, r.n) for r in table.records if r.group == "g0"} >= {
            ("a", "b", 40), ("a", "c", 37), ("c", "d", 34)
        }

    def test_one_distance_matrix_per_column_and_group(self, monkeypatch):
        calls = []
        kernel = core.cdist
        monkeypatch.setattr(core, "cdist", lambda XA, XB: calls.append(len(XA)) or kernel(XA, XB))
        ds = gapped_dataset()
        full = {"a": ds.columns["a"], "b": ds.columns["b"], "e": ds.columns["a"] + 1.0}
        pairwise_screen(replace(ds, columns=full))
        assert calls == [40] * 6  # 3 columns in each of 2 groups
        calls.clear()
        pairwise_screen(ds)
        # g0: a, b, c, d cached; (a, c), (b, c) rebuild a or b at c's rows; (a, d), (b, d)
        # likewise; (c, d) rebuilds both.  g1 has no gaps: one matrix per column.
        assert len(calls) == 4 + 4 + 2 + 4

    def test_over_budget_builds_per_pair_with_identical_records(self, monkeypatch):
        ds = gapped_dataset()
        cfg = ScreenConfig(p_values=True, replicates=9, seed=4)
        cached = pairwise_screen(ds, cfg)
        monkeypatch.setattr(screening, "DEFAULT_MEMORY_BUDGET", 0)
        assert pairwise_screen(ds, cfg) == cached

    def test_statistics_in_range(self, tmp_path):
        table = pairwise_screen(synthetic_dataset(tmp_path, n=50))
        for r in table.records:
            assert -1.0 <= r.pearson <= 1.0
            assert 0.0 <= r.dcor <= 1.0


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
        with pytest.raises(DataFormatError):
            emit_plot_data(make_table(self.records()), "xml", tmp_path / "x")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_plot_data(make_table(self.records()), "csv", tmp_path / "nodir" / "x" / "y.csv")
