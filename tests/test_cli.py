import json
import os
import re

import numpy as np
import pytest

from distcorr import cli, inference, screening
from distcorr.cli import main
from distcorr.core import DEFAULT_MEMORY_BUDGET, dcor
from distcorr.oracles import QuadratureSpec
from distcorr.screening import OutlierRule, ScreenConfig
from distcorr.singular import SingularCheck, c_p


def write_sample(path, values):
    with open(path, "w") as fh:
        fh.write("x\n")
        for v in values:
            fh.write(f"{v}\n")
    return str(path)


@pytest.fixture
def two_point(tmp_path):
    x = write_sample(tmp_path / "x.csv", [0.0, 1.0])
    y = write_sample(tmp_path / "y.csv", [0.0, 1.0])
    return x, y


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCompute:
    def test_two_point(self, two_point, capsys):
        x, y = two_point
        code, out = run(capsys, ["compute", "--x", x, "--y", y])
        assert code == 0
        assert out["dcov_sq"] == pytest.approx(0.25, abs=1e-12)
        assert out["dcor"] == pytest.approx(1.0, abs=1e-12)
        assert out["schema_version"] == 1

    def test_huge_spread_prints_unscaled_dcor(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        x = rng.normal(size=30)
        y = x * x + 0.1 * rng.normal(size=30)
        xs = write_sample(tmp_path / "x.csv", [repr(float(1e155 * v)) for v in x])
        ys = write_sample(tmp_path / "y.csv", [repr(float(1e155 * v)) for v in y])
        code, out = run(capsys, ["compute", "--x", xs, "--y", ys])
        assert code == 0
        assert out["dcor"] == pytest.approx(dcor(x, y).dcor, rel=1e-12)
        assert out["dcov_sq"] == float("inf")  # printed as JSON Infinity

    def test_missing_file_exit_3(self, two_point, capsys):
        x, _ = two_point
        code = main(["compute", "--x", x, "--y", "/nope/missing.csv"])
        assert code == 3

    def test_blank_file_has_no_numeric_columns_exit_3(self, two_point, tmp_path, capsys):
        blank = tmp_path / "blank.csv"
        blank.write_text("\n")
        assert main(["compute", "--x", str(blank), "--y", two_point[1]]) == 3
        assert capsys.readouterr().err == f"error: data: {blank} has no numeric columns\n"

    def test_unknown_flag_exit_2(self, two_point):
        x, y = two_point
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--x", x, "--y", y, "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_memory_budget_exit_2(self, two_point, capsys, budget):
        x, y = two_point
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--x", x, "--y", y, "--memory-budget", budget])
        assert exc.value.code == 2
        assert "--memory-budget" in capsys.readouterr().err


def test_defaults_are_the_library_values():
    # each subcommand with only its required arguments; a default no library object defines is the CLI's own
    quad = {"quad_radius": QuadratureSpec.truncation_radius, "quad_panels": QuadratureSpec.panel_count,
            "quad_tolerance": QuadratureSpec.tolerance}
    expected = [
        (["compute", "--x", "x.csv", "--y", "y.csv"], {"delimiter": ",", "memory_budget": DEFAULT_MEMORY_BUDGET}),
        (["test", "--x", "x.csv", "--y", "y.csv"], {"delimiter": ",", "seed": None, "replicates": 999}),
        (["screen", "--data", "d.csv", "--out", "o.csv"], {
            "delimiter": ",", "seed": None, "columns": None, "group_by": None, "format": "csv",
            "missing_policy": "reject", "p_values": False, "replicates": ScreenConfig.replicates,
            "nonlinear_gap": OutlierRule.nonlinear_gap, "low_dcor_percentile": OutlierRule.low_dcor_percentile}),
        (["power", "--scenario", "linear", "--n", "10"],
         {"seed": None, "trials": 100, "alpha": 0.05, "replicates": 199}),
        (["verify", "dcov"], {"seed": None, "n": 5, **quad}),
        (["verify", "singular", "--alpha", "1", "--x", "1"], quad),
        (["verify", "constants"], {}),
    ]
    parser = cli.build_parser()
    for argv, defaults in expected:
        args = vars(parser.parse_args(argv))
        given = {"command", "verify_what", "func", *(a[2:].replace("-", "_") for a in argv if a.startswith("--"))}
        assert {k: v for k, v in args.items() if k not in given} == defaults, argv


@pytest.mark.parametrize(
    "argv, error",
    [
        (["power", "--scenario", "linear", "--n", "1", "--seed", "1"], "^error: usage: "),
        (["power", "--scenario", "linear", "--n", "10", "--alpha", "1.5", "--seed", "1"], "^error: usage: "),
        (["verify", "singular", "--alpha", "2.5", "--x", "1.0"], "^error: usage: "),
        (["verify", "dcov", "--quad-panels", "1", "--seed", "1"], "^error: usage: "),
        # checked before the data file is read: it does not exist
        (["screen", "--data", "missing.csv", "--out", "unused.csv", "--low-dcor-percentile", "150"],
         "^error: usage: low_dcor_percentile must be in \\[0, 100\\], got 150"),
        # argparse rejects these, naming the flag
        (["verify", "dcov", "--n", "-1", "--seed", "1"], "error: argument --n: must be a positive"),
        (["verify", "dcov", "--n", "0", "--seed", "1"], "error: argument --n: must be a positive"),
        # numpy's SeedSequence takes no negative seed: every --seed is rejected before it runs
        (["test", "--x", "x.csv", "--y", "y.csv", "--seed", "-3"], "error: argument --seed: must be a non-negative"),
        (["screen", "--data", "missing.csv", "--out", "unused.csv", "--seed", "-3"],
         "error: argument --seed: must be a non-negative"),
        (["screen", "--data", "missing.csv", "--out", "unused.csv", "--p-values", "--seed", "-3"],
         "error: argument --seed: must be a non-negative"),
        (["power", "--scenario", "linear", "--n", "10", "--seed", "-3"], "error: argument --seed: must be a non-negative"),
        (["verify", "dcov", "--seed", "-3"], "error: argument --seed: must be a non-negative"),
        (["verify", "dcov", "--seed", "1.5"], "error: argument --seed: must be a non-negative"),
        # checked before the data file is read, as the percentile is
        (["screen", "--data", "missing.csv", "--out", "unused.csv", "--nonlinear-gap", "nan"],
         "^error: usage: nonlinear_gap must be finite, got nan"),
        (["screen", "--data", "missing.csv", "--out", "unused.csv", "--nonlinear-gap", "inf"],
         "^error: usage: nonlinear_gap must be finite, got inf"),
        # a NaN passes every <= 0 check
        (["verify", "dcov", "--seed", "1", "--quad-radius", "nan"], "^error: usage: truncation_radius must"),
        (["verify", "dcov", "--seed", "1", "--quad-radius", "inf"], "^error: usage: truncation_radius must"),
        (["verify", "dcov", "--seed", "1", "--quad-tolerance", "nan"], "^error: usage: tolerance must be"),
        (["verify", "singular", "--alpha", "1", "--x", "nan"], "^error: usage: x must be finite, got nan"),
        (["verify", "singular", "--alpha", "1", "--x", "inf"], "^error: usage: x must be finite, got inf"),
        (["verify", "singular", "--alpha", "1", "--x", "1", "--quad-tolerance", "nan"],
         "^error: usage: tolerance must be"),
        # the csv reader takes a delimiter of exactly one character
        *[(argv + ["--delimiter", delimiter], "error: argument --delimiter: must be exactly one character")
          for argv in (["compute", "--x", "x.csv", "--y", "y.csv"], ["test", "--x", "x.csv", "--y", "y.csv"],
                       ["screen", "--data", "missing.csv", "--out", "unused.csv"])
          for delimiter in ("", "ab")],
    ],
    ids=[f"argv{i}" for i in range(27)],
)
def test_invalid_argument_exit_2(capsys, argv, error):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert re.search(error, capsys.readouterr().err)


def test_non_numeric_count_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dcov", "--n", "abc", "--seed", "1"])
    assert exc.value.code == 2
    assert "error: argument --n: must be a positive whole number, got 'abc'" in capsys.readouterr().err


def test_stray_value_error_is_not_a_usage_error(two_point, monkeypatch):
    # an internal ValueError is a fault of the program, not of the command line
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "dcor", broken)
    x, y = two_point
    with pytest.raises(ValueError, match="internal"):
        main(["compute", "--x", x, "--y", y])


@pytest.mark.parametrize("replicates", ["0", "-1"])
@pytest.mark.parametrize("command", ["test", "screen", "power"])
def test_nonpositive_replicates_exit_2(two_point, tmp_path, capsys, command, replicates):
    x, y = two_point
    argv = {
        "test": ["test", "--x", x, "--y", y, "--seed", "1"],
        "screen": ["screen", "--data", x, "--out", str(tmp_path / "out.csv"), "--p-values"],
        "power": ["power", "--scenario", "linear", "--n", "10"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--replicates", replicates])
    assert exc.value.code == 2
    assert "--replicates" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def on_cpus(monkeypatch, cpus: int, module) -> list:
    """Let the process run on ``cpus`` CPUs, fork at any size, and record the chunk count of each ``_fork_map``
    call that ``module`` makes."""
    chunks = []
    fork_map = inference._fork_map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(inference, "FORK_ENTRIES", 1)
    monkeypatch.setattr(module, "_fork_map",
                        lambda fn, items, k: chunks.append(min(k, len(items))) or fork_map(fn, items, k))
    return chunks


class TestTest:
    def test_same_output_on_any_cpu_count(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(5)
        x = write_sample(tmp_path / "x.csv", rng.normal(size=40))
        y = write_sample(tmp_path / "y.csv", rng.normal(size=40))
        outputs = []
        for cpus in (1, 3):
            with monkeypatch.context() as m:
                chunks = on_cpus(m, cpus, inference)
                assert main(["test", "--x", x, "--y", y, "--replicates", "99", "--seed", "5"]) == 0
            assert chunks == [cpus]
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_a_failed_fork_prints_the_serial_output(self, tmp_path, capsys, monkeypatch, failing_fork):
        rng = np.random.default_rng(6)
        x = write_sample(tmp_path / "x.csv", rng.normal(size=40))
        y = write_sample(tmp_path / "y.csv", rng.normal(size=40))
        outputs = []
        for cpus in (1, 3):
            with monkeypatch.context() as m:
                on_cpus(m, cpus, inference)
                assert main(["test", "--x", x, "--y", y, "--replicates", "99", "--seed", "5"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert len(failing_fork.calls) == 2
        failing_fork.check()

    def test_reproducible_with_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = write_sample(tmp_path / "x.csv", rng.normal(size=20))
        y = write_sample(tmp_path / "y.csv", rng.normal(size=20))
        args = ["test", "--x", x, "--y", y, "--replicates", "99", "--seed", "5"]
        code1, out1 = run(capsys, args)
        code2, out2 = run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1["p_value"] == (1 + out1["exceed_count"]) / 100

    def test_auto_seed_echoed(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = write_sample(tmp_path / "x.csv", rng.normal(size=10))
        y = write_sample(tmp_path / "y.csv", rng.normal(size=10))
        code = main(["test", "--x", x, "--y", y, "--replicates", "9"])
        captured = capsys.readouterr()
        assert code == 0
        assert "seed auto-generated" in captured.err
        assert json.loads(captured.out)["seed"] is not None


class TestScreen:
    def fixture_33(self, tmp_path):
        rng = np.random.default_rng(0)
        names = [f"v{i:02d}" for i in range(33)]
        path = tmp_path / "wide.csv"
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in rng.normal(size=(12, 33)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return str(path)

    def test_528_pairs(self, tmp_path, capsys):
        data = self.fixture_33(tmp_path)
        out_path = str(tmp_path / "out.csv")
        code, out = run(
            capsys,
            ["screen", "--data", data, "--out", out_path, "--seed", "1"],
        )
        assert code == 0
        assert out["pairs"] == 528
        with open(out_path) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 529

    def test_no_partial_file_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\nx,4\n")
        out_path = tmp_path / "out.csv"
        code = main(["screen", "--data", str(bad), "--out", str(out_path), "--seed", "1"])
        assert code == 3
        assert not out_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_column_selected_twice_exit_3(self, tmp_path, capsys):
        data = self.fixture_33(tmp_path)
        out_path = tmp_path / "out.csv"
        code = main(["screen", "--data", data, "--columns", "v00,v00,v01", "--out", str(out_path), "--seed", "1"])
        assert code == 3
        assert "column 'v00' selected twice" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("columns", ["", "v01,v02,", "v01,,v02"], ids=["empty", "trailing-comma", "empty-name"])
    def test_empty_column_name_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, columns):
        data = self.fixture_33(tmp_path)
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: loads.append(a))
        code = main(["screen", "--data", data, "--columns", columns, "--out", str(tmp_path / "out.csv"), "--seed", "1"])
        assert code == 2 and loads == []
        assert f"error: usage: --columns {columns!r} names an empty column" in capsys.readouterr().err

    def test_one_column_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        data = self.fixture_33(tmp_path)
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: loads.append(a))
        code = main(["screen", "--data", data, "--columns", " v01 ", "--out", str(tmp_path / "out.csv"), "--seed", "1"])
        assert code == 2 and loads == []
        assert "error: usage: --columns ' v01 ' names one column; screening needs at least 2" in capsys.readouterr().err

    def test_p_values_same_output_on_any_cpu_count(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(6)
        data = tmp_path / "g.csv"
        data.write_text("g,a,b,c\n" + "".join(f"{'pq'[i % 2]},{v[0]!r},{v[1]!r},{v[2]!r}\n"
                                              for i, v in enumerate(rng.normal(size=(40, 3)).tolist())))
        tables, outputs = [], []
        for cpus in (1, 2):
            out_path = tmp_path / f"out{cpus}.csv"
            with monkeypatch.context() as m:
                chunks = on_cpus(m, cpus, screening)
                code, out = run(capsys, ["screen", "--data", str(data), "--group-by", "g", "--p-values",
                                         "--replicates", "19", "--out", str(out_path), "--seed", "3"])
            assert code == 0 and chunks == [cpus, cpus]  # a set of three pairs in each group
            tables.append(out_path.read_bytes())
            outputs.append({k: v for k, v in out.items() if k != "out"})
        assert tables[1] == tables[0] and outputs[1] == outputs[0]

    def test_column_names_are_stripped(self, tmp_path, capsys):
        data = self.fixture_33(tmp_path)
        code, out = run(capsys, ["screen", "--data", data, "--columns", "v01, v02", "--out",
                                 str(tmp_path / "out.csv"), "--seed", "1"])
        assert code == 0 and out["pairs"] == 1

    def test_group_column_among_columns_exit_2(self, tmp_path, capsys):
        data = tmp_path / "g.csv"
        data.write_text("g,b,c\n" + "".join(f"{'pq'[i % 2]},{i},{i * i % 7}\n" for i in range(12)))
        out_path = tmp_path / "out.csv"
        code = main(["screen", "--data", str(data), "--columns", "g,b,c", "--group-by", "g", "--out", str(out_path),
                     "--seed", "1"])
        assert code == 2 and not out_path.exists()
        assert "error: usage: group column 'g' cannot also be a selected column" in capsys.readouterr().err

    def test_group_by_name_is_stripped(self, tmp_path, capsys):
        data = tmp_path / "g.csv"
        data.write_text("g , a,b\n" + "".join(f"{'pq'[i % 2]},{i},{i * i % 7}\n" for i in range(12)))
        code, out = run(capsys, ["screen", "--data", str(data), "--group-by", "g ", "--out",
                                 str(tmp_path / "out.csv"), "--seed", "1"])
        assert code == 0 and (out["groups"], out["pairs"]) == (2, 2)

    @pytest.mark.parametrize("out, error", [
        ("{tmp}", "names a directory"),
        ("", "names a directory"),
        ("{tmp}/missing/", "names a directory"),
        ("{tmp}/missing/out.csv", "is in a directory that does not exist"),
    ], ids=["out-is-a-directory", "out-empty", "out-trailing-separator", "out-in-missing-directory"])
    def test_unusable_out_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, out, error):
        data = self.fixture_33(tmp_path)
        out_path = out.format(tmp=tmp_path)
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: loads.append(a))
        code = main(["screen", "--data", data, "--out", out_path, "--seed", "1"])
        assert code == 2 and loads == []
        assert f"--out {out_path!r} {error}" in capsys.readouterr().err

    def test_unwritable_out_exit_2_before_screening(self, tmp_path, capsys, monkeypatch):
        # a name that the file system refuses: found before the screen runs, not when its output is written
        data = self.fixture_33(tmp_path)
        out_path = str(tmp_path / ("a" * 300 + ".csv"))
        screens = []
        monkeypatch.setattr(cli, "pairwise_screen", lambda *a, **k: screens.append(a))
        code = main(["screen", "--data", data, "--out", out_path, "--seed", "1"])
        assert code == 2 and screens == []
        assert f"--out {out_path!r} cannot be written: File name too long" in capsys.readouterr().err
        assert not [name for name in os.listdir(tmp_path) if name.startswith("tmp") and name.endswith(".tmp")]

    def test_every_pair_skipped_exit_3_with_warnings(self, tmp_path, capsys):
        # a and b share no complete row under pairwise-drop
        data = tmp_path / "gapped.csv"
        data.write_text("a,b\n" + "".join(f"{i},\n" for i in range(5)) + "".join(f",{i}\n" for i in range(5)))
        out_path = tmp_path / "out.csv"
        argv = ["screen", "--data", str(data), "--out", str(out_path), "--missing-policy", "pairwise-drop", "--seed", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "warning: pair (a, b) in group 'all' skipped: only 0 complete rows" in err
        assert "every pair was skipped: none has 3 complete rows in a group" in err
        assert not out_path.exists()

    def test_grouped_json_output(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        rng = np.random.default_rng(1)
        with open(path, "w") as fh:
            fh.write("g,a,b\n")
            for i in range(20):
                fh.write(f"{'p' if i < 10 else 'q'},{float(rng.normal())!r},{float(rng.normal())!r}\n")
        out_path = str(tmp_path / "out.json")
        code, out = run(
            capsys,
            ["screen", "--data", str(path), "--group-by", "g", "--out", out_path,
             "--format", "json", "--seed", "2"],
        )
        assert code == 0
        assert out["groups"] == 2
        with open(out_path) as fh:
            assert len(json.load(fh)) == 2


@pytest.mark.parametrize("cell", ["inf", "1e999", "nan"])
def test_non_finite_cell_exit_3(tmp_path, capsys, cell):
    x = write_sample(tmp_path / "x.csv", [0.0, 1.0, cell, 2.0])
    y = write_sample(tmp_path / "y.csv", [0.0, 1.0, 2.0, 3.0])
    assert main(["compute", "--x", x, "--y", y]) == 3
    assert f"non-finite cell '{cell}' at row 3, column 'x'" in capsys.readouterr().err
    # under every missing policy: only an empty cell is missing
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n" + "".join(f"{i},{i % 3},{cell if i == 5 else -i}\n" for i in range(20)))
    out_path = tmp_path / "out.csv"
    for policy in ("reject", "drop-row", "pairwise-drop"):
        argv = ["screen", "--data", str(data), "--out", str(out_path), "--missing-policy", policy, "--seed", "1"]
        assert main(argv) == 3
        assert f"non-finite cell '{cell}' at row 6, column 'c'" in capsys.readouterr().err
        assert not out_path.exists()


@pytest.mark.parametrize("content, error", [
    (b"x\n1\n2\xff\n3\n", "is not UTF-8 text"),
    # a quoted field longer than the csv reader's limit of 131072 characters
    (b'x\n1\n"' + b"2" * 200_000 + b'"\n3\n', "unreadable CSV in .* at line 3: field larger than field limit"),
], ids=["not-utf8", "csv-error"])
def test_unreadable_file_exit_3(tmp_path, capsys, content, error):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    y = write_sample(tmp_path / "y.csv", [0.0, 1.0, 2.0])
    out_path = tmp_path / "out.csv"
    for argv in (["compute", "--x", str(bad), "--y", y],
                 ["screen", "--data", str(bad), "--out", str(out_path), "--seed", "1"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and re.search(error, err)
    assert not out_path.exists()


class TestPower:
    def test_json_report(self, capsys):
        code, out = run(
            capsys,
            ["power", "--scenario", "independent", "--n", "20", "--trials", "5",
             "--replicates", "19", "--seed", "9"],
        )
        assert code == 0
        assert out["scenario"] == "independent"
        assert 0.0 <= out["rejection_rate_dcov"] <= 1.0


class TestVerify:
    def test_constants(self, capsys):
        code, out = run(capsys, ["verify", "constants"])
        assert code == 0
        assert out["pass"] is True
        assert len(out["constants"]) == 10

    def test_dcov(self, capsys):
        code, out = run(capsys, ["verify", "dcov", "--n", "4", "--seed", "17"])
        assert code == 0
        assert out["pass"] is True
        assert out["dcov_sq"] == pytest.approx(out["triple_sum"], rel=1e-12)

    def test_singular(self, capsys):
        code, out = run(capsys, ["verify", "singular", "--alpha", "1.0", "--x", "1.0"])
        assert code == 0
        assert out["pass"] is True
        assert out["closed_form"] == pytest.approx(np.pi, rel=1e-12)

    def test_quadrature_that_does_not_converge_exit_1(self, capsys):
        code = main(["verify", "dcov", "--seed", "1", "--quad-panels", "2", "--quad-tolerance", "1e-9"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: verification: quadrature error estimate ")

    @pytest.mark.parametrize("argv, name, wrong, error", [
        (["dcov", "--seed", "1"], "dcov_sq_oracle_sums", lambda x, y: -1.0, "oracle disagreement on dcov_sq"),
        (["singular", "--alpha", "1.0", "--x", "1.0"], "verify_singular_integral",
         lambda params, spec: SingularCheck(numeric=1.0, closed_form=2.0, error_estimate=0.0),
         "singular integral disagrees with closed form"),
        (["constants"], "singular_constant", lambda p, alpha: 2.0 * c_p(p), "C(p, 1) does not match c_p"),
    ], ids=["dcov", "singular", "constants"])
    def test_oracle_disagreement_prints_its_payload_then_exit_1(self, capsys, monkeypatch, argv, name, wrong, error):
        monkeypatch.setattr(cli, name, wrong)
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["pass"] is False
        assert captured.err == f"error: verification: {error}\n"
