import json

import numpy as np
import pytest

from distcorr.cli import main
from distcorr.core import dcor


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


class TestTest:
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
        lines = open(out_path).read().strip().split("\n")
        assert len(lines) == 529

    def test_no_partial_file_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\nx,4\n")
        out_path = tmp_path / "out.csv"
        code = main(["screen", "--data", str(bad), "--out", str(out_path), "--seed", "1"])
        assert code == 3
        assert not out_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

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
        assert len(json.loads(open(out_path).read())) == 2


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
