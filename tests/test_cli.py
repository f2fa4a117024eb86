import json

import pytest

from boltzgas.cli import main

GOLDEN_MOMENTS = """\
level,order,exact,value
0,0,1/1,1
0,1,2/3,0.666666666667
0,2,2/3,0.666666666667
1,0,1/1,1
1,1,2/3,0.666666666667
1,2,4/3,1.33333333333
2,0,1/1,1
2,1,2/3,0.666666666667
2,2,2/3,0.666666666667
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMicrostates:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "microstates", "--n", "3", "--m", "2")
        assert code == 0
        assert out.strip() == "6"

    @pytest.mark.parametrize("n, m, expected", [(1, 7, "1"), (2, 2, "3")])
    def test_more_counts(self, capsys, n, m, expected):
        code, out, _ = run(capsys, "microstates", "--n", str(n), "--m", str(m))
        assert code == 0 and out.strip() == expected


class TestMoments:
    def test_golden_csv(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "2", "--m", "2", "--order-max", "2")
        assert code == 0
        assert out == GOLDEN_MOMENTS

    def test_oracle_column(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--n", "2", "--m", "2", "--order-max", "1", "--check-oracle"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith(",oracle")
        assert all(line.endswith("exact-match") for line in lines[1:])

    def test_full_sweep_exits_clean(self, capsys):
        code, _, _ = run(
            capsys, "moments", "--n", "8", "--m", "12", "--order-max", "2", "--check-oracle"
        )
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--n", "2", "--m", "2", "--order-max", "0", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"level": 0, "order": 0, "exact": "1/1", "value": 1.0}

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "nested" / "moments.csv"
        code, out, _ = run(
            capsys, "moments", "--n", "2", "--m", "2", "--order-max", "2",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == GOLDEN_MOMENTS
        assert not list(target.parent.glob("*.tmp"))


class TestPdf:
    def test_compare_limit_columns(self, capsys):
        code, out, _ = run(
            capsys, "pdf", "--n", "50", "--m", "100", "--level", "1", "--compare-limit"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "count,exact,value,limit"
        assert len(lines) == 52

    def test_oracle_check(self, capsys):
        code, _, _ = run(
            capsys, "pdf", "--n", "4", "--m", "6", "--level", "2", "--check-oracle"
        )
        assert code == 0


class TestJointPdf:
    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys,
            "jointpdf", "--n", "2", "--m", "2", "--levels", "0,1", "--counts", "1,0",
        )
        assert code == 0
        assert out.splitlines()[1] == "1,0,2/3,0.666666666667"

    def test_lattice_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "jointpdf", "--n", "3", "--m", "4", "--levels", "0,2", "--check-oracle"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 16

    def test_lattice_arity_guard(self, capsys):
        code, _, err = run(
            capsys, "jointpdf", "--n", "2", "--m", "4", "--levels", "0,1,2,3"
        )
        assert code == 1
        assert "counts" in err


class TestCovariance:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "covariance", "--n", "100", "--m", "2", "--t", "1.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level_a,level_b,covariance"
        assert lines[1] == "0,0,25"
        assert lines[2] == "0,1,-12.5"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "covariance", "--n", "10", "--m", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["temperature"] == pytest.approx(0.3)
        assert len(payload["means"]) == 4
        assert len(payload["covariance"]) == 4


class TestFluctuation:
    def test_grid(self, capsys):
        code, out, _ = run(
            capsys, "fluctuation", "--n", "10,30", "--t-grid", "log:0.1:100:7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "temperature,n_10,n_30"
        assert len(lines) == 8

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "fluctuation", "--n", "10", "--t-grid", "log:5:1:9")
        assert code == 1 and "t-grid" in err


class TestMc:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys,
            "mc", "--n", "10", "--m", "15", "--samples", "20000", "--seed", "7",
            "--levels", "0,1,2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,empirical_mean,exact_mean,std_error,z,status"
        assert len(lines) == 4
        assert all(line.endswith(",ok") for line in lines[1:])


class TestIdentities:
    def test_filtered_run(self, capsys):
        code, out, _ = run(capsys, "identities", "--name", "sum-of-powers")
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["name"] == "sum-of-powers" for r in reports)
        assert all(r["verdict"] == "residual" for r in reports)

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "identities", "--name", "nope")
        assert code == 1 and "nope" in err


class TestFigures:
    def test_writes_files_and_manifest(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "figures", "--figure", "7", "--out-dir", str(tmp_path)
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["fig7_all.csv", "manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest[0]["figure"] == 7
        content = (tmp_path / "fig7_all.csv").read_text()
        assert content.startswith("temperature,n_10")
        assert "\r" not in content

    def test_bad_figure_id(self, capsys, tmp_path):
        code, _, err = run(capsys, "figures", "--figure", "9", "--out-dir", str(tmp_path))
        assert code == 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "moments", "--n", "2")
        assert code == 1 and "required" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "microstates", "--n", "0", "--m", "2")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 1

    def test_negative_order_max(self, capsys):
        code, out, err = run(capsys, "moments", "--n", "4", "--m", "6", "--order-max", "-1")
        assert code == 1 and out == "" and "--order-max" in err
