import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from boltzgas import cli, identities
from boltzgas.cli import main
from boltzgas.distributions import DistributionTable
from boltzgas.identities import IdentityReport

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


# a particle count past the float range: N * p and n * t overflow
HUGE_N = "1" * 401


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.10.7"
)
class TestDigitLimit:
    """Python caps int <-> str at 4300 digits by default; main lifts the cap for output only."""

    def test_count_past_the_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "microstates", "--n", "5000", "--m", "50000")
        assert code == 0 and sys.get_int_max_str_digits() == before
        digits = out.strip()
        assert len(digits) == 7274
        sys.set_int_max_str_digits(0)
        try:
            assert int(digits) == math.comb(54999, 4999)
        finally:
            sys.set_int_max_str_digits(before)

    def test_rationals_past_the_digit_limit(self, capsys):
        code, out, _ = run(
            capsys, "pdf", "--n", "20", "--m", str(10**240), "--level", "0", "--format", "json"
        )
        assert code == 0
        fields = [part for row in json.loads(out) for part in row["exact"].split("/")]
        assert max(len(part) for part in fields) == 4543

    @pytest.mark.parametrize(
        "argv",
        [
            ["microstates", "--n", "1" * 4301, "--m", "2"],
            ["moments", "--n", "3", "--m", "2", "--levels", "0," + "1" * 4301],
        ],
    )
    def test_parsing_keeps_the_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 200 and "4301" in err

    @pytest.mark.parametrize(
        "argv, length",
        [
            (["fluctuation", "--n", "2", "--t-grid", "lin:1:2:" + "1" * 5000], 5008),
            (["figures", "--figure", "1" * 5000], 5000),
        ],
    )
    def test_long_values_are_named_by_length(self, capsys, tmp_path, argv, length):
        if argv[0] == "figures":
            argv = argv + ["--out-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 200 and f"<{length} characters>" in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["fluctuation", "--n", "2", "--t-grid", "lin:1:2:1"], "got 'lin:1:2:1'"),
            (["fluctuation", "--n", "2", "--t-grid", "lin:1:x:3"], "in 'lin:1:x:3'"),
            (["fluctuation", "--n", "2", "--t-grid", "foo"], "got 'foo'"),
            (["figures", "--figure", "x"], "got 'x'"),
        ],
    )
    def test_short_values_are_quoted(self, capsys, tmp_path, argv, shown):
        if argv[0] == "figures":
            argv = argv + ["--out-dir", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == 1 and shown in err

    @pytest.mark.parametrize(
        "argv", ["microstates --n 3 --m 2", "microstates --n 0 --m 2", "moments --n 2"]
    )
    def test_main_restores_the_previous_limit(self, capsys, argv):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, *argv.split())
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


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

    def test_counts_of_the_wrong_length(self, capsys):
        code, out, err = run(
            capsys, "jointpdf", "--n", "3", "--m", "4", "--levels", "0,2", "--counts", "1"
        )
        assert code == 1 and out == ""
        assert "--counts must match the number of levels" in err


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

    def test_sizes_must_be_positive(self, capsys):
        code, out, err = run(capsys, "fluctuation", "--n", "0", "--t-grid", "log:1:10:3")
        assert code == 1 and out == ""
        assert "--n needs a comma-separated list of positive sizes" in err

    @pytest.mark.parametrize("kind", ["lin", "log"])
    def test_grid_matches_numpy(self, kind):
        # NumPy is the reference: the lin rule is linspace's to the last bit,
        # and the log grid is 10.0 ** v over it, from which NumPy's vectorized
        # power may differ in the last bit.
        rng = random.Random(2024)
        specs = [(0.01, 10000.0, 181), (0.1, 100.0, 7), (1.0, 2.0, 1000), (5e-324, 2e-323, 11)]
        for _ in range(200):
            start = 10 ** rng.uniform(-8, 6)
            stop = start * (1 + 10 ** rng.uniform(-13, 4))
            specs.append((start, stop, rng.choice([2, 3, 10, 181, 997])))
        for start, stop, count in specs:
            grid = cli._parse_t_grid(f"{kind}:{start!r}:{stop!r}:{count}")
            if kind == "lin":
                assert grid == np.linspace(start, stop, count).tolist()
            else:
                exponents = np.linspace(math.log10(start), math.log10(stop), count).tolist()
                assert grid == [10.0**v for v in exponents]
                reference = np.logspace(exponents[0], exponents[-1], count)
                assert grid == pytest.approx(reference, rel=1e-15, abs=0.0)


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


class TestFailedCheck:
    """A check that disagrees exits 2 after its rows are written."""

    @pytest.mark.parametrize(
        "check, fake, argv, first_line",
        [
            (
                "oracle_moment",
                lambda *args: Fraction(-1),
                "moments --n 2 --m 2 --order-max 1 --check-oracle",
                "level,order,exact,value,oracle",
            ),
            (
                "oracle_pdf",
                lambda *args: DistributionTable((Fraction(1),), "exact"),
                "pdf --n 4 --m 6 --level 2 --check-oracle",
                "count,exact,value",
            ),
            (
                "oracle_joint_pdf",
                lambda *args: Fraction(-1),
                "jointpdf --n 2 --m 2 --levels 0,1 --check-oracle",
                "count_level_0,count_level_1,exact,value",
            ),
            (
                "run_standard_battery",
                lambda: [IdentityReport("power-of-sum", {"n": 1}, "mismatch")],
                "identities",
                "[",
            ),
        ],
    )
    def test_writes_then_exits_2(self, capsys, monkeypatch, check, fake, argv, first_line):
        # cmd_identities imports the battery when it runs, so it is patched at its source
        owner = identities if check == "run_standard_battery" else cli
        monkeypatch.setattr(owner, check, fake)
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert err.startswith("verification failed")
        lines = out.splitlines()
        assert lines[0] == first_line and len(lines) > 1

    def test_moment_rows_name_the_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_moment", lambda *args: Fraction(-1))
        code, out, _ = run(capsys, "moments", "--n", "2", "--m", "2", "--check-oracle")
        assert code == 2
        assert all(line.endswith(",MISMATCH") for line in out.splitlines()[1:])

    def test_moment_rows_reach_the_out_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "oracle_moment", lambda *args: Fraction(-1))
        target = tmp_path / "moments.csv"
        code, out, err = run(
            capsys, "moments", "--n", "2", "--m", "2", "--check-oracle", "--out", str(target)
        )
        assert code == 2 and out == "" and err.startswith("verification failed")
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "level,order,exact,value,oracle" and len(lines) > 1
        assert all(line.endswith(",MISMATCH") for line in lines[1:])

    def test_identity_reports_reach_the_out_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            identities,
            "run_standard_battery",
            lambda: [IdentityReport("power-of-sum", {"n": 1}, "mismatch")],
        )
        target = tmp_path / "ids.json"
        code, out, err = run(capsys, "identities", "--out", str(target))
        assert code == 2 and out == "" and err.startswith("verification failed")
        reports = json.loads(target.read_text(encoding="utf-8"))
        assert [r["verdict"] for r in reports] == ["mismatch"]


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

    @pytest.mark.parametrize(
        "argv",
        [
            "fluctuation --n 10 --t-grid lin:1:2:100000000000",
            "fluctuation --n 10 --t-grid log:1:nan:3",
            "fluctuation --n 10 --t-grid lin:1:inf:3",
            "covariance --n 10 --m 100000000",
            "covariance --n 10 --m 5 --t nan",
            "covariance --n 10 --m 5 --t inf",
            "covariance --n 0 --m 2",
            "moments --n 2 --m 100000000000000000000",
            "moments --n 2 --m 2 --levels 0 --order-max 100000000000000000000",
            "jointpdf --n 1000 --m 2 --levels 0,1",
            pytest.param(f"covariance --n {HUGE_N} --m 2 --t 1", id="covariance-huge-n"),
            pytest.param(f"fluctuation --n {HUGE_N} --t-grid log:1:10:3", id="fluctuation-huge-n"),
        ],
    )
    def test_oversized_or_nonfinite_request(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == "" and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "pdf --n 4 --m 6 --level 1 --out {blocker}/pdf.csv",
            "figures --figure 7 --out-dir {blocker}",
        ],
    )
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code, out, err = run(capsys, *argv.format(blocker=blocker).split())
        assert code == 1 and out == "" and err.startswith("error:")
        assert "Traceback" not in err


class TestRowCaps:
    """moments and jointpdf refuse a table past MAX_OUTPUT_ROWS before computing a row."""

    CASES = [
        ("moments --n 2 --m 100", 505),  # 101 levels x 5 orders
        ("jointpdf --n 9 --m 2 --levels 0,1,2", 1000),  # 10**3 lattice points
    ]

    @staticmethod
    def fail(*args):
        raise AssertionError("computed a row of a refused table")

    @pytest.mark.parametrize("argv, rows", CASES)
    def test_one_row_past_the_cap_is_refused(self, capsys, monkeypatch, argv, rows):
        monkeypatch.setattr(cli, "MAX_OUTPUT_ROWS", rows - 1, raising=False)
        monkeypatch.setattr(cli, "exact_moment", self.fail)
        monkeypatch.setattr(cli, "joint_pdf_exact", self.fail)
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"exceed {rows - 1}" in err

    @pytest.mark.parametrize("argv, rows", CASES)
    def test_a_table_at_the_cap_is_written(self, capsys, monkeypatch, argv, rows):
        monkeypatch.setattr(cli, "MAX_OUTPUT_ROWS", rows, raising=False)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and len(out.splitlines()) == 1 + rows

    def test_single_point_is_not_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_OUTPUT_ROWS", 1, raising=False)
        code, out, _ = run(
            capsys, "jointpdf", "--n", "9", "--m", "2", "--levels", "0,1,2", "--counts", "7,2,0"
        )
        assert code == 0 and len(out.splitlines()) == 2


class TestErrorShape:
    """A malformed flag value fails in argparse: exit 1, no output, one line naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("microstates --n LONG --m 2", "--n"),
            ("microstates --n 2 --m LONG", "--m"),
            ("moments --n 2 --m 2 --levels 0,x", "--levels"),
            ("moments --n 2 --m 2 --order-max LONG", "--order-max"),
            ("pdf --n 2 --m 2 --level LONG", "--level"),
            ("jointpdf --n 2 --m 2 --levels 0,x", "--levels"),
            ("jointpdf --n 2 --m 2 --levels 0,1 --counts 1,1.5", "--counts"),
            ("covariance --n LONG --m 2", "--n"),
            ("covariance --n 2 --m 2 --t x", "--t"),
            ("fluctuation --n 10,x", "--n"),
            ("fluctuation --n 10 --t-grid log:1:10", "--t-grid"),
            ("fluctuation --n 10 --t-grid lin:1:2:x", "--t-grid"),
            ("mc --n 2 --m 2 --levels 0,,x", "--levels"),
            ("mc --n 2 --m 2 --samples LONG", "--samples"),
            ("mc --n 2 --m 2 --seed LONG", "--seed"),
            ("figures --figure x --out-dir OUT", "--figure"),
            ("figures --figure 1.0 --out-dir OUT", "--figure"),
        ],
    )
    def test_malformed_value_names_its_flag(self, capsys, tmp_path, argv, flag):
        argv = argv.replace("LONG", "1" * 4301).replace("OUT", str(tmp_path / "figs")).split()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {flag}:") and err.count("\n") == 1
        assert not (tmp_path / "figs").exists()


class TestWriteAtomic:
    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("kept\n")
        # a lone surrogate cannot be encoded as UTF-8
        with pytest.raises(UnicodeEncodeError):
            cli.write_atomic(target, "\ud800")
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]
