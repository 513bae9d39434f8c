import json
import time

import pytest

from blasius_powerlaw.cli import run


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_document(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--n", "1.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 1.0
        assert doc["delta"] == -1.0
        assert doc["fpp0"] == pytest.approx(0.332057336217, abs=1e-9)
        assert doc["method_tag"] == "direct"

    def test_half_solves_directly(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--n", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method_tag"] == "direct"
        assert doc["delta"] is None
        assert doc["fpp0"] == pytest.approx(0.331746097242, abs=1e-11)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "solve.json"
        code, out, _ = _run(capsys, ["solve", "--n", "1.0", "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 1.0

    def test_numerical_failure_exit_code(self, capsys):
        # 10^6 steps of at most 0.5 cannot reach 10^6: rejected before stepping.
        t0 = time.perf_counter()
        code, _, err = _run(capsys, ["solve", "--n", "1", "--eta-inf", "1e6"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert "numerical failure" in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "solve.json"
        code, _, err = _run(capsys, ["solve", "--n", "1.0", "--output", str(target)])
        assert code == 2
        assert "usage error: cannot write --output" in err


class TestTable:
    def test_range_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["table", "--n-from", "0.8", "--n-to", "1.2", "--n-step", "0.2"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        assert lines[1].startswith("0.8,0.323544")

    def test_explicit_json(self, capsys):
        code, out, _ = _run(
            capsys, ["table", "--n", "1.0", "--format", "json", "--method", "both"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["method"] == "both"
        row = doc["rows"][0]
        assert row["fpp0_nitm"] == pytest.approx(row["fpp0_shooting"], abs=1e-6)

    def test_both_compares_at_matched_boundary(self, capsys):
        # Shooting at physical eta = 10 instead of the row's endpoint
        # (about 17 at n = 0.3) gave a spurious 7.1e-3 here.
        code, out, _ = _run(
            capsys, ["table", "--n", "0.3", "--method", "both", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["discrepancy"] <= 1e-10

    def test_incomplete_range_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["table", "--n-from", "0.5"])
        assert code == 2
        assert "usage error" in err

    def test_no_exponents_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, ["table"])
        assert code == 2


class TestVerify:
    def test_agreement_at_matched_boundary(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--n", "0.7", "--tol", "1e-9"])
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["discrepancy"] <= 1e-12
        assert doc["eta_inf_matched"] != 10.0  # rescaled physical endpoint

    def test_tolerance_failure_exit_code(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--n", "0.7", "--tol", "1e-16"])
        assert code == 1
        assert json.loads(out)["agree"] is False


class TestSensitivity:
    def test_default_grid(self, capsys):
        code, out, _ = _run(capsys, ["sensitivity", "--n", "1.0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta_inf,fpp0,error"
        assert len(lines) == 6
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(0.33205733621519630, abs=1e-9)

    def test_bad_list(self, capsys):
        code, _, err = _run(capsys, ["sensitivity", "--n", "1.0", "--eta-inf", "6,x"])
        assert code == 2
        assert "usage error" in err


class TestProfile:
    def test_default_columns(self, capsys):
        code, out, _ = _run(capsys, ["profile", "--n", "1.3"])
        assert code == 0
        header = out.split("\n", 1)[0]
        assert header == "eta,f,fp,fpp,eta_star,f_star,fp_star,fpp_star"

    def test_column_selection(self, capsys):
        code, out, _ = _run(capsys, ["profile", "--n", "1.3", "--columns", "eta,fp"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta,fp"
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_column_is_numerical_domain_error(self, capsys):
        code, _, err = _run(capsys, ["profile", "--n", "1.3", "--columns", "zzz"])
        assert code == 1
        assert "unknown column" in err


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "-1.0"],
            ["solve", "--n", "0"],
            ["solve", "--n", "nan"],
            ["solve", "--n", "1.0", "--rtol", "0"],
            ["solve", "--n", "1.0", "--eta-inf", "-10"],
            ["table", "--n", "1.0", "--n", "-0.5"],
            ["sensitivity", "--n", "1.0", "--eta-inf", "6,0,10"],
            ["sensitivity", "--n", "1.0", "--eta-inf", "6,-8"],
        ],
    )
    def test_out_of_range_number_is_usage_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "must be finite and > 0" in err

    def test_missing_subcommand(self, capsys):
        assert _run(capsys, [])[0] == 2

    def test_unknown_flag(self, capsys):
        assert _run(capsys, ["solve", "--n", "1.0", "--bogus"])[0] == 2
