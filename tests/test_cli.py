import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

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

    def test_reports_physical_boundary(self, capsys):
        # A small c0 maps the star boundary 10 to a physical one near 0.99,
        # so the answer is that of the problem truncated there, and says so.
        code, out, _ = _run(capsys, ["solve", "--n", "1", "--c0", "1e-3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["fpp0"] == pytest.approx(1.0312, abs=1e-4)
        assert doc["eta_inf_physical"] == pytest.approx(0.98980, abs=1e-5)
        # eta*/b with b = a = 1/lambda at n = 1.
        assert doc["eta_inf_physical"] == pytest.approx(10.0 * doc["lambda"], rel=1e-14)

    def test_wall_flux_below_cutoff_is_numerical_failure(self, capsys):
        # The flux projector would zero c0^n = 1e-11 after one step, and the
        # printed fpp0 would be ~1e10.
        code, out, err = _run(capsys, ["solve", "--n", "1", "--c0", "1e-11"])
        assert code == 1 and out == ""
        assert "numerical failure: wall flux" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sub", ["solve", "profile"])
    @pytest.mark.parametrize(
        "extra", [["--eta-inf", "1e-250"], ["--eta-inf", "1e-200", "--c0", "1e100"]]
    )
    def test_rescaling_overflow_is_numerical_failure(self, capsys, sub, extra):
        # The physical flux column would be inf/NaN (a^2 b = 1e500, or a
        # finite factor times a wall flux of 1e200).
        code, out, err = _run(capsys, [sub, "--n", "2", *extra])
        assert code == 1 and out == ""
        assert "numerical failure" in err and "overflows" in err
        assert "Warning" not in err and "Traceback" not in err

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
        row = json.loads(out)["rows"][0]
        assert row["discrepancy"] <= 1e-10
        # The row names both boundaries: the star one the one-IVP solve
        # integrated to and the physical one where both routes impose f' = 1.
        assert row["eta_star_inf"] == 10.0
        assert row["eta_inf_physical"] == pytest.approx(17.0128, abs=1e-4)
        assert "eta_inf" not in row

    @pytest.mark.filterwarnings("error")
    def test_rescaling_overflow_is_a_row_error(self, capsys):
        argv = ["table", "--n", "2", "--eta-inf", "1e-250", "--format", "json"]
        code, out, _ = _run(capsys, argv)
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert "fpp0_nitm" not in row and "rescaling factor overflows" in row["error"]

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

    @pytest.mark.parametrize(
        "argv", [["--n", "1", "--eta-inf", "0.01"], ["--n", "3000"], ["--n", "20000"]]
    )
    def test_roots_far_from_the_start_trial(self, capsys, argv):
        # A shooting root near 1000 (physical boundary 1e-3), and exponents
        # whose trial flux g^n overflows for g above exp(709/n).
        code, out, _ = _run(capsys, ["verify", *argv])
        assert code == 0
        assert json.loads(out)["discrepancy"] <= 1e-12

    def test_tiny_boundary_reaches_both_routes(self, capsys):
        # Both routes solve at physical boundary ~1e-150, where fpp0 ~ 1e150;
        # the discrepancy is relative, so their 1.2e-14 agreement passes.
        code, out, err = _run(capsys, ["verify", "--n", "1", "--eta-inf", "1e-100"])
        assert code == 0
        assert "numerical failure" not in err
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["discrepancy"] < 2e-14


class TestSensitivity:
    def test_default_grid(self, capsys):
        code, out, _ = _run(capsys, ["sensitivity", "--n", "1.0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta_inf,fpp0,error"
        assert len(lines) == 6
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(0.33205733621519630, abs=1e-9)

    def test_failed_boundary_is_a_row(self, capsys):
        code, out, err = _run(capsys, ["sensitivity", "--n", "1", "--eta-inf", "6,1e7"])
        assert code == 1
        lines = out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == pytest.approx(0.33205752415, abs=1e-10)
        assert lines[2].startswith("1e+07,,step budget")
        assert "Traceback" not in out + err

    @pytest.mark.filterwarnings("error")
    def test_rescaling_overflow_is_a_boundary_error(self, capsys):
        # f''(0) = 1e250 is finite at eta* = 1e-250, but the solve there would
        # overflow its flux column, so that boundary fails on its own.
        code, out, _ = _run(capsys, ["sensitivity", "--n", "2", "--eta-inf", "1e-250,10"])
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[1].startswith("1e-250,,a rescaling factor overflows")
        assert float(lines[2].split(",")[1]) == pytest.approx(0.39979057406, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, error",
        [
            # F'_inf^(-3/2) = 1e150 is finite; c0 times it is not.
            (["--n", "1", "--eta-inf", "1e-250", "--c0", "1e100"], "f''(0) overflows"),
            # f''(0) = 1e200 is finite; its wall flux f''(0)^2 is not.
            (["--n", "2", "--eta-inf", "1e-200", "--c0", "1e100"], "viscous flux"),
        ],
    )
    def test_overflowing_answer_is_a_boundary_error(self, capsys, argv, error):
        code, out, _ = _run(capsys, ["sensitivity", *argv])
        assert code == 1
        (row,) = out.strip().split("\n")[1:]
        assert row.split(",")[1] == "" and error in row

    @pytest.mark.parametrize("c0", ["1", "1e50", "1e100", "1e200"])
    @pytest.mark.parametrize("eta", ["1e-250", "1e-200", "10"])
    @pytest.mark.parametrize("n", ["0.3", "1", "2"])
    def test_refuses_what_solve_refuses(self, capsys, n, eta, c0):
        # One boundary: sensitivity prints solve's fpp0 or fails where it fails.
        common = ["--n", n, "--eta-inf", eta, "--c0", c0]
        solve_code, solve_out, _ = _run(capsys, ["solve", *common])
        code, out, _ = _run(capsys, ["sensitivity", *common])
        assert code == solve_code
        cell = out.strip().split("\n")[1].split(",")[1]
        if code == 0:
            assert float(cell) == json.loads(solve_out)["fpp0"]
        else:
            assert cell == ""

    def test_bad_list(self, capsys):
        code, _, err = _run(capsys, ["sensitivity", "--n", "1.0", "--eta-inf", "6,x"])
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("etas", [",", "", ",,"])
    def test_empty_list_is_usage_error(self, capsys, etas):
        code, out, err = _run(capsys, ["sensitivity", "--n", "1.0", "--eta-inf", etas])
        assert code == 2 and out == ""
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
        # export_profile raises report.SelectionError, a DomainError; the CLI
        # reports it as the bad flag value it is: exit 2, not 1.
        code, out, err = _run(capsys, ["profile", "--n", "1.3", "--columns", "zzz"])
        assert code == 2 and out == ""
        assert "usage error: unknown column" in err

    @pytest.mark.parametrize("columns", [",", "", ",,"])
    def test_empty_column_list_is_usage_error(self, capsys, columns):
        code, out, err = _run(capsys, ["profile", "--n", "1.3", "--columns", columns])
        assert code == 2 and out == ""
        assert "usage error" in err


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
            # A step too small to reach --n-to in MAX_TABLE_ROWS rows, or
            # to move v at all, fails before any row is solved.
            ["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-300"],
            ["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-9"],
            ["table", "--n-from", "1e17", "--n-to", "1e17", "--n-step", "1"],
            ["verify", "--n", "1.0", "--tol", "nan"],
            ["verify", "--n", "1.0", "--tol", "inf"],
            ["verify", "--n", "1.0", "--tol", "-1"],
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


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


# Valid values keep each example to milliseconds: --eta-inf <= 40, table
# requests of at most six rows, and tolerances in [1e-12, 1e-11].  Looser
# tolerances are slow, not wrong: at n > 1 the flux then stalls just above
# the projector's cutoff and a trial takes ~100x more steps.
_VALID = {
    # A few extreme exponents: the shooting start trial ends with
    # f'(eta_inf) <= 0 (no Newton step) for n >~ 50, and at 3000 the flux
    # g^n overflows for g above ~1.27, which small boundaries need.
    "--n": st.one_of(_number(0.1, 2.5), st.sampled_from(["50", "300", "3000"])),
    "--n-from": _number(0.1, 2.5),
    "--n-to": _number(0.1, 2.5),
    "--n-step": _number(0.5, 2.0),
    "--eta-inf": _number(0.01, 40.0),
    "--c0": _number(0.1, 10.0),
    "--rtol": _number(1e-12, 1e-11),
    "--atol": _number(1e-12, 1e-11),
    "--tol": _number(1e-16, 1e-3),
    "--method": st.sampled_from(["nitm", "shooting", "both"]),
    "--format": st.sampled_from(["csv", "json"]),
    "--columns": st.sampled_from(["eta,fpp", "eta,f,fp,fpp,eta_star", ""]),
}
_SENSITIVITY_ETAS = st.lists(_number(0.01, 40.0), min_size=1, max_size=3).map(",".join)
_OUT_OF_RANGE = st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "-inf", "1e400"])
_NON_NUMERIC = st.sampled_from(["abc", "", "1.0.0", "0x1p", "vorticity"])
# Mostly valid values, so that whole subcommands run and can fail numerically.
_KINDS = st.sampled_from(("valid",) * 10 + ("missing",) * 3 + ("out of range", "non-numeric"))
_COMMON = ("--eta-inf", "--c0", "--rtol", "--atol")
_FLAGS = {
    "solve": ("--n", *_COMMON),
    "table": ("--n", "--n-from", "--n-to", "--n-step", "--method", "--format", *_COMMON),
    "verify": ("--n", "--tol", *_COMMON),
    "sensitivity": ("--n", *_COMMON),
    "profile": ("--n", "--columns", *_COMMON),
}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [sub]
    for flag in _FLAGS[sub]:
        kind = draw(_KINDS)
        if kind == "missing":
            continue
        if kind == "valid":
            valid = _SENSITIVITY_ETAS if (sub, flag) == ("sensitivity", "--eta-inf") else _VALID[flag]
            value = draw(valid)
        else:
            value = draw(_OUT_OF_RANGE if kind == "out of range" else _NON_NUMERIC)
        argv += [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(_FLAGS[sub])))  # a flag without its value
    return argv


class TestExitCodeProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(argv=_argv())
    @example(argv=["table", "--method", "shooting", "--n", "300"])
    @example(argv=["verify", "--n", "3000"])
    @example(argv=["verify", "--n", "1", "--eta-inf", "1e-6"])
    @example(argv=["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-300"])
    @example(argv=["solve", "--n", "1e-20"])
    @example(argv=["solve", "--n", "5", "--eta-inf", "1e-210"])
    @example(argv=["sensitivity", "--n", "1", "--eta-inf", "1e-250,10"])
    @example(argv=["solve", "--n", "2", "--eta-inf", "1e-250"])
    @example(argv=["profile", "--n", "2", "--eta-inf", "1e-250"])
    @example(argv=["sensitivity", "--n", "2", "--eta-inf", "1e-250,10"])
    def test_exit_code_contract(self, argv):
        # cli.run must map every input to 0, 1 or 2 and raise nothing.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
