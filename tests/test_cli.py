import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from array import array
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blasius_powerlaw import cli, ode_core, report
from blasius_powerlaw.cli import run
from blasius_powerlaw.nitm import NitmConfig, profile_ode_residuals, solve, solve_excluded, star_boundary
from blasius_powerlaw.report import SweepRow, sweep_table
from blasius_powerlaw.shooting import ROOT_TOL, ShootingConfig, solve_shooting


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
        # F* overflows near eta* = 8.6e307; the rejections that follow halve
        # the step until it cannot move eta*, which stops the solve there.
        t0 = time.perf_counter()
        code, _, err = _run(capsys, ["solve", "--n", "1", "--eta-inf", "1.7e308"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert "numerical failure" in err

    @pytest.mark.parametrize("n", ["1e-20", "1e-15", "1e-12"])
    def test_exponent_below_the_floor_is_refused(self, capsys, n):
        # Below N_MIN the decode's rounding, 2.2e-16/n, spoils the answer
        # (1.2% low at n = 1e-12, 99.9% at 1e-15): refused at once, by name.
        t0 = time.perf_counter()
        code, out, err = _run(capsys, ["solve", "--n", n])
        assert time.perf_counter() - t0 < 0.1
        assert code == 1 and out == ""
        assert f"power-law exponent must be >= N_MIN = 1e-05, got {n}" in err

    def test_reports_physical_boundary(self, capsys):
        # A small c0 maps the star boundary 10 to c0^(1/3) 10 = 1 and so to
        # a physical one near 0.99: the answer is that of the problem
        # truncated there, and says so.  eta_star_inf is the input boundary.
        code, out, _ = _run(capsys, ["solve", "--n", "1", "--c0", "1e-3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["fpp0"] == pytest.approx(1.0312, abs=1e-4)
        assert doc["eta_inf_physical"] == pytest.approx(0.98980, abs=1e-5)
        assert doc["eta_star_inf"] == 10.0
        # c0^(1/3) eta*/b with b = a = 1/lambda at n = 1.
        mapped = star_boundary(1.0, 1e-3, 10.0)
        assert doc["eta_inf_physical"] == pytest.approx(mapped * doc["lambda"], rel=1e-14)

    def test_wall_flux_below_cutoff_solves_the_mapped_boundary(self, capsys):
        # The flux projector would zero c0^n = 1e-11 after one step, and the
        # printed fpp0 would be ~1e10.  The star IVP starts from F''(0) = 1
        # instead, so c0 only moves its boundary, to 10 c0^(1/3).
        code, out, err = _run(capsys, ["solve", "--n", "1", "--c0", "1e-11"])
        assert code == 0 and err == ""
        mapped = NitmConfig(eta_star_inf=star_boundary(1.0, 1e-11, 10.0))
        assert json.loads(out)["fpp0"] == solve(1.0, mapped).fpp0

    def test_loose_tolerance_at_a_far_boundary(self, capsys):
        # The flux cutoff follows the tolerance (1e-7 here): with a fixed
        # 1e-10 the stepper crawled through the stiff layer below abs_tol and
        # ran out of steps at eta = 114 after ~7 s.
        argv = ["solve", "--n", "1.5", "--rtol", "1e-9", "--atol", "1e-9", "--eta-inf", "1000"]
        t0 = time.perf_counter()
        code, out, _ = _run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        expected = solve(1.5, NitmConfig(eta_star_inf=1000.0)).fpp0
        assert json.loads(out)["fpp0"] == pytest.approx(expected, rel=0.0, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sub", ["solve", "profile"])
    @pytest.mark.parametrize(
        "extra", [["--eta-inf", "1e-250"], ["--eta-inf", "1e-200", "--c0", "1e100"]]
    )
    def test_rescaling_overflow_is_numerical_failure(self, capsys, sub, extra):
        # The physical flux column would be inf/NaN: a^2 b = 1e500, or 1e400
        # at n = 2, where c0 leaves the star boundary 1e-200 as it is.
        code, out, err = _run(capsys, [sub, "--n", "2", *extra])
        assert code == 1 and out == ""
        assert "numerical failure" in err and "overflows" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, eta, fpp0, eta_physical",
        [
            ("1", "1e-180", 1.0000000000000002e270, 1e-270),
            ("1.5", "1e-160", 1.0000000000000249e192, 9.999999999999958e-193),
        ],
    )
    def test_tiny_boundary_answers_where_every_column_is_finite(
        self, capsys, n, eta, fpp0, eta_physical
    ):
        # At n = 1 and eta* = 1e-180, a = b = 1e90: the column factors a,
        # a b, a^2 b and a b^2 (at most 1e270) and eta*/b = 1e-270 are finite,
        # though a^2 b^2 = 1e360, which no column uses, is not.
        argv = ["--n", n, "--eta-inf", eta]
        code, out, err = _run(capsys, ["solve", *argv])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert (doc["fpp0"], doc["eta_inf_physical"]) == (fpp0, eta_physical)
        code, out, _ = _run(capsys, ["profile", *argv])
        assert code == 0
        rows = [[float(x) for x in row] for row in csv.reader(io.StringIO(out.split("\n", 1)[1]))]
        assert all(map(math.isfinite, chain.from_iterable(rows)))
        assert rows[0][3] == fpp0
        code, out, _ = _run(capsys, ["verify", *argv])
        assert code == 0 and json.loads(out)["discrepancy"] == 0.0

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

    # The paper grid n = 0.1, 0.2, ..., 2.0 at full precision: float.hex of
    # each row's fpp0_nitm and fpp0_shooting (x86-64, glibc libm).
    PAPER_GRID_HEX = [
        (0.1, "0x1.a7281f4c66d34p-1", "0x1.a7281f4c66d34p-1"),
        (0.2, "0x1.f61c30c3ee663p-2", "0x1.f61c30c3ee663p-2"),
        (0.3, "0x1.90e96626cbeb9p-2", "0x1.90e96626cbeb9p-2"),
        (0.4, "0x1.66ce1aa2fe5dfp-2", "0x1.66ce1aa2fe5dfp-2"),
        (0.5, "0x1.53b53fb8ee563p-2", "0x1.53b53fb8ee563p-2"),
        (0.6, "0x1.4bb86ffd6b258p-2", "0x1.4bb86ffd6b258p-2"),
        (0.7, "0x1.49c339358c31dp-2", "0x1.49c339358c31dp-2"),
        (0.8, "0x1.4b4f0e3887bacp-2", "0x1.4b4f0e3887bacp-2"),
        (0.9, "0x1.4efd96e8c98a2p-2", "0x1.4efd96e8c98a2p-2"),
        (1.0, "0x1.5406d69dc3483p-2", "0x1.5406d69dc3483p-2"),
        (1.1, "0x1.59f0e6decae2ep-2", "0x1.59f0e6decae2ep-2"),
        (1.2, "0x1.606cd0d0e24a2p-2", "0x1.606cd0d0e24a2p-2"),
        (1.3, "0x1.6745a0e2e9c86p-2", "0x1.6745a0e2e9c86p-2"),
        (1.4, "0x1.6e56ee6e93311p-2", "0x1.6e56ee6e93311p-2"),
        (1.5, "0x1.7587312e651c8p-2", "0x1.7587312e651c8p-2"),
        (1.6, "0x1.7cc43b739aa28p-2", "0x1.7cc43b739aa28p-2"),
        (1.7, "0x1.8400f72c2efdcp-2", "0x1.8400f72c2efdcp-2"),
        (1.8, "0x1.8b33e7a7f96e6p-2", "0x1.8b33e7a7f96e6p-2"),
        (1.9, "0x1.925626fe88046p-2", "0x1.925626fe88046p-2"),
        (2.0, "0x1.9962b34340e1ap-2", "0x1.9962b34340e1ap-2"),
    ]

    def test_paper_grid_is_bit_identical(self, capsys):
        argv = ["table", "--n-from", "0.1", "--n-to", "2.0", "--n-step", "0.1"]
        code, out, _ = _run(capsys, [*argv, "--method", "both", "--format", "json"])
        assert code == 0
        got = [(r["n"], r["fpp0_nitm"].hex(), r["fpp0_shooting"].hex())
               for r in json.loads(out)["rows"]]
        assert got == self.PAPER_GRID_HEX

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

    def test_empty_range_is_usage_error(self, capsys):
        argv = ["table", "--n-from", "2", "--n-to", "1", "--n-step", "0.1"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "range --n-from 2.0 --n-to 1.0 is empty" in err

    def test_tiny_range_ends_at_its_last_row(self):
        # A slack absolute in n would keep this range going until v passed
        # it, one row per 1e-300; the timeout turns such a hang into a failure.
        argv = ["table", "--n-from", "1e-300", "--n-to", "1e-299", "--n-step", "1e-300"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            " from blasius_powerlaw import cli; sys.exit(cli.run(sys.argv[2:]))"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script, src, *argv, "--method", "nitm"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1  # every n here is below ode_core.N_MIN
        header, *rows = csv.reader(io.StringIO(proc.stdout))
        assert [float(row[0]) for row in rows] == [float(f"{k}e-300") for k in range(1, 11)]

    def test_tiny_exponent_row_is_not_rounded_away(self, capsys):
        # n = 1e-13 is below the floor, so its row is an error, under its own key.
        argv = ["table", "--n-from", "1e-13", "--n-to", "1e-13", "--n-step", "1"]
        code, out, _ = _run(capsys, [*argv, "--format", "json"])
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert row["n"] == 1e-13
        assert "must be >= N_MIN = 1e-05, got 1e-13" in row["error"]

    def test_long_range_rows_are_the_decimal_grid(self):
        # Each row is its decimal exponent, with the steps' rounding dropped
        # above 10 too (not 21.694799999999), and the endpoint 24.6 is kept.
        argv = ["table", "--n-from", "15.8", "--n-to", "24.6", "--n-step", "0.01"]
        grid = cli._grid(cli.build_parser().parse_args(argv))
        assert grid == tuple((1580 + k) / 100 for k in range(881))

    def test_range_rows_keep_their_own_n(self, capsys):
        # Six significant digits would print every row as 1.
        argv = ["table", "--n-from", "1", "--n-to", "1.0000003", "--n-step", "1e-7"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert [row[0] for row in rows] == ["1", "1.0000001", "1.0000002", "1.0000003"]

    @pytest.mark.parametrize(
        "method, boundaries",
        [
            ("nitm", ["10.0000001", "14.4409"]),
            ("shooting", ["", "10.0000001"]),
            ("both", ["10.0000001", "14.4409"]),
        ],
    )
    def test_input_boundary_cells_keep_their_own_value(self, capsys, method, boundaries):
        # Six significant digits printed the input boundary as 10; the one-IVP
        # row's computed physical boundary stays rounded like fpp0.
        argv = ["table", "--n", "1", "--eta-inf", "10.0000001", "--method", method]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header[5:7] == ["eta_star_inf", "eta_inf_physical"]
        assert row[5:7] == boundaries

    def test_empty_range_with_explicit_n_is_usage_error(self, capsys):
        # The explicit --n row does not hide the empty range.
        argv = ["table", "--n", "1", "--n-from", "2", "--n-to", "1", "--n-step", "0.1"]
        code, out, err = _run(capsys, [*argv, "--method", "nitm"])
        assert code == 2 and out == ""
        assert "range --n-from 2.0 --n-to 1.0 is empty" in err

    def test_method_list_is_sweep_tables(self, capsys, monkeypatch):
        # --method offers the routes sweep_table runs and defaults to its
        # default, both read from the one list.
        assert sweep_table((1.0,)) == sweep_table((1.0,), report.SWEEP_METHODS[0])
        monkeypatch.setattr(report, "SWEEP_METHODS", ("shooting", "nitm"))
        parser = cli.build_parser.__wrapped__()  # build_parser is cached
        assert parser.parse_args(["table"]).method == "shooting"
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "--method", "both"])
        assert "{shooting,nitm}" in capsys.readouterr().err


class TestJsonRoundtrip:
    def test_roundtrip(self, capsys):
        code, out, _ = _run(capsys, ["table", "--n", "0.7", "--n", "1.2", "--method", "both", "--format", "json"])
        assert code == 0
        rows = sweep_table((0.7, 1.2), method="both")
        back = [SweepRow(**row) for row in json.loads(out)["rows"]]
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.n == b.n
            assert a.fpp0_nitm == b.fpp0_nitm  # full precision survives
            assert a.fpp0_shooting == b.fpp0_shooting
        assert back == rows

    def test_none_fields_skipped(self, capsys):
        code, out, _ = _run(capsys, ["table", "--n", "1", "--format", "json"])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert set(row) == {"n", "fpp0_nitm", "method_tag", "eta_star_inf", "eta_inf_physical"}


class TestRenderTable:
    def test_six_decimals(self):
        rows = sweep_table((1.0,))
        text = cli._render_table(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,fpp0_nitm")
        assert "0.332057" in lines[1]

    def test_boundary_cells(self):
        # The boundaries a row was given read back exactly, as does a row's n;
        # a one-IVP row's computed physical boundary is rounded like its fpp0.
        rows = [
            SweepRow(n=1.0, fpp0_nitm=0.3, eta_star_inf=10.0000001, eta_inf_physical=14.44090001),
            SweepRow(n=2.0, fpp0_shooting=0.3, eta_inf_physical=10.0000001),
            SweepRow(
                n=3.0, fpp0_shooting=0.3, eta_star_inf=10.0000001, eta_inf_physical=10.0000001, error="nitm: boom"
            ),
        ]
        _, *cells = csv.reader(io.StringIO(cli._render_table(rows)))
        assert [row[5:7] for row in cells] == [
            ["10.0000001", "14.4409"],
            ["", "10.0000001"],
            ["10.0000001", "10.0000001"],
        ]

    def test_error_row_rendered(self):
        text = cli._render_table([SweepRow(n=0.5, error="boom")])
        assert "boom" in text

    @pytest.mark.parametrize(
        "x, cell",
        [(1e-4, "0.000100"), (9.99e-5, "9.990000e-05"), (999999.0, "999999.000000"), (1e6, "1.000000e+06")],
    )
    def test_fpp0_cells_switch_to_exponent_form_outside_the_fixed_range(self, x, cell):
        _, row = csv.reader(io.StringIO(cli._render_table([SweepRow(n=1.0, fpp0_nitm=x)])))
        assert row[1] == cell

    @pytest.mark.parametrize(
        "argv, cells",
        [
            # a = b = 1e90: both routes answer 1e270.
            (["--n", "1", "--eta-inf", "1e-180"], ["1.000000e+270", "1.000000e+270"]),
            # The one-IVP answer is the largest float; shooting fails from it.
            (["--n", "0.1", "--eta-inf", "9.40309797775304e-114"], ["1.797693e+308", ""]),
        ],
        ids=["1e270", "largest-float"],
    )
    def test_far_answers_print_in_exponent_form(self, capsys, argv, cells):
        _, out, _ = _run(capsys, ["table", *argv, "--method", "both"])
        _, row = csv.reader(io.StringIO(out))
        assert row[1:3] == cells


class TestVerify:
    def test_agreement_at_matched_boundary(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--n", "0.7", "--tol", "1e-9"])
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["discrepancy"] <= 1e-12
        assert doc["eta_inf_matched"] != 10.0  # rescaled physical endpoint

    def test_tolerance_failure_exit_code(self, capsys, monkeypatch):
        # Shooting starts from the one-IVP answer and accepts it at n = 0.7
        # (discrepancy exactly 0.0), so a one-IVP answer 1e-9 off stands in
        # for a disagreement: shooting must reject it and find its own root.
        result = cli.nitm_solve(0.7)
        off = result._replace(fpp0=result.fpp0 * (1.0 + 1e-9))
        monkeypatch.setattr(cli, "nitm_solve", lambda n, config: off)
        code, out, _ = _run(capsys, ["verify", "--n", "0.7", "--tol", "1e-10"])
        assert code == 1
        doc = json.loads(out)
        assert doc["agree"] is False
        assert doc["discrepancy"] == pytest.approx(1e-9, rel=1e-3)
        root = solve_shooting(0.7, ShootingConfig(eta_inf=result.profile.final.eta)).fpp0
        assert doc["fpp0_shooting"] == pytest.approx(root, rel=1e-12)
        # The first trial was the perturbed answer, not G_START (residual ~0.3).
        assert ROOT_TOL < abs(doc["residual_at_nitm"]) < 1e-8

    @pytest.mark.parametrize(
        "argv", [["--n", "1", "--eta-inf", "0.01"], ["--n", "3000"], ["--n", "20000"]]
    )
    def test_roots_far_from_the_start_trial(self, capsys, argv):
        # A shooting root near 1000 (physical boundary 1e-3), and exponents
        # whose trial flux g^n overflows for g above exp(709/n).  verify
        # starts shooting at the one-IVP answer; the walk there from G_START
        # is TestStart::test_unseeded_reaches_far_roots in test_shooting.py.
        code, out, _ = _run(capsys, ["verify", *argv])
        assert code == 0
        assert json.loads(out)["discrepancy"] <= 1e-12

    def test_small_c0_agrees(self, capsys):
        # The wall flux c0^n = 1e-15 is below the flux cutoff, but c0 only
        # maps the star boundary, to 100, where shooting accepts the one-IVP
        # answer.
        code, out, _ = _run(capsys, ["verify", "--n", "2.5", "--c0", "1e-6"])
        assert code == 0
        assert json.loads(out)["discrepancy"] <= 1e-12

    def test_answer_at_the_largest_float_is_a_numerical_failure(self, capsys):
        # solve answers 1.7976931348622121e+308 here, a physical boundary of
        # 5.6e-309; shooting from that answer overflows its first step, and
        # the failure names that route, as a `table --method both` row does.
        argv = ["verify", "--n", "0.1", "--eta-inf", "9.40309797775304e-114"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("numerical failure: shooting: state became non-finite")
        assert "Traceback" not in err

    def test_tiny_boundary_reaches_both_routes(self, capsys):
        # Both routes solve at physical boundary ~1e-150, where fpp0 ~ 1e150;
        # the discrepancy is relative, so their 1.2e-14 agreement passes.
        code, out, err = _run(capsys, ["verify", "--n", "1", "--eta-inf", "1e-100"])
        assert code == 0
        assert "numerical failure" not in err
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["discrepancy"] < 2e-14


@pytest.mark.parametrize("n", ["0.3", "1.0", "1.7"])
def test_verify_and_table_both_agree(capsys, n):
    # Each subcommand runs its own matched-boundary cross-check.
    code, out, _ = _run(capsys, ["verify", "--n", n])
    assert code == 0
    verify = json.loads(out)
    code, out, _ = _run(capsys, ["table", "--n", n, "--method", "both", "--format", "json"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    for key in ("fpp0_nitm", "fpp0_shooting", "discrepancy"):
        assert verify[key] == row[key]
    assert verify["eta_inf_matched"] == row["eta_inf_physical"]


def _strict_json(text):
    """json.loads, refusing the Infinity and NaN tokens that RFC 8259 has not."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestUntruncated:
    """`--eta-inf inf` runs the one star IVP to ode_core.ETA_FAR."""

    def test_solve_echoes_an_infinite_boundary_as_null(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--n", "1", "--eta-inf", "inf"])
        assert code == 0
        doc = _strict_json(out)
        assert doc["eta_star_inf"] is None
        assert doc["fpp0"] == pytest.approx(0.33205733621519630, rel=0, abs=1e-12)
        # The physical boundary is the far node, finite.
        assert doc["eta_inf_physical"] == pytest.approx(1e30 / doc["fp_star_inf"] ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("method", report.SWEEP_METHODS)
    def test_table_json_is_strict_and_csv_prints_inf(self, capsys, method):
        argv = ["table", "--n", "0.5", "--n", "316", "--method", method, "--eta-inf", "inf"]
        code, out, _ = _run(capsys, [*argv, "--format", "json"])
        assert code == 0
        doc = _strict_json(out)
        assert doc["config"]["eta_inf"] is None
        for row in doc["rows"]:
            # A boundary key is null where it echoes inf, a number where computed.
            assert ("eta_star_inf" in row) == (method != "shooting")
            assert row.get("eta_star_inf") is None
            assert (row["eta_inf_physical"] is None) == (method == "shooting")
        code, out, _ = _run(capsys, argv)
        assert code == 0
        for row in list(csv.DictReader(io.StringIO(out))):
            assert row["eta_star_inf"] == ("" if method == "shooting" else "inf")
            assert (row["eta_inf_physical"] == "inf") == (method == "shooting")

    @pytest.mark.parametrize("n", ["0.1", "1", "2.5", "316"])
    def test_verify_accepts_the_untruncated_answer(self, capsys, n):
        # Shooting at the far physical boundary accepts the one-IVP start:
        # 0 iterations, so the two answers are the same float.
        code, out, _ = _run(capsys, ["verify", "--n", n, "--eta-inf", "inf"])
        assert code == 0
        doc = _strict_json(out)
        assert abs(doc["residual_at_nitm"]) <= ROOT_TOL
        assert doc["discrepancy"] <= 1e-12 and doc["fpp0_shooting"] == doc["fpp0_nitm"]

    def test_profile_ends_at_the_far_node(self, capsys):
        code, out, _ = _run(capsys, ["profile", "--n", "0.3", "--eta-inf", "inf", "--columns", "eta,fp,eta_star"])
        assert code == 0
        last = [float(x) for x in out.strip().split("\n")[-1].split(",")]
        assert last[2] == 1e30 and math.isfinite(last[0]) and last[1] == pytest.approx(1.0, abs=1e-15)


class TestSensitivity:
    @pytest.mark.parametrize(
        "c0, etas, value",
        [
            # Both map to the star boundary 9.966554934126096 (exit 1 before).
            ("0.99", "10.000000000000131,10.000000000000133", "0.332057336215094"),
            # inf maps to ETA_FAR = 1e30, whatever c0 ...
            ("1", "1e30,inf", "0.332057336215094"),
            # ... and 1e31 to 7.9e30, past it.
            ("0.5", "1e31,inf", None),
        ],
        ids=["equal", "far", "past-far"],
    )
    def test_boundaries_that_map_alike_answer(self, capsys, c0, etas, value):
        code, out, _ = _run(capsys, ["sensitivity", "--n", "1", "--c0", c0, "--eta-inf", etas])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(row[0]) for row in rows] == [float(eta) for eta in etas.split(",")]
        for row in rows:
            assert row[2] == "" and float(row[1]) == pytest.approx(0.33205733621519630, rel=0, abs=1e-12)
            assert value is None or row[1] == value

    def test_boundary_cells_keep_their_own_value(self, capsys):
        argv = ["sensitivity", "--n", "1", "--eta-inf", "10.0000001,10,1.7e308"]
        code, out, _ = _run(capsys, argv)
        assert code == 1  # F* overflows before 1.7e308
        header, *rows = csv.reader(io.StringIO(out))
        assert [row[0] for row in rows] == ["10.0000001", "10", "1.7e+308"]

    def test_overflowing_trial_does_not_fail_the_boundary(self, capsys):
        # On the way to 1e300 past a node at 10, a trial stage overflows the
        # curvature decode; the stepper rejects it, and the row answers
        # within 1e-13 of solve's (the node at 10 changes the steps).
        code, out, _ = _run(capsys, ["sensitivity", "--n", "0.01", "--eta-inf", "10,1e300"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[0] for row in rows] == ["10", "1e+300"]
        assert rows[1][2] == ""
        code, solve_out, _ = _run(capsys, ["solve", "--n", "0.01", "--eta-inf", "1e300"])
        assert code == 0
        assert float(rows[1][1]) == pytest.approx(json.loads(solve_out)["fpp0"], rel=1e-13, abs=0)

    def test_far_boundaries_are_cheap(self, capsys):
        # Each decade of boundary costs a few dozen steps once the layer has
        # decayed (1,317 ms here with the old step cap of 0.5).
        argv = ["sensitivity", "--n", "0.5", "--eta-inf", "10,100,1000,10000,100000"]
        t0 = time.perf_counter()
        code, out, _ = _run(capsys, argv)
        assert time.perf_counter() - t0 < 0.5
        assert code == 0 and len(out.strip().split("\n")) == 6

    def test_default_grid(self, capsys):
        code, out, _ = _run(capsys, ["sensitivity", "--n", "1.0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta_inf,fpp0,error"
        assert len(lines) == 6
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(0.33205733621519630, abs=1e-9)

    def test_failed_boundary_is_a_row(self, capsys):
        t0 = time.perf_counter()
        code, out, err = _run(capsys, ["sensitivity", "--n", "1", "--eta-inf", "6,1.7e308"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        lines = out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == pytest.approx(0.33205752415, abs=1e-10)
        # F* overflows near eta* = 8.62e307: divergence, not a step underflow.
        assert lines[2].startswith('1.7e+308,,"state became non-finite after t = 8.62')
        assert "; last finite state (1.7976931348623157e+308, " in lines[2]
        assert "Traceback" not in out + err

    @pytest.mark.filterwarnings("error")
    def test_rescaling_overflow_is_a_boundary_error(self, capsys):
        # f''(0) = 1e250 is finite at eta* = 1e-250, but the solve there would
        # overflow its flux column, so that boundary fails on its own.
        code, out, _ = _run(capsys, ["sensitivity", "--n", "2", "--eta-inf", "1e-250,10"])
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:2] == ["1e-250", ""]
        assert rows[1][2].startswith("a rescaling factor overflows")
        assert float(rows[2][1]) == pytest.approx(0.39979057406, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "eta, code, cell, error",
        [
            # The answer a b^2 is finite at this boundary, just below the
            # largest float, where F'_inf^(-3/(n+1)) would overflow ...
            ("9.40309797775304e-114", 0, "1.7976931348622121e+308", ""),
            # ... and a b^2 itself overflows 139 ulp of eta* lower.
            ("9.40309797775284e-114", 1, "", "a rescaling factor overflows"),
        ],
        ids=["largest-answer", "overflow"],
    )
    def test_overflowing_answer_is_a_boundary_error(self, capsys, eta, code, cell, error):
        exit_code, out, _ = _run(capsys, ["sensitivity", "--n", "0.1", "--eta-inf", eta])
        assert exit_code == code
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert row[:2] == [eta, cell] and row[2].startswith(error)

    def test_unmapped_boundary_fails_on_its_own(self, capsys):
        # At n = 1 the star boundary is c0^(1/3) eta* = 1e-100 eta*: 1e-250
        # underflows to 0, but 10 maps to 1e-99 and answers as solve does.
        argv = ["sensitivity", "--n", "1", "--c0", "1e-300", "--eta-inf", "1e-250,10"]
        code, out, _ = _run(capsys, argv)
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:2] == ["1e-250", ""] and "out of range at c0 = 1e-300, n = 1.0" in rows[1][2]
        assert rows[2] == ["10", repr(solve(1.0, NitmConfig(c0=1e-300)).fpp0), ""]

    @pytest.mark.parametrize(
        "n, eta, c0",
        [
            *product(["0.3", "1", "2"], ["1e-250", "1e-200", "10"], ["1", "1e50", "1e100", "1e200", "1e-6", "1e-3"]),
            # f''(0) and the group factors are finite, but eta*/b overflows.
            ("0.1", "1.6e308", "1"),
            ("0.1", "1.65e308", "1"),
            ("0.2", "1.2e308", "1"),
        ],
    )
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


class TestCsvErrorCells:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sensitivity", "--n", "0.1", "--eta-inf", "1e-300,10"],
            ["table", "--n", "0.1", "--n", "1", "--eta-inf", "1e-300"],
        ],
        ids=["sensitivity", "table"],
    )
    def test_every_row_has_the_header_columns(self, capsys, argv):
        # The error message "... at F'_inf = ..., n = 0.1" holds a comma, so
        # its cell is quoted; rows without an error are not.
        code, out, _ = _run(capsys, argv)
        assert code == 1
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
        assert ", n = 0.1" in rows[0][-1]


#: Run in a fresh interpreter with NumPy blocked (any import of it raises
#: ImportError): note the modules loaded at start-up (by `site`, say), print
#: the modules `import blasius_powerlaw` alone loads, `cli.run` one command per
#: stdin line, printing its exit code, then print the excluded-exponent
#: answers, the largest ODE residual at n = 1.7, whether `grid.ts` needs NumPy,
#: and the modules loaded since start-up.
_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import blasius_powerlaw
print(" ".join(sorted(set(sys.modules) - before)))
import contextlib, io
from blasius_powerlaw import cli, nitm
for line in sys.stdin:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        print(cli.run(line.split()), file=sys.__stdout__)
print(nitm.solve_excluded(0.5).fpp0.hex(), nitm.solve_excluded(2.0).fpp0.hex())
print(max(map(abs, nitm.profile_ode_residuals(nitm.solve(1.7).profile))).hex())
try:
    nitm.solve(1.0).profile.grid.ts
except ImportError:
    print("ts needs numpy")
print(" ".join(sorted(set(sys.modules) - before)))
"""


#: Run with neither `site` (which may preload modules) nor the environment:
#: import the package and `cli`, run `solve --n 1`, and print its exit code
#: and every module loaded.
_BARE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import blasius_powerlaw
from blasius_powerlaw import cli
code = cli.run(["solve", "--n", "1"])
print(code)
print(" ".join(sys.modules))
"""


class TestImports:
    COMMANDS = [
        ("solve --n 1", 0),
        ("profile --n 1.7", 0),
        ("sensitivity --n 0.3", 0),
        ("verify --n 1.7", 0),
        ("table --n-from 0.1 --n-to 2.0 --n-step 0.1 --method both --format json", 0),
        ("table --n-from 0.5 --n-to 1.5 --n-step 0.5", 0),
        ("sensitivity --n 1 --eta-inf ,", 2),
        ("solve --n 3000 --c0 0.25", 1),
    ]

    @pytest.fixture(scope="class")
    def no_numpy_run(self):
        # One fresh interpreter serves every check: the modules the library
        # import loaded, its exit codes, excluded answers, residual, `ts` line
        # and the modules it loaded in all.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _NO_NUMPY_SCRIPT, src],
            input="\n".join(argv for argv, _ in self.COMMANDS),
            capture_output=True, text=True, check=True,
        )
        library, *codes, excluded, residual, ts, loaded = proc.stdout.splitlines()
        assert codes == [str(code) for _, code in self.COMMANDS]
        return set(library.split()), excluded, residual, ts, set(loaded.split())

    def test_cli_never_imports_numpy(self, no_numpy_run):
        # NumPy is only the `arrays` extra: every command, both excluded
        # exponents and the residual check run without it, to the same
        # answers; `grid.ts` needs it.
        _, excluded, residual, ts, _ = no_numpy_run
        assert excluded.split() == [solve_excluded(n).fpp0.hex() for n in (0.5, 2.0)]
        assert residual == max(map(abs, profile_ode_residuals(solve(1.7).profile))).hex()
        assert ts == "ts needs numpy"

    def test_cli_never_imports_dataclasses(self, no_numpy_run):
        # dataclasses and the inspect it pulls in would more than double the
        # package's import time, so the records are named tuples.
        *_, loaded = no_numpy_run
        assert "blasius_powerlaw.cli" in loaded
        assert {"dataclasses", "inspect"}.isdisjoint(loaded)

    def test_library_import_loads_no_writer_modules(self, no_numpy_run):
        # Only the command line writes CSV or JSON or parses flags, so a
        # library user does not pay for importing those modules.
        library, *_ = no_numpy_run
        assert "blasius_powerlaw.report" in library
        assert {"json", "csv", "argparse"}.isdisjoint(library)

    def test_bare_interpreter_loads_no_typing(self):
        # typing alone takes longer to import than the package, so the
        # records are `collections.namedtuple` classes and the annotations
        # name `collections.abc` types.  shutil (with bz2 and lzma) would
        # cost as much, for a help width the parser reads from os instead.
        # The annotations are plain expressions, evaluated at definition,
        # so no module needs `__future__`.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _BARE_SCRIPT, src],
            capture_output=True, text=True, check=True,
        )
        *_, code, loaded = proc.stdout.splitlines()
        assert code == "0"
        assert "blasius_powerlaw.cli" in loaded.split()
        assert {"typing", "numpy", "dataclasses", "shutil", "__future__"}.isdisjoint(loaded.split())

    @pytest.mark.parametrize("columns", ["60", "120", None])
    def test_help_text_is_argparse_default(self, monkeypatch, columns):
        # The parser's formatter takes the width argparse's default one
        # would, so every help text is unchanged.
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for p in (parser, *sub.choices.values()):
            ours = p.format_help(), p.format_usage()
            monkeypatch.setattr(p, "formatter_class", argparse.HelpFormatter)
            assert (p.format_help(), p.format_usage()) == ours

    def test_grid_arrays_are_built_once_from_the_lists(self):
        grid = solve(1.7).profile.grid
        ts, ys = grid.ts, grid.ys
        assert ts.dtype == ys.dtype == np.float64 and ys.shape == (len(grid.nodes), 3)
        assert ts.tobytes() == array("d", grid.nodes).tobytes()
        assert ys.tobytes() == array("d", chain.from_iterable(grid.states)).tobytes()
        assert grid.ts is ts and grid.ys is ys


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

    def test_unknown_column_is_refused_before_the_solve(self, capsys, monkeypatch):
        # The solve refuses n = 1e-300, below ode_core.N_MIN (exit 1), but the
        # bad flag is the error to report, and at any n it costs no solve to find.
        code, out, err = _run(capsys, ["profile", "--n", "1e-300", "--columns", "foo"])
        assert code == 2 and out == ""
        assert err.startswith("usage error: unknown column 'foo'; choose from ('eta', ")

        def solve_first(*args):
            raise AssertionError("profile solved before checking --columns")

        monkeypatch.setattr(cli, "nitm_solve", solve_first)
        code, out, err = _run(capsys, ["profile", "--n", "0.3", "--columns", "eta,foo"])
        assert code == 2 and out == ""
        assert "usage error: unknown column 'foo'" in err

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
            ["solve", "--n", "1.0", "--eta-inf", "nan"],
            ["sensitivity", "--n", "1.0", "--eta-inf", "6,nan"],
            ["table", "--n", "1.0", "--n", "-0.5"],
            ["sensitivity", "--n", "1.0", "--eta-inf", "6,0,10"],
            ["sensitivity", "--n", "1.0", "--eta-inf", "6,-8"],
            # A step too small to reach --n-to in MAX_TABLE_ROWS rows, or
            # to move v at all, fails before any row is solved.
            ["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-300"],
            ["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-9"],
            ["table", "--n-from", "1e17", "--n-to", "1e17", "--n-step", "1"],
            # Rows keep 12 digits, so this step would repeat every other row.
            ["table", "--n-from", "1", "--n-to", "1.00000001", "--n-step", "5e-12"],
            ["verify", "--n", "1.0", "--tol", "nan"],
            ["verify", "--n", "1.0", "--tol", "inf"],
            ["verify", "--n", "1.0", "--tol", "-1"],
        ],
    )
    def test_out_of_range_number_is_usage_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "must be finite and > 0" in err

    @pytest.mark.parametrize("sub", ["solve", "table", "verify", "sensitivity", "profile"])
    def test_help_names_the_exponent_floor(self, capsys, sub):
        # Below ode_core.N_MIN the solve refuses the exponent (exit 1).
        code, out, _ = _run(capsys, [sub, "--help"])
        assert code == 0
        assert f"--n N power-law exponent, at least ode_core.N_MIN = {ode_core.N_MIN:g}" in " ".join(out.split())

    def test_missing_subcommand(self, capsys):
        assert _run(capsys, [])[0] == 2

    def test_unknown_flag(self, capsys):
        assert _run(capsys, ["solve", "--n", "1.0", "--bogus"])[0] == 2


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _log_number(lo, hi):
    """Log-uniform in [lo, hi], so that every decade is drawn as often."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp).map(repr)


# Boundaries are drawn up to the largest finite float: without a step cap a
# far boundary costs a few hundred more steps, not steps in proportion to it,
# and near 1.7e308 F* itself overflows.  Valid values keep each example to
# milliseconds: table requests of at most six rows, and tolerances in
# [1e-12, 1e-6], log-uniform.  Those looser than 1e-11 were slow while the
# projector's cutoff was a fixed 1e-10: at n > 1 the flux stalled above it.
# The cutoff now follows abs_tol.
_VALID = {
    # A few extreme exponents: the shooting start trial ends with
    # f'(eta_inf) <= 0 (no Newton step) for n >~ 50, and at 3000 the flux
    # g^n overflows for g above ~1.27, which small boundaries need.
    "--n": st.one_of(_number(0.1, 2.5), st.sampled_from(["50", "300", "3000"])),
    "--n-from": _number(0.1, 2.5),
    "--n-to": _number(0.1, 2.5),
    "--n-step": _number(0.5, 2.0),
    "--eta-inf": st.one_of(_log_number(0.01, 1.7e308), st.just("inf")),
    "--c0": _number(0.1, 10.0),
    "--rtol": _log_number(1e-12, 1e-6),
    "--atol": _log_number(1e-12, 1e-6),
    "--tol": _number(1e-16, 1e-3),
    "--method": st.sampled_from(["nitm", "shooting", "both"]),
    "--format": st.sampled_from(["csv", "json"]),
    "--columns": st.sampled_from(["eta,fpp", "eta,f,fp,fpp,eta_star"]),
}
_SENSITIVITY_ETAS = st.lists(_VALID["--eta-inf"], min_size=1, max_size=3).map(",".join)
_OUT_OF_RANGE = st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "-inf", "1e400"])
_NON_NUMERIC = st.sampled_from(["abc", "", "1.0.0", "0x1p", "vorticity"])
# Kinds of value of each flag in a malformed draw.
_KINDS = st.sampled_from(("valid",) * 10 + ("missing",) * 3 + ("out of range", "non-numeric"))
_COMMON = ("--eta-inf", "--c0", "--rtol", "--atol")
_RANGE = ("--n-from", "--n-to", "--n-step")
_FLAGS = {
    "solve": ("--n", *_COMMON),
    "table": ("--n", *_RANGE, "--method", "--format", *_COMMON),
    "verify": ("--n", "--tol", *_COMMON),
    "sensitivity": ("--n", *_COMMON),
    "profile": ("--n", "--columns", *_COMMON),
}


def _valid(sub, flag):
    return _SENSITIVITY_ETAS if (sub, flag) == ("sensitivity", "--eta-inf") else _VALID[flag]


@st.composite
def _argv(draw):
    """Four draws in five are well formed: --n (for table, --n or a whole
    --n-from <= --n-to range) and any of the other flags, all with valid
    values, so that the subcommand runs and exits 0 or 1.  The fifth draws
    each flag missing, valid, out of range or not a number, and may end on a
    flag without its value."""
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [sub]
    if draw(st.integers(0, 4)) == 0:
        for flag in _FLAGS[sub]:
            kind = draw(_KINDS)
            if kind == "missing":
                continue
            if kind == "valid":
                value = draw(_valid(sub, flag))
            else:
                value = draw(_OUT_OF_RANGE if kind == "out of range" else _NON_NUMERIC)
            argv += [flag, value]
        if draw(st.integers(0, 4)) == 0:
            argv.append(draw(st.sampled_from(_FLAGS[sub])))  # a flag without its value
        return argv
    required = _RANGE if sub == "table" and draw(st.booleans()) else ("--n",)
    for flag in _FLAGS[sub]:
        if flag in required or (flag not in _RANGE and draw(st.booleans())):
            argv += [flag, draw(_valid(sub, flag))]
    if "--n-from" in argv:
        i, j = argv.index("--n-from") + 1, argv.index("--n-to") + 1
        argv[i], argv[j] = sorted((argv[i], argv[j]), key=float)
    return argv


#: Inputs that once broke the exit-code contract, run before the drawn ones.
#: The 1e300 pair asks for the boundary 1e300 at n = 0.01, which `solve` and
#: `sensitivity` both answer (a trial stage of the latter overflows, and the
#: stepper rejects it).  Then a row refused below `ode_core.N_MIN` beside an
#: answered one (exit 1), and two untruncated answers: boundaries that map
#: past and to `ode_core.ETA_FAR`, and shooting to it from G_START.
_EXAMPLES = [
    ["table", "--method", "shooting", "--n", "300"],
    ["verify", "--n", "3000"],
    ["verify", "--n", "1", "--eta-inf", "1e-6"],
    ["table", "--n-from", "0.1", "--n-to", "2", "--n-step", "1e-300"],
    ["solve", "--n", "1e-20"],
    ["solve", "--n", "5", "--eta-inf", "1e-210"],
    ["solve", "--n", "1", "--eta-inf", "1e-180"],
    ["sensitivity", "--n", "1", "--eta-inf", "1e-250,10"],
    ["solve", "--n", "2", "--eta-inf", "1e-250"],
    ["profile", "--n", "2", "--eta-inf", "1e-250"],
    ["sensitivity", "--n", "2", "--eta-inf", "1e-250,10"],
    ["solve", "--n", "1", "--eta-inf", "1.7e308"],
    ["solve", "--n", "3000", "--c0", "0.25"],
    ["solve", "--n", "3000", "--c0", "10"],
    ["sensitivity", "--n", "0.01", "--eta-inf", "10,1e300"],
    ["solve", "--n", "0.01", "--eta-inf", "1e300"],
    ["table", "--n", "1e-13", "--n", "1"],
    ["sensitivity", "--n", "1", "--eta-inf", "1e31,inf"],
    ["table", "--method", "shooting", "--n", "3000", "--eta-inf", "inf"],
]


class TestExitCodeProperty:
    def test_exit_code_contract(self):
        exits = set()  # (subcommand, exit code) of every drawn argv

        # Every example takes milliseconds; the deadline catches a run that
        # steps in place (seconds) even where it would still exit 1.
        @settings(max_examples=100, deadline=1000, derandomize=True)
        @given(argv=_argv())
        def check(argv):
            # cli.run must map every input to 0, 1 or 2 and raise nothing.
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if argv not in _EXAMPLES:
                exits.add((argv[0], code))

        for argv in _EXAMPLES:
            check = example(argv=argv)(check)
        check()
        # The draws reach the solver: each subcommand answers at least once.
        assert {sub for sub, code in exits if code == 0} == set(_FLAGS), sorted(exits)
