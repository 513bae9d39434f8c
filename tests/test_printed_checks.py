"""Every printed number checked from the printed text alone: each test reads
only `cli.run`'s stdout, never the package's results, and re-derives what it
prints from relations of the equation and its scaling group."""

import csv
import io
import json
import math

import pytest

from blasius_powerlaw.cli import run

EXPONENTS = [k / 10 for k in range(1, 26)]


def _stdout(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", EXPONENTS)
def test_solve_group_values_follow_from_the_printed_slope(capsys, n):
    # f = a F(b eta) with a b F'_inf = 1 and a^(n-2) b^(2n-1) = 1 gives each
    # printed value as a power of the printed F'_inf.  Worst measured is 3 ulp
    # (3.9e-16 relative, fpp0 at n = 2.4).
    doc = json.loads(_stdout(capsys, ["solve", "--n", repr(n)]))
    slope = doc["fp_star_inf"]
    expected = {
        "fpp0": slope ** (-3.0 / (n + 1.0)),
        "lambda": slope ** ((2.0 * n - 1.0) / (n + 1.0)),
        "eta_inf_physical": doc["eta_star_inf"] * slope ** ((2.0 - n) / (n + 1.0)),
    }
    for key, value in expected.items():
        assert abs(doc[key] - value) <= 4 * math.ulp(value), (key, doc[key], value)
    assert doc["delta"] == (None if n == 0.5 else (n - 2.0) / (2.0 * n - 1.0))


@pytest.mark.parametrize("eta_star, bound", [("10", 1.6e-8), ("40", 2.9e-8)])
@pytest.mark.parametrize("n", EXPONENTS)
def test_profile_satisfies_the_momentum_integral(capsys, n, eta_star, bound):
    # Integrating w' = -f f''/(n+1) over [0, eta_inf] by parts, with
    # f'(eta_inf) = 1: f''(0)^n - w(eta_inf) = [f(eta_inf) - int f'^2]/(n+1),
    # w = |f''|^(n-1) f''.  The integral is the corrected trapezoid over the
    # printed rows, h/2 (g0 + g1) + h^2/12 (g0' - g1'), with g = f'^2 and
    # g' = 2 f' f''.  Worst measured is 8.0e-9 at eta* = 10 and 1.43e-8 at
    # eta* = 40, both at n = 0.1; each bound is twice that.  The boundary
    # stays finite: at eta* = inf, f(eta_inf) and the integral are both
    # about 1e30, and their difference cancels to nothing.
    argv = ["profile", "--n", repr(n), "--eta-inf", eta_star, "--columns", "eta,f,fp,fpp"]
    _, *rows = csv.reader(io.StringIO(_stdout(capsys, argv)))
    rows = [tuple(map(float, row)) for row in rows]
    integral = 0.0
    for (eta0, _, fp0, fpp0), (eta1, _, fp1, fpp1) in zip(rows, rows[1:]):
        h = eta1 - eta0
        integral += h / 2 * (fp0 * fp0 + fp1 * fp1) + h * h / 12 * (2 * fp0 * fpp0 - 2 * fp1 * fpp1)
    _, f_end, _, fpp_end = rows[-1]
    lhs = rows[0][3] ** n - math.copysign(abs(fpp_end) ** n, fpp_end)
    rhs = (f_end - integral) / (n + 1.0)
    assert abs(lhs - rhs) <= bound * abs(lhs)


@pytest.mark.parametrize("n", EXPONENTS)
def test_profile_is_the_group_image_of_its_star_columns(capsys, n):
    # f = a F(b eta): eta = eta*/b, f = a F, f' = a b F', f'' = a b^2 F'',
    # with a = 1/lambda and b = F'_inf^((n-2)/(n+1)) from solve's JSON.
    # Worst measured is 2.7e-16 relative (eta exact); bound 4 ulp.
    doc = json.loads(_stdout(capsys, ["solve", "--n", repr(n)]))
    a, b = 1.0 / doc["lambda"], doc["fp_star_inf"] ** ((n - 2.0) / (n + 1.0))
    _, *rows = csv.reader(io.StringIO(_stdout(capsys, ["profile", "--n", repr(n)])))
    rows = [tuple(map(float, row)) for row in rows]
    for eta, f, fp, fpp, eta_star, f_star, fp_star, fpp_star in rows:
        assert eta == eta_star / b
        for value, image in ((f, a * f_star), (fp, a * b * fp_star), (fpp, a * b * b * fpp_star)):
            assert abs(value - image) <= 4 * math.ulp(image), (eta, value, image)
    # The far field holds on the last row, and the wall row prints fpp0.
    assert abs(rows[-1][2] - 1.0) <= math.ulp(1.0)
    assert rows[0][3] == doc["fpp0"]


def test_table_both_cells_follow_from_solve_and_each_other(capsys):
    # Each row's one-IVP answer is solve's, and its discrepancy is
    # |nitm - shooting| / |shooting| of the two printed answers, exactly.
    argv = ["table", "--n-from", "0.1", "--n-to", "2.5", "--n-step", "0.1", "--method", "both", "--format", "json"]
    rows = json.loads(_stdout(capsys, argv))["rows"]
    assert [row["n"] for row in rows] == EXPONENTS
    for row in rows:
        solved = json.loads(_stdout(capsys, ["solve", "--n", repr(row["n"])]))
        nitm, shooting = row["fpp0_nitm"], row["fpp0_shooting"]
        assert nitm == solved["fpp0"]
        assert row["discrepancy"] == abs(nitm - shooting) / abs(shooting)
