"""Accuracy against an independent integrator: SciPy's DOP853 at rtol 1e-14
over the same field, with max(w, 0) in place of the flux pin, so with no
cutoff at all.  At n = 1.05, 1.2, 1.7, 2.0 and 2.5 it agrees with the
untruncated Crocco-form values to <= 4.7e-13."""

import warnings

import pytest

from blasius_powerlaw.nitm import solve
from blasius_powerlaw.report import boundary_sensitivity
from blasius_powerlaw.shooting import solve_shooting

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_optimize = pytest.importorskip("scipy.optimize")


def _reference_slope(n, fpp0, eta_end):
    """f'(eta_end) of the wall IVP f = f' = 0, f'' = fpp0 at exponent n."""
    inv_n, inv_np1 = 1.0 / n, 1.0 / (n + 1.0)

    def field(eta, y):
        fpp = max(y[2], 0.0) ** inv_n
        return (y[1], fpp, -y[0] * fpp * inv_np1)

    with warnings.catch_warnings():
        # SciPy raises an rtol below 100 ulp to that floor, with a warning.
        warnings.simplefilter("ignore", UserWarning)
        sol = scipy_integrate.solve_ivp(
            field, (0.0, eta_end), (0.0, 0.0, fpp0**n), method="DOP853", rtol=1e-14, atol=1e-22
        )
    # At large n, w^(1/n) is nearly a step where the layer extinguishes, and
    # DOP853 stops there with its step below the float spacing; the slope
    # the rest of the decay would add, (n + 1) w / f, is then below 1e-14.
    f, fp, w = sol.y[:, -1]
    assert sol.success or (n + 1.0) * w / f < 1e-14, sol.message
    return float(fp)


def test_one_ivp_answer_matches_the_reference():
    # The star IVP from c0 = 1 to eta* = 10, recovered as F'_inf^(-3/(n+1)).
    # For n >= 1 the worst measured is 3.1e-13 (n = 1); 7.2e-13 with the
    # Dormand-Prince pair, 2.2e-11 while the pin dropped the slope it cuts.
    # Below n = 1, where the pin never fires, the error grows as n falls:
    # 2.4e-13 at n = 0.9 to 2.2e-12 at n = 0.1 (6.3e-13 to 5.0e-12 with
    # Dormand-Prince).  Each range is bounded at about twice its worst.
    errors = {}
    for n in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.05, 1.2, 1.5, 1.7, 2.0, 2.5):
        reference = _reference_slope(n, 1.0, 10.0) ** (-3.0 / (n + 1.0))
        errors[n] = abs(solve(n).fpp0 - reference) / reference
    assert max(e for n, e in errors.items() if n < 1.0) <= 5e-12, errors
    assert max(e for n, e in errors.items() if n >= 1.0) <= 7e-13, errors


def test_sensitivity_boundaries_match_the_reference():
    # The boundaries of `sensitivity` read off one star IVP with a node at
    # each.  Worst measured below n = 1 is 2.4e-12 (n = 0.1, eta* = 40).  At
    # n >= 1 every entry is <= 3.5e-13 but one, 2.6e-12 at n = 1.0 and
    # eta* = 8: the pin fires at star eta = 7.95 and gives back the slope of
    # the whole tail beyond it, while the reference run to 8 stops short of
    # that tail.
    etas = [6.0, 8.0, 10.0, 15.0, 20.0, 40.0]
    errors = {}
    for n in (0.1, 0.3, 0.5, 0.7, 1.0, 1.2, 1.7, 2.0, 2.5):
        for eta, fpp0, error in boundary_sensitivity(n, etas):
            assert error is None, (n, eta, error)
            reference = _reference_slope(n, 1.0, eta) ** (-3.0 / (n + 1.0))
            errors[n, eta] = abs(fpp0 - reference) / reference
    assert max(errors.values()) <= 5e-12, errors


def test_shooting_at_large_exponent_matches_the_reference():
    # brentq on the reference residual; 4.4e-16 off measured (4.1e-15 with
    # the Dormand-Prince pair), 4.7e-10 while the pin dropped the slope it cuts.
    root = scipy_optimize.brentq(
        lambda g: _reference_slope(50.0, g, 10.0) - 1.0, 0.85, 0.95, xtol=1e-17, rtol=8.9e-16
    )
    assert abs(solve_shooting(50.0).fpp0 - root) <= 1e-13
