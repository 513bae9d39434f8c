"""The truncated one-IVP answers for n <= 1 against 30-digit references.

tests/mp_reference.json holds f''(0) of the star IVP run to eta* = 6, 10
and 40 in mpmath at mp.dps = 30 (tests/make_mp_reference.py, which pytest
does not collect).  Each answer is bounded at twice its relative error
measured on Python 3.11.7, x86-64, so a change that loses accuracy at any
(n, eta*) fails here.
"""

import json
import os

import pytest

from blasius_powerlaw.nitm import NitmConfig, solve

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "mp_reference.json")) as fh:
    REFERENCE = json.load(fh)["fpp0"]

# |fpp0 - ref| / ref measured at eta* = 6, 10, 40.
MEASURED = {
    "0.1": (2.10e-12, 2.22e-12, 2.47e-12),
    "0.2": (1.20e-12, 1.28e-12, 1.38e-12),
    "0.3": (8.13e-13, 8.56e-13, 9.03e-13),
    "0.4": (5.99e-13, 6.23e-13, 6.49e-13),
    "0.5": (4.69e-13, 4.84e-13, 4.99e-13),
    "0.6": (3.87e-13, 3.98e-13, 4.05e-13),
    "0.7": (3.30e-13, 3.37e-13, 3.38e-13),
    "0.8": (2.83e-13, 2.88e-13, 3.04e-13),
    "0.9": (2.44e-13, 2.47e-13, 4.79e-13),
    "1.0": (2.19e-13, 3.08e-13, 3.08e-13),
}
CASES = [(n, eta, err) for n, errs in MEASURED.items() for eta, err in zip(("6", "10", "40"), errs)]


def test_reference_covers_the_measured_cases():
    assert {(n, eta) for n, eta, _ in CASES} == {(n, eta) for n, row in REFERENCE.items() for eta in row}


@pytest.mark.parametrize("n, eta, measured", CASES, ids=[f"{n}-{eta}" for n, eta, _ in CASES])
def test_truncated_answer_matches_the_reference(n, eta, measured):
    ref = float(REFERENCE[n][eta])
    got = solve(float(n), NitmConfig(eta_star_inf=float(eta))).fpp0
    assert abs(got - ref) / ref <= 2.0 * measured
