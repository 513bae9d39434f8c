"""The record contract: every result and config type is a named tuple with a
fixed name, module, field list, defaults and repr, that pickles, keeps its
class through `_replace` and carries no instance `__dict__` (except
`GridSolution`, whose NumPy views are cached there)."""

import math
import pickle

import pytest

from blasius_powerlaw.nitm import NitmConfig, NitmResult
from blasius_powerlaw.ode_core import GridSolution, IntegratorConfig, IvpState, SolutionProfile
from blasius_powerlaw.report import SweepRow
from blasius_powerlaw.shooting import ShootingConfig, ShootingResult

GRID = GridSolution([0.0, 0.5], [(0.0, 0.0, 1.0), (0.125, 0.5, 0.75)], 2, 0)
GRID_REPR = (
    "GridSolution(nodes=[0.0, 0.5], states=[(0.0, 0.0, 1.0), (0.125, 0.5, 0.75)], "
    "attempted=2, refreshes=0)"
)
PROFILE = SolutionProfile(GRID, 1.5)
PROFILE_REPR = f"SolutionProfile(grid={GRID_REPR}, n=1.5, star=None, fpp_scale=None)"
DEFAULT_INTEGRATOR_REPR = "IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, h_max=inf)"

#: (instance, module, fields, defaults, repr) of each record.
RECORDS = [
    (
        IntegratorConfig(1e-10, 1e-9, 2.0),
        "ode_core",
        ("rel_tol", "abs_tol", "h_max"),
        {"rel_tol": 1e-12, "abs_tol": 1e-12, "h_max": math.inf},
        "IntegratorConfig(rel_tol=1e-10, abs_tol=1e-09, h_max=2.0)",
    ),
    (
        NitmConfig(6.0, 2.0, IntegratorConfig()),
        "nitm",
        ("eta_star_inf", "c0", "integrator"),
        {"eta_star_inf": 10.0, "c0": 1.0, "integrator": IntegratorConfig()},
        f"NitmConfig(eta_star_inf=6.0, c0=2.0, integrator={DEFAULT_INTEGRATOR_REPR})",
    ),
    (
        ShootingConfig(7.5, IntegratorConfig()),
        "shooting",
        ("eta_inf", "integrator"),
        {"eta_inf": 10.0, "integrator": IntegratorConfig()},
        f"ShootingConfig(eta_inf=7.5, integrator={DEFAULT_INTEGRATOR_REPR})",
    ),
    (
        GRID,
        "ode_core",
        ("nodes", "states", "attempted", "refreshes"),
        {"attempted": None, "refreshes": None},
        GRID_REPR,
    ),
    (
        IvpState(0.5, 0.125, 0.5, 0.75),
        "ode_core",
        ("eta", "f", "fp", "w"),
        {},
        "IvpState(eta=0.5, f=0.125, fp=0.5, w=0.75)",
    ),
    (
        PROFILE,
        "ode_core",
        ("grid", "n", "star", "fpp_scale"),
        {"star": None, "fpp_scale": None},
        PROFILE_REPR,
    ),
    (
        NitmResult(1.5, -0.25, 2.0, 0.25, 1.5, PROFILE, "direct", 0.5, 2.0, 3.0),
        "nitm",
        ("n", "delta", "lam", "fpp0", "fp_star_inf", "star_profile", "method_tag", "a", "b",
         "eta_inf_physical"),
        {},
        "NitmResult(n=1.5, delta=-0.25, lam=2.0, fpp0=0.25, fp_star_inf=1.5, "
        f"star_profile={PROFILE_REPR}, method_tag='direct', a=0.5, b=2.0, eta_inf_physical=3.0)",
    ),
    (
        ShootingResult(0.25, 1e-13, 2, PROFILE, 0.5),
        "shooting",
        ("fpp0", "residual", "iterations", "profile", "start_residual"),
        {},
        f"ShootingResult(fpp0=0.25, residual=1e-13, iterations=2, profile={PROFILE_REPR}, "
        "start_residual=0.5)",
    ),
    (
        SweepRow(1.5, 0.25, error="shooting: x"),
        "report",
        ("n", "fpp0_nitm", "fpp0_shooting", "discrepancy", "method_tag", "eta_star_inf",
         "eta_inf_physical", "error"),
        dict.fromkeys(("fpp0_nitm", "fpp0_shooting", "discrepancy", "method_tag", "eta_star_inf",
                       "eta_inf_physical", "error")),
        "SweepRow(n=1.5, fpp0_nitm=0.25, fpp0_shooting=None, discrepancy=None, method_tag=None, "
        "eta_star_inf=None, eta_inf_physical=None, error='shooting: x')",
    ),
]


@pytest.mark.parametrize(
    "record, module, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_contract(record, module, fields, defaults, text):
    cls = type(record)
    assert cls.__name__ == text.partition("(")[0]
    assert cls.__module__ == f"blasius_powerlaw.{module}"
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(record) == text
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert type(record._replace(**{fields[0]: record[0]})) is cls
    assert hasattr(record, "__dict__") == (cls is GridSolution)
