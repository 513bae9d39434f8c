"""Parameter sweeps, truncated-boundary studies and profile export.

Sweep rows are plain data: a failed exponent becomes a row carrying an error
message instead of aborting the whole sweep; `cli` writes them out.
"""

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence

from .ode_core import DomainError, OdeError, SolutionProfile, require_positive
from . import nitm
from .nitm import NitmConfig, NitmResult, solve as nitm_solve
from .shooting import ShootingConfig, solve_shooting


PROFILE_COLUMNS = ("eta", "f", "fp", "fpp", "eta_star", "f_star", "fp_star", "fpp_star")
#: The routes `sweep_table` runs; the first is its default.
SWEEP_METHODS = ("nitm", "shooting", "both")


class SelectionError(DomainError):
    """Unknown profile column requested."""


SweepRow = namedtuple(
    "SweepRow",
    "n fpp0_nitm fpp0_shooting discrepancy method_tag eta_star_inf eta_inf_physical error",
    defaults=(None,) * 7,
)


def relative_discrepancy(fpp0_nitm: float, fpp0_shooting: float) -> float:
    """|nitm - shooting| / |shooting|: f''(0) scales like 1/eta_inf, so an
    absolute difference says nothing at a tiny or huge boundary."""
    return abs(fpp0_nitm - fpp0_shooting) / abs(fpp0_shooting)


def sweep_table(
    n_values: Sequence[float], method: str = SWEEP_METHODS[0], nitm_config: NitmConfig = NitmConfig()
) -> list[SweepRow]:
    """One row per exponent, ordered by n; per-row failures are recorded.

    A row's fields are None where it has no value; `eta_star_inf` is the
    one-IVP star boundary and `eta_inf_physical` where the row imposes f' = 1.

    `nitm_config` also sets shooting's integrator, and its physical boundary
    where a row has no one-IVP endpoint to match (method "shooting", or a
    failed one-IVP solve): eta_inf = `nitm_config.eta_star_inf`.
    """
    if len(n_values) == 0:
        raise DomainError("n_values must be non-empty")
    for n in n_values:
        require_positive("every exponent", n)
    if method not in SWEEP_METHODS:
        raise DomainError(f"unknown method {method!r}")
    rows = []
    for n in sorted(n_values):
        fields, errors = {}, []
        if method in ("nitm", "both"):
            fields["eta_star_inf"] = nitm_config.eta_star_inf
            try:
                result = nitm_solve(n, nitm_config)
                fields.update(fpp0_nitm=result.fpp0, method_tag=result.method_tag)
                # The one-IVP row satisfies f' = 1 at its rescaled endpoint,
                # so shooting must impose the far field at the same spot.
                fields["eta_inf_physical"] = result.eta_inf_physical
            except OdeError as exc:
                errors.append(f"nitm: {exc}")
        if method in ("shooting", "both"):
            eta_physical = fields.setdefault("eta_inf_physical", nitm_config.eta_star_inf)
            shooting_config = ShootingConfig(eta_physical, nitm_config.integrator)
            start = fields.get("fpp0_nitm")  # the one-IVP answer; G_START where there is none
            try:
                fields["fpp0_shooting"] = solve_shooting(n, shooting_config, start=start).fpp0
            except OdeError as exc:
                errors.append(f"shooting: {exc}")
        if "fpp0_nitm" in fields and "fpp0_shooting" in fields:
            fields["discrepancy"] = relative_discrepancy(fields["fpp0_nitm"], fields["fpp0_shooting"])
        rows.append(SweepRow(n, **fields, error="; ".join(errors) or None))
    return rows


def boundary_sensitivity(
    n: float,
    eta_inf_values: list[float],
    config: NitmConfig = NitmConfig(),
) -> list[tuple[float, float | None, str | None]]:
    """Wall curvature as a function of the truncated boundary, in input order.

    One star integration runs to the largest mapped boundary and lands a
    node on each other one, where F'(eta*) gives that boundary's f''(0).  A
    boundary fails on its own: one that does not map is left out, and if the
    pass fails, its error is recorded on the largest and the rest retried.
    """
    found = {}
    for eta in eta_inf_values:
        require_positive("every truncated boundary", eta)
        try:
            nitm.star_boundary(n, config.c0, eta)
        except OdeError as exc:
            found[eta] = (None, str(exc))
    pending = sorted(set(eta_inf_values) - found.keys())
    while pending:
        *stops, last = pending
        try:
            star = nitm.solve_star_ivp(n, config._replace(eta_star_inf=last), stops)
        except OdeError as exc:
            found[last] = (None, str(exc))
            pending = stops
            continue
        nodes, states = star.grid.nodes, star.grid.states
        for eta in pending:
            fp = states[bisect_left(nodes, nitm.star_boundary(n, config.c0, eta))][1]
            try:
                # Refuses what this boundary's solve would.
                found[eta] = (nitm.group_parameters(n, fp)[2], None)
            except OdeError as exc:
                found[eta] = (None, str(exc))
        break
    return [(eta, *found[eta]) for eta in eta_inf_values]


def select_columns(columns: tuple[str, ...]) -> tuple[str, ...]:
    """`columns`, once every name is one of PROFILE_COLUMNS (else SelectionError)."""
    for c in columns:
        if c not in PROFILE_COLUMNS:
            raise SelectionError(f"unknown column {c!r}; choose from {PROFILE_COLUMNS}")
    return columns


def export_profile(result: NitmResult, columns: tuple[str, ...] | None = None) -> str:
    """CSV (header row, LF endings) of the physical and star profiles."""
    columns = select_columns(columns or PROFILE_COLUMNS)
    profile, star = result.profile, result.star_profile
    star_fpp = star.curvatures()  # decoded once: f'' is its image, as in profile.curvatures()
    fpp = [profile.fpp_scale * c for c in star_fpp]
    data = dict(zip(PROFILE_COLUMNS, (*_columns(profile, fpp), *_columns(star, star_fpp))))
    cells = [list(map(repr, data[c])) for c in columns]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _columns(profile: SolutionProfile, fpp: list[float]) -> tuple:
    """eta, f and f' of every stored node, one sequence each, and `fpp`."""
    f, fp, _ = zip(*profile.grid.states)
    return profile.grid.nodes, f, fp, fpp
