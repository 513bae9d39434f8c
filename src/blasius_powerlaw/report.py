"""Parameter sweeps, truncated-boundary studies and profile export.

Sweep rows are plain data: a failed exponent becomes a row carrying an error
message instead of aborting the whole sweep.  Tables are rendered with six
decimals for eyeballing; JSON keeps full precision.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .ode_core import DomainError, OdeError, require_positive
from . import nitm
from .nitm import NitmConfig, NitmResult, solve as nitm_solve
from .shooting import ShootingConfig, solve_shooting


PROFILE_COLUMNS = ("eta", "f", "fp", "fpp", "eta_star", "f_star", "fp_star", "fpp_star")


class SelectionError(DomainError):
    """Unknown profile column requested."""


@dataclass(frozen=True)
class SweepSpec:
    """`nitm_config` also sets shooting's integrator, and its physical boundary
    where a row has no one-IVP endpoint to match (method "shooting", or a
    failed one-IVP solve): eta_inf = `nitm_config.eta_star_inf`."""

    n_values: tuple[float, ...]
    method: str = "nitm"  # nitm | shooting | both
    nitm_config: NitmConfig = field(default_factory=NitmConfig)

    def __post_init__(self) -> None:
        if len(self.n_values) == 0:
            raise DomainError("n_values must be non-empty")
        for n in self.n_values:
            require_positive("every exponent", n)
        if self.method not in ("nitm", "shooting", "both"):
            raise DomainError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SweepRow:
    n: float
    fpp0_nitm: float | None = None
    fpp0_shooting: float | None = None
    discrepancy: float | None = None
    method_tag: str | None = None
    eta_star_inf: float | None = None  # one-IVP star boundary
    eta_inf_physical: float | None = None  # where the row imposes f' = 1
    error: str | None = None


def relative_discrepancy(fpp0_nitm: float, fpp0_shooting: float) -> float:
    """|nitm - shooting| / |shooting|: f''(0) scales like 1/eta_inf, so an
    absolute difference says nothing at a tiny or huge boundary."""
    return abs(fpp0_nitm - fpp0_shooting) / abs(fpp0_shooting)


def sweep_table(spec: SweepSpec) -> list[SweepRow]:
    """One row per exponent, ordered by n; per-row failures are recorded."""
    rows = []
    for n in sorted(spec.n_values):
        fpp0_nitm = fpp0_shooting = discrepancy = None
        method_tag = eta_star_inf = eta_physical = None
        errors = []
        if spec.method in ("nitm", "both"):
            eta_star_inf = spec.nitm_config.eta_star_inf
            try:
                result = nitm_solve(n, spec.nitm_config)
                fpp0_nitm = result.fpp0
                method_tag = result.method_tag
                # The one-IVP row satisfies f' = 1 at its rescaled endpoint,
                # so shooting must impose the far field at the same spot.
                eta_physical = result.profile.final.eta
            except OdeError as exc:
                errors.append(f"nitm: {exc}")
        if spec.method in ("shooting", "both"):
            if eta_physical is None:
                eta_physical = spec.nitm_config.eta_star_inf
            shooting_config = ShootingConfig(eta_physical, spec.nitm_config.integrator)
            try:
                fpp0_shooting = solve_shooting(n, shooting_config).fpp0
            except OdeError as exc:
                errors.append(f"shooting: {exc}")
        if fpp0_nitm is not None and fpp0_shooting is not None:
            discrepancy = relative_discrepancy(fpp0_nitm, fpp0_shooting)
        rows.append(
            SweepRow(
                n=n,
                fpp0_nitm=fpp0_nitm,
                fpp0_shooting=fpp0_shooting,
                discrepancy=discrepancy,
                method_tag=method_tag,
                eta_star_inf=eta_star_inf,
                eta_inf_physical=eta_physical,
                error="; ".join(errors) if errors else None,
            )
        )
    return rows


def boundary_sensitivity(
    n: float,
    eta_inf_values: list[float],
    config: NitmConfig | None = None,
) -> list[tuple[float, float | None, str | None]]:
    """Wall curvature as a function of the truncated boundary, in input order.

    One star integration runs to the largest boundary and lands a node on
    each of the others, where F'(eta*) gives that boundary's f''(0).  A
    boundary fails on its own: if the pass fails, its error is recorded on
    the largest boundary and the pass is retried on the rest.
    """
    config = config or NitmConfig()
    for eta in eta_inf_values:
        require_positive("every truncated boundary", eta)
    pending = sorted(set(eta_inf_values))
    found = {}
    while pending:
        *stops, last = pending
        try:
            star = nitm.solve_star_ivp(n, replace(config, eta_star_inf=last), stops)
        except OdeError as exc:
            found[last] = (None, str(exc))
            pending = stops
            continue
        nodes = np.searchsorted(star.grid.ts, pending)
        for eta, fp in zip(pending, star.grid.ys[nodes, 1].tolist()):
            try:
                # Refuses what this boundary's solve would.
                found[eta] = (nitm.group_parameters(n, fp, config.c0)[2], None)
            except OdeError as exc:
                found[eta] = (None, str(exc))
        break
    return [(eta, *found[eta]) for eta in eta_inf_values]


def export_profile(result: NitmResult, columns: tuple[str, ...] | None = None) -> str:
    """CSV (header row, LF endings) of the physical and star profiles."""
    columns = columns or PROFILE_COLUMNS
    for c in columns:
        if c not in PROFILE_COLUMNS:
            raise SelectionError(f"unknown column {c!r}; choose from {PROFILE_COLUMNS}")
    phys = result.profile
    star = result.star_profile
    data = {
        "eta": phys.grid.ts,
        "f": phys.grid.ys[:, 0],
        "fp": phys.grid.ys[:, 1],
        "fpp": phys.curvatures(),
        "eta_star": star.grid.ts,
        "f_star": star.grid.ys[:, 0],
        "fp_star": star.grid.ys[:, 1],
        "fpp_star": star.curvatures(),
    }
    rows = np.column_stack([data[c] for c in columns]).tolist()
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _row_dict(row: SweepRow) -> dict:
    d = asdict(row)
    return {k: v for k, v in d.items() if v is not None}


def emit_json(rows: list[SweepRow], config: dict | None = None) -> str:
    """Full-precision JSON document with "config" and "rows" members."""
    doc = {"config": config or {}, "rows": [_row_dict(r) for r in rows]}
    return json.dumps(doc, indent=2)


def render_table(rows: list[SweepRow]) -> str:
    """Six-decimal CSV rendering of a sweep."""
    buf = io.StringIO()
    buf.write("n,fpp0_nitm,fpp0_shooting,discrepancy,method,eta_star_inf,eta_inf_physical,error\n")
    for r in rows:
        cells = [
            f"{r.n:g}",
            "" if r.fpp0_nitm is None else f"{r.fpp0_nitm:.6f}",
            "" if r.fpp0_shooting is None else f"{r.fpp0_shooting:.6f}",
            "" if r.discrepancy is None else f"{r.discrepancy:.2e}",
            r.method_tag or "",
            "" if r.eta_star_inf is None else f"{r.eta_star_inf:g}",
            "" if r.eta_inf_physical is None else f"{r.eta_inf_physical:g}",
            r.error or "",
        ]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
