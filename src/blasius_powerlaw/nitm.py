"""Non-iterative solution of the power-law boundary-layer BVP.

One wall IVP (`ode_core.integrate`) is integrated in scaled ("star")
variables with wall curvature c0, 1 by default.  The equation and the wall
conditions are invariant under f(eta) = a F(b eta) whenever
a^(n-2) b^(2n-1) = 1; the far-field condition a b F'_inf = 1 then fixes

    a = F'_inf^((1-2n)/(n+1)),  b = F'_inf^((n-2)/(n+1)),
    f''(0) = c0 F'_inf^(-3/(n+1)),

which are finite for every n > 0.  At n = 1/2 the group is a pure stretch of
eta, at n = 2 a pure scaling of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .ode_core import (
    FLUX_CUTOFF,
    DivergenceError,
    DomainError,
    GridSolution,
    IntegratorConfig,
    SolutionProfile,
    flux_from_curvature,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    require_positive,
)


#: Exponents whose tabulated reference rows are second-order approximations.
EXCLUDED_EXPONENTS = (0.5, 2.0)

#: Exponent step of those approximations.
EXCLUDED_STEP = 0.1


@dataclass(frozen=True)
class NitmConfig:
    eta_star_inf: float = 10.0
    c0: float = 1.0
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self) -> None:
        require_positive("eta_star_inf", self.eta_star_inf)
        require_positive("c0", self.c0)


@dataclass(frozen=True)
class NitmResult:
    n: float
    delta: float | None  # (2 - n)/(1 - 2n), unused by the solve; None at n = 1/2, +0.0 at n = 2
    lam: float  # 1/a, the classical group parameter lambda
    fpp0: float
    fp_star_inf: float
    profile: SolutionProfile
    star_profile: SolutionProfile
    method_tag: str  # "direct" or "extrapolated"


def solve_star_ivp(n: float, config: NitmConfig, stops: Sequence[float] = ()) -> SolutionProfile:
    """Integrate the scaled IVP f*(0) = f*'(0) = 0, f*''(0) = c0 to eta_star_inf,
    with a node at each of `stops`.

    A wall flux c0^n at or below FLUX_CUTOFF is refused: the projector would
    pin it to zero after the first step, F' would stop growing there, and
    f''(0) would come out wrong (1e10 for c0 = 1e-11 at n = 1).
    """
    rhs, project = flux_system(n), flux_nonnegative_projector()
    if flux_from_curvature(config.c0, n) <= FLUX_CUTOFF:
        raise DomainError(
            f"wall flux c0^n = {config.c0}^{n} is at or below the cutoff {FLUX_CUTOFF}"
        )
    return integrate(rhs, n, config.c0, config.eta_star_inf, config.integrator, project, stops)


def group_parameters(n: float, fp_star_inf: float, c0: float) -> tuple[float, float, float]:
    """Group element (a, b) of f = a F(b eta) that maps F'_inf to one, and
    the wall curvature f''(0) = c0 F'_inf^(-3/(n+1)) of the star solve
    started from F''(0) = c0.

    Raises DivergenceError unless the column factors of `rescale_profile`
    (a, a b, a^2 b, and each times b), f''(0) and its wall flux f''(0)^n
    are finite.
    """
    require_positive("far-field slope", fp_star_inf)
    try:
        a = fp_star_inf ** ((1.0 - 2.0 * n) / (n + 1.0))
        b = fp_star_inf ** ((n - 2.0) / (n + 1.0))
    except OverflowError:
        raise DivergenceError(f"a or b overflows at F'_inf = {fp_star_inf}, n = {n}") from None
    if not all(math.isfinite(x) and math.isfinite(x * b) for x in (a, a * b, a * a * b)):
        raise DivergenceError(f"a rescaling factor overflows at F'_inf = {fp_star_inf}, n = {n}")
    try:
        fpp0 = c0 * fp_star_inf ** (-3.0 / (n + 1.0))
    except OverflowError:
        fpp0 = math.inf
    if not math.isfinite(fpp0):
        raise DivergenceError(f"f''(0) overflows at F'_inf = {fp_star_inf}, c0 = {c0}, n = {n}")
    flux_from_curvature(fpp0, n)  # DivergenceError once the wall flux overflows
    return a, b, fpp0


def rescale_profile(star: SolutionProfile, a: float, b: float) -> SolutionProfile:
    """Map a star-frame profile to physical variables by f(eta) = a F(b eta).

    The group scales every column by a constant: eta = eta*/b, f = a F,
    f' = a b F', f'' = a b^2 F'', and the flux w = (a b^2)^n W = a^2 b W,
    which needs a^(n-2) b^(2n-1) = 1 (true of `group_parameters`).  The node
    derivatives (f', f'', w') scale by b times the same factors.  The
    factors must be finite, as `group_parameters` checks; a column they
    overflow (a large wall flux c0^n, say) raises DivergenceError.
    """
    s = np.array([a, a * b, a * a * b])
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ts, ys, dys = star.grid.ts / b, star.grid.ys * s, star.grid.dys * (b * s)
    except FloatingPointError:
        raise DivergenceError(f"physical profile overflows at a = {a}, b = {b}") from None
    return SolutionProfile(GridSolution(ts, ys, dys), star.n)


def solve(n: float, config: NitmConfig | None = None) -> NitmResult:
    """One-IVP solve: star integration, group recovery, rescaling."""
    config = config or NitmConfig()
    star = solve_star_ivp(n, config)
    fp_star_inf = star.final.fp
    a, b, fpp0 = group_parameters(n, fp_star_inf, config.c0)
    return NitmResult(
        n=n,
        delta=None if n == 0.5 else (n - 2.0) / (2.0 * n - 1.0),
        lam=1.0 / a,
        fpp0=fpp0,
        fp_star_inf=fp_star_inf,
        profile=rescale_profile(star, a, b),
        star_profile=star,
        method_tag="direct",
    )


solve_nitm = solve


def solve_excluded(n: float, config: NitmConfig | None = None) -> NitmResult:
    """Second-order approximation from neighbouring exponents, n = 1/2 or 2.

    Reproduces the tabulated reference rows at these exponents; `solve`
    computes them directly.  n = 1/2 takes the central average of the
    n -+ EXCLUDED_STEP solves (error O(step^2)); n = 2 is approached from
    below only, via a quadratic through n - step, n - 2 step, n - 3 step.
    Only fpp0 is approximated: the rest of the result is `solve(n)`'s.
    """
    config = config or NitmConfig()
    if n not in EXCLUDED_EXPONENTS:
        raise DomainError(f"n = {n} is not one of {EXCLUDED_EXPONENTS}")
    eps = EXCLUDED_STEP
    nodes = [n - eps, n + eps] if n == 0.5 else [n - 3 * eps, n - 2 * eps, n - eps]
    values = [solve(x, config).fpp0 for x in nodes]
    if n == 0.5:
        fpp0 = 0.5 * (values[0] + values[1])
    else:
        fpp0 = float(np.polyval(np.polyfit(nodes, values, 2), n))
    return replace(solve(n, config), fpp0=fpp0, method_tag="extrapolated")


def profile_ode_residuals(profile: SolutionProfile) -> np.ndarray:
    """Governing-equation residual dw/deta + f f''/(n+1) at interior nodes.

    dw/deta is estimated by a centered (three-point, nonuniform) finite
    difference of the stored flux, so the result is limited by the grid
    spacing, not just the integration tolerance.
    """
    n = profile.n
    t = profile.grid.ts
    w = profile.grid.ys[:, 2]
    f = profile.grid.ys[:, 0]
    fpp = profile.curvatures()
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    dw = (
        -h2 / (h1 * (h1 + h2)) * w[:-2]
        + (h2 - h1) / (h1 * h2) * w[1:-1]
        + h1 / (h2 * (h1 + h2)) * w[2:]
    )
    return dw + f[1:-1] * fpp[1:-1] / (n + 1.0)
