"""Iterative shooting solution of the power-law boundary-layer BVP.

Root-finds on the unknown wall curvature, each trial one wall IVP
(`ode_core.integrate`), so that the integrated slope reaches one at the
truncated boundary: a secant in log-log coordinates (log of the curvature
against log of the far-field slope), guarded by a sign-change bracket with
bisection as fallback.  The converged trial's profile is the result, so the
root is not integrated again.  The coordinates only choose the next trial;
convergence is the residual test against ROOT_TOL, and shooting needs no
scaling invariance, so it works at every n > 0 including n = 1/2 and n = 2,
and serves as the independent check on the non-iterative route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ode_core import (
    IntegratorConfig,
    OdeError,
    SolutionProfile,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    require_positive,
)


class BracketError(OdeError):
    """No sign change found for the shooting residual."""


class ConvergenceError(OdeError):
    """Iteration budget exhausted before the residual tolerance was met."""


#: Initial bracket on the trial wall curvature, the tolerance on
#: |f'(eta_inf) - 1| and the budget of secant/bisection iterations.
BRACKET_LO, BRACKET_HI = 0.05, 1.5
ROOT_TOL = 1e-12
MAX_ITERS = 100


@dataclass(frozen=True)
class ShootingConfig:
    eta_inf: float = 10.0
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self) -> None:
        require_positive("eta_inf", self.eta_inf)


@dataclass(frozen=True)
class ShootingResult:
    fpp0: float
    residual: float
    iterations: int
    profile: SolutionProfile


def shoot_residual(
    n: float, guess: float, config: ShootingConfig | None = None
) -> tuple[float, SolutionProfile]:
    """Residual f'(eta_inf) - 1 of the trial wall curvature `guess`, and its profile."""
    config = config or ShootingConfig()
    require_positive("trial curvature", guess)
    profile = integrate(
        flux_system(n), n, guess, config.eta_inf, config.integrator, flux_nonnegative_projector()
    )
    return profile.final.fp - 1.0, profile


def _log_slope(residual: float) -> float | None:
    """log f'(eta_inf) = log1p(residual), or None where f'(eta_inf) is 0.

    f'' >= 0 keeps f'(eta_inf) >= 0, but a tiny trial curvature can leave it
    exactly 0 in floating point (the flux underflows, or f' ends below the
    rounding of 1 + residual); such a trial has no log and forces bisection.
    """
    return math.log1p(residual) if residual > -1.0 else None


def solve_shooting(n: float, config: ShootingConfig | None = None) -> ShootingResult:
    """Bracket-guarded secant in log-log coordinates on the shooting residual.

    The initial bracket is expanded (up to 4 doublings each way) if the
    residual does not change sign across it.  Each step is a secant on
    (log g, log f'(eta_inf)) for the trial curvature g, which is nearly
    linear because on an unbounded domain f'(inf) is a power of g; a
    candidate outside the bracket, or a trial whose f'(eta_inf) is 0 and so
    has no log, falls back to bisection.  The result
    carries the profile of the trial whose residual was accepted, so the
    root is never integrated twice.
    """
    config = config or ShootingConfig()
    lo, hi = BRACKET_LO, BRACKET_HI
    f_lo, p_lo = shoot_residual(n, lo, config)
    f_hi, p_hi = shoot_residual(n, hi, config)

    # The residual increases with the trial curvature, so push the offending end.
    expansions = 0
    while f_lo * f_hi > 0.0 and expansions < 4:
        if f_hi < 0.0:
            hi *= 2.0
            f_hi, p_hi = shoot_residual(n, hi, config)
        else:
            lo /= 2.0
            f_lo, p_lo = shoot_residual(n, lo, config)
        expansions += 1
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change in [{lo}, {hi}] after {expansions} expansions (n = {n})"
        )

    if abs(f_lo) <= ROOT_TOL:
        return ShootingResult(lo, f_lo, 0, p_lo)
    if abs(f_hi) <= ROOT_TOL:
        return ShootingResult(hi, f_hi, 0, p_hi)

    u_prev, v_prev = math.log(lo), _log_slope(f_lo)
    u_curr, v_curr = math.log(hi), _log_slope(f_hi)
    for iteration in range(1, MAX_ITERS + 1):
        # Secant proposal, guarded by the bracket; bisection as fallback.
        x_next = None
        if v_curr is not None and v_prev is not None and v_curr != v_prev:
            cand = u_curr - v_curr * (u_curr - u_prev) / (v_curr - v_prev)
            # Compared in log space, so exp cannot overflow.
            if math.log(lo) < cand < math.log(hi):
                x_next = math.exp(cand)
        if x_next is None:
            x_next = 0.5 * (lo + hi)
        f_next, profile = shoot_residual(n, x_next, config)

        if abs(f_next) <= ROOT_TOL:
            return ShootingResult(x_next, f_next, iteration, profile)

        if f_lo * f_next < 0.0:
            hi, f_hi = x_next, f_next
        else:
            lo, f_lo = x_next, f_next
        u_prev, v_prev = u_curr, v_curr
        u_curr, v_curr = math.log(x_next), _log_slope(f_next)

    raise ConvergenceError(
        f"no convergence to |residual| <= {ROOT_TOL} in {MAX_ITERS} iterations"
    )
