"""Iterative shooting solution of the power-law boundary-layer BVP.

Root-finds on the unknown wall curvature g, each trial one wall IVP
(`ode_core.integrate`), so that the integrated slope reaches one at the
truncated boundary: guarded Newton steps on (log g, log f'(eta_inf)) whose
slope each trial reads off its own last node through the scaling group.
The converged trial's profile is the result, so the root is not integrated
again.  The first trial is G_START unless the caller passes a `start`, such
as the non-iterative route's f''(0) when shooting checks it.  The start and
the group only choose trials; convergence is the residual test against
ROOT_TOL on shooting's own integration, so an accepted start means that
value satisfies the physical BVP, and shooting works at every n > 0
including n = 1/2 and n = 2.
"""

import math
import sys
from collections import namedtuple

from .ode_core import (
    ETA_FAR,
    IntegratorConfig,
    OdeError,
    SolutionProfile,
    curvature_from_flux,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    require_boundary,
    require_positive,
)


class BracketError(OdeError):
    """No sign change found for the shooting residual."""


class ConvergenceError(OdeError):
    """Trial budget, or the floats in the bracket, exhausted before the
    residual tolerance was met."""


#: Default first trial wall curvature, the tolerance on |f'(eta_inf) - 1|
#: and the budget of trials after the first.
G_START = 0.5
ROOT_TOL = 1e-12
MAX_ITERS = 100

# Largest log g whose exp is finite.
_LOG_MAX = math.log(sys.float_info.max)


class ShootingConfig(
    namedtuple("ShootingConfig", "eta_inf integrator", defaults=(10.0, IntegratorConfig()))
):
    """The boundary `eta_inf` where f' = 1 is imposed, or inf for the
    untruncated problem (imposed at `ETA_FAR`), and the integrator."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __init__(self, *args, **kwargs) -> None:
        require_boundary("eta_inf", self.eta_inf)


ShootingResult = namedtuple("ShootingResult", "fpp0 residual iterations profile start_residual")


def shoot_residual(
    n: float, guess: float, config: ShootingConfig = ShootingConfig()
) -> tuple[float, SolutionProfile]:
    """Residual f'(eta_inf) - 1 of the trial wall curvature `guess`, and its
    profile; an infinite eta_inf is integrated to ETA_FAR."""
    require_positive("trial curvature", guess)
    project = flux_nonnegative_projector(n)
    eta_end = ETA_FAR if config.eta_inf == math.inf else config.eta_inf
    profile = integrate(flux_system(n), n, guess, eta_end, config.integrator, project)
    return profile.final.fp - 1.0, profile


def _group_slope(n: float, profile: SolutionProfile) -> float:
    """d log f'(eta_inf) / d log g at the trial whose profile this is.

    With F a solution, f = a F(b eta) for a = e^((2n-1)t), b = e^((2-n)t)
    (so a^(n-2) b^(2n-1) = 1) is one too, of wall curvature g e^(3t) and slope
    e^((n+1)t) F'(b eta_inf) at the boundary; at t = 0 that gives
    (n + 1)/3 + (2 - n)/3 * eta_inf f''(eta_inf) / f'(eta_inf), read from the
    last node.  Exact at n = 2; at n = 1 the second term is below 1e-30.
    """
    end = profile.final
    return (n + 1.0 + (2.0 - n) * end.eta * curvature_from_flux(end.w, n) / end.fp) / 3.0


def solve_shooting(
    n: float, config: ShootingConfig = ShootingConfig(), start: float | None = None
) -> ShootingResult:
    """Guarded Newton iteration on (log g, log f'(eta_inf)) from the trial
    `start` (G_START when None).

    Each step uses the `_group_slope` of the trial just integrated.  The
    residual increases with g, so each trial tightens the bracket (lo, hi) on
    its side of the root.  Where the step leaves the bracket or exp's range,
    the slope is not positive, f'(eta_inf) is 0 (no log), or the last Newton
    step did not halve |log f'(eta_inf)|, the next trial bisects in log space
    once both sides are known and before that doubles or halves g (at most 4
    times, else BracketError).  The accepted trial's profile is returned, so
    the root is never integrated twice.  A start within ROOT_TOL is returned
    as it is (0 iterations); `start_residual` records how far it was off.
    A trial that repeats an earlier one stops the search with
    ConvergenceError, which names the bracket ends when no float lies between
    them and otherwise the repeated g.
    """
    start = G_START if start is None else start
    require_positive("start", start)
    g, lo, hi, expansions, v_newton = start, -math.inf, math.inf, 0, math.inf
    ends = {}  # residual < 0 -> g of the latest trial on that side
    tried = {}  # g -> residual of every trial made
    for iteration in range(MAX_ITERS + 1):
        residual, profile = shoot_residual(n, g, config)
        if iteration == 0:
            start_residual = residual
        if abs(residual) <= ROOT_TOL:
            return ShootingResult(g, residual, iteration, profile, start_residual)

        fp = profile.final.fp
        u, v = math.log(g), math.log(fp) if fp > 0.0 else math.nan
        lo, hi = (u, hi) if residual < 0.0 else (lo, u)
        ends[residual < 0.0], tried[g] = g, residual
        # No Newton step where f'(eta_inf) is 0 (a tiny trial curvature can
        # underflow the flux) and v is NaN, or after a Newton step that did
        # not halve |v| (its slope is off); a NaN step fails the guard.
        newton = abs(v) <= 0.5 * abs(v_newton)
        slope = _group_slope(n, profile) if newton else math.nan
        step, v_newton = (u - v / slope if slope > 0.0 else math.nan), math.inf
        # Compared in log space, so exp cannot overflow.
        if max(lo, -_LOG_MAX) < step < min(hi, _LOG_MAX):
            g, v_newton = math.exp(step), v
        elif math.isfinite(lo) and math.isfinite(hi):
            g = math.exp(0.5 * (lo + hi))
        elif expansions < 4:
            g = 2.0 * g if residual < 0.0 else 0.5 * g
            expansions += 1
        else:
            raise BracketError(
                f"no sign change after {expansions} expansions from g = {start} (n = {n})"
            )
        # A repeated trial would give the same residual again: stop at the
        # first, from a Newton step or a bisection.  No float between lo and
        # hi means the ends are adjacent in log g, where the search bisects.
        if g in tried:
            if math.nextafter(lo, hi) == hi:
                g_lo, g_hi = ends[True], ends[False]
                cause = (
                    f"no float lies between g = {g_lo!r} (residual {tried[g_lo]:.3g}) and "
                    f"g = {g_hi!r} (residual {tried[g_hi]:.3g}) in log g"
                )
            else:
                cause = f"trial g = {g!r} (residual {tried[g]:.3g}) repeats"
            raise ConvergenceError(f"{cause}, so |residual| <= {ROOT_TOL} cannot be met (n = {n})")

    raise ConvergenceError(
        f"no convergence to |residual| <= {ROOT_TOL} in {iteration} iterations"
    )
