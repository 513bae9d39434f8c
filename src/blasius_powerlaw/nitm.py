"""Non-iterative solution of the power-law boundary-layer BVP.

One wall IVP (`ode_core.integrate`) is integrated in scaled ("star")
variables from F''(0) = 1, to `star_boundary`.  The equation and the wall
conditions are invariant under f(eta) = a F(b eta) whenever
a^(n-2) b^(2n-1) = 1; the far-field condition a b F'_inf = 1 then fixes

    a = F'_inf^((1-2n)/(n+1)),  b = F'_inf^((n-2)/(n+1)),  f''(0) = a b^2,

which are finite for every n > 0.  At n = 1/2 the group is a pure stretch of
eta, at n = 2 a pure scaling of f.
"""

import math
from collections import namedtuple
from collections.abc import Sequence

from .ode_core import (
    DivergenceError,
    DomainError,
    GridSolution,
    IntegratorConfig,
    SolutionProfile,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    require_positive,
)


#: Exponent step of the second-order approximations at EXCLUDED_EXPONENTS.
EXCLUDED_STEP = 0.1

#: (k, weight) of the solve at n + k EXCLUDED_STEP for each excluded n: the
#: central average at 1/2, and at 2 the quadratic through k = -3, -2, -1 at k = 0.
_EXCLUDED_WEIGHTS = {0.5: ((-1, 0.5), (1, 0.5)), 2.0: ((-3, 1.0), (-2, -3.0), (-1, 3.0))}
EXCLUDED_EXPONENTS = tuple(_EXCLUDED_WEIGHTS)


class NitmConfig(
    namedtuple("NitmConfig", "eta_star_inf c0 integrator", defaults=(10.0, 1.0, IntegratorConfig()))
):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __init__(self, *args, **kwargs) -> None:
        require_positive("eta_star_inf", self.eta_star_inf)
        require_positive("c0", self.c0)


class NitmResult(
    namedtuple("NitmResult", "n delta lam fpp0 fp_star_inf star_profile method_tag a b eta_inf_physical")
):
    """One-IVP answer at exponent n.  `delta` = (2 - n)/(1 - 2n) is unused by
    the solve (None at n = 1/2, +0.0 at n = 2); `lam` = 1/a is the classical
    group parameter lambda; `method_tag` is "direct" or "extrapolated"; `a`
    and `b` are the group element f(eta) = a F(b eta) of the star solve, and
    `eta_inf_physical`, its boundary over b, is the last node of `profile`."""

    __slots__ = ()

    @property
    def profile(self) -> SolutionProfile:
        """The physical profile, rescaled from `star_profile` on every read."""
        return rescale_profile(self.star_profile, self.a, self.b)


def star_boundary(n: float, c0: float, eta: float) -> float:
    """c0^((2-n)/3) eta, whose F''(0) = 1 star solve is the group image of F''(0) = c0's to eta."""
    try:
        mapped = c0 ** ((2.0 - n) / 3.0) * eta
    except OverflowError:
        mapped = math.inf
    if not 0.0 < mapped < math.inf:
        raise DivergenceError(f"star boundary c0^((2-n)/3) eta* out of range at c0 = {c0}, n = {n}")
    return mapped


def solve_star_ivp(n: float, config: NitmConfig, stops: Sequence[float] = ()) -> SolutionProfile:
    """Integrate F(0) = F'(0) = 0, F''(0) = 1 to `star_boundary`, with a node at each stop mapped alike."""
    rhs, project = flux_system(n), flux_nonnegative_projector(n)
    eta_end, *nodes = (star_boundary(n, config.c0, eta) for eta in (config.eta_star_inf, *stops))
    return integrate(rhs, n, 1.0, eta_end, config.integrator, project, nodes)


def group_parameters(n: float, fp_star_inf: float) -> tuple[float, float, float]:
    """Group element (a, b) of f = a F(b eta) that maps F'_inf to one, and
    the wall curvature f''(0) = a b^2 of the star solve started from
    F''(0) = 1, formed as `rescale_profile` forms its f'' factor.

    Raises DivergenceError unless the four factors of `rescale_profile`,
    a, a b, a^2 b and a b^2, are finite.
    """
    require_positive("far-field slope", fp_star_inf)
    try:
        a = fp_star_inf ** ((1.0 - 2.0 * n) / (n + 1.0))
        b = fp_star_inf ** ((n - 2.0) / (n + 1.0))
    except OverflowError:
        raise DivergenceError(f"a or b overflows at F'_inf = {fp_star_inf}, n = {n}") from None
    ab = a * b
    fpp0 = ab * b
    if not all(map(math.isfinite, (a, ab, a * a * b, fpp0))):
        raise DivergenceError(f"a rescaling factor overflows at F'_inf = {fp_star_inf}, n = {n}")
    return a, b, fpp0


def _physical_boundary(star: SolutionProfile, a: float, b: float) -> float:
    """eta*/b, or DivergenceError where `rescale_profile(star, a, b)` would
    overflow.  F and F' rise from 0 and w falls from the wall, so each column
    is largest in size at an end of the star grid: four values stand for all."""
    if b != 0.0:
        eta, f, fp, _ = star.final
        values = (eta / b, a * f, a * b * fp, a * a * b * star.grid.states[0][2])
        if all(map(math.isfinite, values)):
            return values[0]
    raise DivergenceError(f"physical profile overflows at a = {a}, b = {b}")


def rescale_profile(star: SolutionProfile, a: float, b: float) -> SolutionProfile:
    """Map a star-frame profile to physical variables by f(eta) = a F(b eta).

    The group scales every column by a constant: eta = eta*/b, f = a F,
    f' = a b F', f'' = a b^2 F'', and the flux w = (a b^2)^n W = a^2 b W,
    which needs a^(n-2) b^(2n-1) = 1 (true of `group_parameters`).  The
    profile keeps `star`, so its f'' is a b^2 times the star's, not a decode
    of the scaled flux, and its wall f'' (F'' = 1) is `group_parameters`'
    f''(0) bit for bit.  The factors must be finite, as `group_parameters`
    checks; a value they overflow (the star boundary over a tiny b, say), or
    a b of zero, raises DivergenceError.  Only each column's extreme is
    checked, which relies on the star profile's monotonicity.
    """
    _physical_boundary(star, a, b)
    ab, aab = a * b, a * a * b
    nodes = [t / b for t in star.grid.nodes]
    states = [(a * f, ab * fp, aab * w) for f, fp, w in star.grid.states]
    return SolutionProfile(GridSolution(nodes, states), star.n, star, ab * b)


def solve(n: float, config: NitmConfig = NitmConfig()) -> NitmResult:
    """One-IVP solve: star integration and group recovery.  `profile` is
    rescaled on read; what would overflow it is refused here."""
    star = solve_star_ivp(n, config)
    fp_star_inf = star.final.fp
    a, b, fpp0 = group_parameters(n, fp_star_inf)
    return NitmResult(
        n=n,
        delta=None if n == 0.5 else (n - 2.0) / (2.0 * n - 1.0),
        lam=1.0 / a,
        fpp0=fpp0,
        fp_star_inf=fp_star_inf,
        star_profile=star,
        method_tag="direct",
        a=a,
        b=b,
        eta_inf_physical=_physical_boundary(star, a, b),
    )


solve_nitm = solve


def solve_excluded(n: float, config: NitmConfig = NitmConfig()) -> NitmResult:
    """Second-order approximation from neighbouring exponents, n = 1/2 or 2.

    Reproduces the tabulated reference rows at these exponents; `solve`
    computes them directly.  fpp0 is the `_EXCLUDED_WEIGHTS` sum of the
    neighbouring solves (error O(step^2); n = 2 is approached from below
    only), and the rest of the result is `solve(n)`'s.
    """
    if n not in EXCLUDED_EXPONENTS:
        raise DomainError(f"n = {n} is not one of {EXCLUDED_EXPONENTS}")
    # Not sum(): from Python 3.12 it compensates, which rounds differently.
    fpp0 = math.fsum(w * solve(n + k * EXCLUDED_STEP, config).fpp0 for k, w in _EXCLUDED_WEIGHTS[n])
    return solve(n, config)._replace(fpp0=fpp0, method_tag="extrapolated")


def profile_ode_residuals(profile: SolutionProfile) -> list[float]:
    """Governing-equation residual dw/deta + f f''/(n+1) at interior nodes.

    dw/deta is estimated by a centered (three-point, nonuniform) finite
    difference of the stored flux, so the result is limited by the grid
    spacing, not just the integration tolerance.
    """
    n, t, states = profile.n, profile.grid.nodes, profile.grid.states
    fpp = profile.curvatures()
    residuals = []
    for i in range(1, len(t) - 1):
        h1, h2 = t[i] - t[i - 1], t[i + 1] - t[i]
        dw = (
            -h2 / (h1 * (h1 + h2)) * states[i - 1][2]
            + (h2 - h1) / (h1 * h2) * states[i][2]
            + h1 / (h2 * (h1 + h2)) * states[i + 1][2]
        )
        residuals.append(dw + states[i][0] * fpp[i] / (n + 1.0))
    return residuals
