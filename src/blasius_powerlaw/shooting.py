"""Iterative shooting solution of the power-law boundary-layer BVP.

Root-finds on the unknown wall curvature so that the integrated slope reaches
one at the truncated boundary.  Needs no scaling invariance, so it works at
every n > 0 including n = 1/2 and n = 2, and serves as the independent check
on the non-iterative route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ode_core import (
    DomainError,
    FlowParams,
    IntegratorConfig,
    IvpState,
    OdeError,
    SolutionProfile,
    flux_from_curvature,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    require_positive,
)


class BracketError(OdeError):
    """No sign change found for the shooting residual."""


class ConvergenceError(OdeError):
    """Iteration budget exhausted before the residual tolerance was met."""


@dataclass(frozen=True)
class ShootingConfig:
    eta_inf: float = 10.0
    bracket_lo: float = 0.05
    bracket_hi: float = 1.5
    root_tol: float = 1e-12
    max_iters: int = 100
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self) -> None:
        require_positive("bracket_hi", self.bracket_hi)
        if not (0.0 < self.bracket_lo < self.bracket_hi):
            raise DomainError("bracket must satisfy 0 < lo < hi")
        require_positive("root_tol", self.root_tol)
        require_positive("eta_inf", self.eta_inf)


@dataclass(frozen=True)
class ShootingResult:
    fpp0: float
    residual: float
    iterations: int
    profile: SolutionProfile


def _integrate_guess(n: float, guess: float, config: ShootingConfig) -> SolutionProfile:
    params = FlowParams(n)
    initial = IvpState(eta=0.0, f=0.0, fp=0.0, w=flux_from_curvature(guess, n))
    return integrate(
        flux_system(params),
        initial,
        config.eta_inf,
        config.integrator,
        params,
        star_frame=False,
        project=flux_nonnegative_projector(),
    )


def shoot_residual(n: float, guess: float, config: ShootingConfig | None = None) -> float:
    """Residual f'(eta_inf) - 1 of the trial wall curvature `guess`."""
    config = config or ShootingConfig()
    require_positive("trial curvature", guess)
    return _integrate_guess(n, guess, config).final.fp - 1.0


def solve_shooting(n: float, config: ShootingConfig | None = None) -> ShootingResult:
    """Bisection with secant acceleration on the shooting residual.

    The initial bracket is expanded (up to 4 doublings each way) if the
    residual does not change sign across it.
    """
    config = config or ShootingConfig()
    lo, hi = config.bracket_lo, config.bracket_hi
    f_lo = shoot_residual(n, lo, config)
    f_hi = shoot_residual(n, hi, config)

    # The residual increases with the trial curvature, so push the offending end.
    expansions = 0
    while f_lo * f_hi > 0.0 and expansions < 4:
        if f_hi < 0.0:
            hi *= 2.0
            f_hi = shoot_residual(n, hi, config)
        else:
            lo /= 2.0
            f_lo = shoot_residual(n, lo, config)
        expansions += 1
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change in [{lo}, {hi}] after {expansions} expansions (n = {n})"
        )

    if abs(f_lo) <= config.root_tol:
        return ShootingResult(lo, f_lo, 0, _integrate_guess(n, lo, config))
    if abs(f_hi) <= config.root_tol:
        return ShootingResult(hi, f_hi, 0, _integrate_guess(n, hi, config))

    x_prev, f_prev = lo, f_lo
    x_curr, f_curr = hi, f_hi
    for iteration in range(1, config.max_iters + 1):
        # Secant proposal, guarded by the bracket; bisection as fallback.
        x_next = None
        if f_curr != f_prev:
            cand = x_curr - f_curr * (x_curr - x_prev) / (f_curr - f_prev)
            if lo < cand < hi:
                x_next = cand
        if x_next is None:
            x_next = 0.5 * (lo + hi)
        f_next = shoot_residual(n, x_next, config)

        if abs(f_next) <= config.root_tol:
            return ShootingResult(x_next, f_next, iteration, _integrate_guess(n, x_next, config))

        if f_lo * f_next < 0.0:
            hi, f_hi = x_next, f_next
        else:
            lo, f_lo = x_next, f_next
        x_prev, f_prev = x_curr, f_curr
        x_curr, f_curr = x_next, f_next

    raise ConvergenceError(
        f"no convergence to |residual| <= {config.root_tol} in {config.max_iters} iterations"
    )
