"""Adaptive Runge-Kutta integration and the flux-form right-hand side of the
power-law boundary-layer equation.

The governing third-order equation is integrated as a first-order system in
(f, f', w) where w = |f''|^(n-1) f'' is the viscous flux.  Working with w
avoids dividing by n|f''|^(n-1), which is singular as f'' -> 0 for n > 1.
Both solution routes integrate the same wall IVP, defined by the exponent n
and the wall curvature f''(0) alone, through `integrate`.  The stepper is
written for that 3-component state: each stage is unrolled per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class OdeError(Exception):
    """Base class for integration failures."""


class DomainError(OdeError):
    """Non-finite or otherwise inadmissible input."""


class StepBudgetError(OdeError):
    """The step budget was exhausted before reaching the endpoint."""


class StepUnderflowError(OdeError):
    """Error control forced the step below H_MIN (stiffness)."""


class DivergenceError(OdeError):
    """The state became non-finite during integration."""


# Flux values below this are treated as exactly zero so that the
# exp(log(|w|)/n) evaluation of |w|^(1/n) never sees log(0).
_FLUX_UNDERFLOW = 1e-300


def curvature_from_flux(w: float, n: float) -> float:
    """Recover f'' = sign(w) |w|^(1/n) from the viscous flux w."""
    if abs(w) < _FLUX_UNDERFLOW:
        return 0.0
    try:
        return math.copysign(math.exp(math.log(abs(w)) / n), w)
    except OverflowError:
        raise DivergenceError(f"curvature |w|^(1/n) overflows at w = {w}, n = {n}") from None


def flux_from_curvature(fpp: float, n: float) -> float:
    """Encode f'' as the viscous flux w = |f''|^(n-1) f'' = sign(f'')|f''|^n."""
    if abs(fpp) < _FLUX_UNDERFLOW:
        return 0.0
    try:
        return math.copysign(math.exp(n * math.log(abs(fpp))), fpp)
    except OverflowError:
        raise DivergenceError(f"viscous flux |f''|^n overflows at f'' = {fpp}, n = {n}") from None


def require_positive(name: str, value: float) -> None:
    """Raise DomainError unless `value` is finite and > 0 (NaN included)."""
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class IvpState:
    """One grid point of the first-order system (eta, f, f', w)."""

    eta: float
    f: float
    fp: float
    w: float


#: First trial step, smallest step and step budget of `integrate_system`.
H_INIT, H_MIN, MAX_STEPS = 1e-3, 1e-12, 1_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    h_max: float = 0.5

    def __post_init__(self) -> None:
        require_positive("rel_tol", self.rel_tol)
        require_positive("abs_tol", self.abs_tol)
        if not H_INIT <= self.h_max < math.inf:
            raise DomainError(f"h_max must be finite and >= H_INIT = {H_INIT}, got {self.h_max}")


State = tuple[float, ...]
Rhs = Callable[[float, State], Sequence[float]]


def flux_system(n: float) -> Rhs:
    """Vector field over y = (f, f', w) for the generic integrator."""
    require_positive("power-law exponent", n)
    inv_np1 = 1.0 / (n + 1.0)

    def rhs(eta: float, y: State) -> State:
        fpp = curvature_from_flux(y[2], n)
        return (y[1], fpp, -y[0] * fpp * inv_np1)

    return rhs


# Dormand-Prince 5(4) coefficients: nodes C, stage weights A (row 7 holds
# the fifth-order weights, so stage 7 is evaluated at the propagated
# solution) and the fifth-minus-fourth-order error weights E.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A72, _A73, _A74, _A75, _A76 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


@dataclass
class GridSolution:
    """Stored output of one integration: nodes, states and state derivatives."""

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray


def integrate_system(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t_end: float,
    config: IntegratorConfig,
    project: Callable[[State], Sequence[float]] | None = None,
    stops: Sequence[float] = (),
) -> GridSolution:
    """Integrate y' = rhs(t, y) from t0 to t_end with an embedded 5(4) pair.

    The state is the triple (f, f', w), held as three floats with the stages
    unrolled per component; any other length is refused.  `rhs(t, y)` and
    `project(y)` receive the state as a tuple of floats and may return any
    length-3 sequence.  `rhs` is called once at t0, six times per attempted
    step (the last two at t + h) and once more after each projection that
    changes the state.  A step that would pass the next of `stops` (strictly
    increasing, inside (t0, t_end)) or t_end is clipped so that a node lands
    exactly on it.  `project`, when given, maps each accepted state back onto
    an invariant manifold (used to pin the viscous flux at zero once the
    layer extinguishes, which happens at finite eta for n > 1).
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise DomainError(f"integration bounds must be finite, got [{t0}, {t_end}]")
    stops = tuple(map(float, stops))
    bounds = (t0, *stops, t_end)
    if not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise DomainError(f"need t0 < stops < t_end, strictly increasing, got {bounds}")
    if t_end - t0 > MAX_STEPS * config.h_max:
        # Every step is at most h_max, so the budget cannot reach t_end.
        raise StepBudgetError(
            f"step budget {MAX_STEPS} x h_max {config.h_max} cannot reach t = {t_end}"
        )
    y = tuple(map(float, y0))
    if len(y) != 3:
        raise DomainError(f"the state must have 3 components (f, f', w), got {len(y)}")
    if not all(map(math.isfinite, y)):
        raise DomainError("non-finite initial state")

    rtol, atol, h_max = config.rel_tol, config.abs_tol, config.h_max
    isfinite = math.isfinite
    t = t0
    k1 = rhs(t, y)
    ts, ys, dys = [t], [y], [k1]
    y0, y1, y2 = y
    a0, a1, a2 = k1
    h = H_INIT
    nsteps = 0
    targets = [t_end, *reversed(stops)]  # the next node to land on is targets[-1]

    # Stage k1..k7 is (a, b, c, d, e, f, g) per component.  Each weighted sum
    # starts from 0.0 and keeps its zero weights, so every component rounds
    # as a left-to-right sum would: -0.0 becomes +0.0, and 0 * inf still
    # turns the step into NaN, which rejects it.
    while t < t_end:
        if nsteps >= MAX_STEPS:
            raise StepBudgetError(f"step budget {MAX_STEPS} exhausted at t = {t}")
        target = targets[-1]
        h = min(h, h_max, target - t)
        t_new = target if h == target - t else t + h
        b0, b1, b2 = rhs(t + _C2 * h, (
            y0 + h * (0.0 + _A21 * a0),
            y1 + h * (0.0 + _A21 * a1),
            y2 + h * (0.0 + _A21 * a2),
        ))
        c0, c1, c2 = rhs(t + _C3 * h, (
            y0 + h * (0.0 + _A31 * a0 + _A32 * b0),
            y1 + h * (0.0 + _A31 * a1 + _A32 * b1),
            y2 + h * (0.0 + _A31 * a2 + _A32 * b2),
        ))
        d0, d1, d2 = rhs(t + _C4 * h, (
            y0 + h * (0.0 + _A41 * a0 + _A42 * b0 + _A43 * c0),
            y1 + h * (0.0 + _A41 * a1 + _A42 * b1 + _A43 * c1),
            y2 + h * (0.0 + _A41 * a2 + _A42 * b2 + _A43 * c2),
        ))
        e0, e1, e2 = rhs(t + _C5 * h, (
            y0 + h * (0.0 + _A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
            y1 + h * (0.0 + _A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
            y2 + h * (0.0 + _A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
        ))
        f0, f1, f2 = rhs(t_new, (
            y0 + h * (0.0 + _A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0),
            y1 + h * (0.0 + _A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
            y2 + h * (0.0 + _A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
        ))
        z0 = y0 + h * (
            0.0 + _A71 * a0 + _A72 * b0 + _A73 * c0 + _A74 * d0 + _A75 * e0 + _A76 * f0
        )
        z1 = y1 + h * (
            0.0 + _A71 * a1 + _A72 * b1 + _A73 * c1 + _A74 * d1 + _A75 * e1 + _A76 * f1
        )
        z2 = y2 + h * (
            0.0 + _A71 * a2 + _A72 * b2 + _A73 * c2 + _A74 * d2 + _A75 * e2 + _A76 * f2
        )
        y_new = (z0, z1, z2)
        k7 = rhs(t_new, y_new)  # first-same-as-last: k1 of the next step
        g0, g1, g2 = k7
        nsteps += 1

        if isfinite(z0) and isfinite(z1) and isfinite(z2):
            q0 = h * (
                0.0 + _E1 * a0 + _E2 * b0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * f0 + _E7 * g0
            ) / (atol + rtol * max(abs(y0), abs(z0)))
            q1 = h * (
                0.0 + _E1 * a1 + _E2 * b1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1
            ) / (atol + rtol * max(abs(y1), abs(z1)))
            q2 = h * (
                0.0 + _E1 * a2 + _E2 * b2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * f2 + _E7 * g2
            ) / (atol + rtol * max(abs(y2), abs(z2)))
            # Not sum(): from Python 3.12 it compensates, which rounds differently.
            err = math.sqrt((0.0 + q0 * q0 + q1 * q1 + q2 * q2) / 3)
        else:
            err = math.inf

        if err <= 1.0:
            t = t_new
            if t == target:
                targets.pop()
            y, k1 = y_new, k7
            if project is not None:
                y_proj = tuple(project(y_new))
                if y_proj != y_new:
                    y = y_proj
                    k1 = rhs(t, y)
            y0, y1, y2 = y
            a0, a1, a2 = k1
            ts.append(t)
            ys.append(y)
            dys.append(k1)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
        else:
            if not isfinite(err) and h <= H_MIN * (1.0 + 1e-12):
                raise DivergenceError(f"state became non-finite at t = {t}")
            h = h * (0.5 if not isfinite(err) else max(0.2, 0.9 * err ** -0.2))
            if h < H_MIN:
                raise StepUnderflowError(f"step underflow below H_MIN at t = {t}")

    return GridSolution(np.array(ts), np.array(ys, dtype=float), np.array(dys, dtype=float))


@dataclass
class SolutionProfile:
    """Ordered solution grid of the (f, f', w) system at exponent n."""

    grid: GridSolution
    n: float

    @property
    def final(self) -> IvpState:
        t = float(self.grid.ts[-1])
        y = self.grid.ys[-1]
        return IvpState(eta=t, f=float(y[0]), fp=float(y[1]), w=float(y[2]))

    def curvatures(self) -> np.ndarray:
        """f'' at every stored node: the second component of the stored
        derivative (f', f'', w'), which the integrator evaluated there."""
        return self.grid.dys[:, 1].copy()


#: Default extinction cutoff for flux_nonnegative_projector.  For n > 1 the
#: flux reaches zero at finite eta and the equation becomes arbitrarily stiff
#: as w -> 0+; pinning the last ~10 decades of decay to zero perturbs the
#: far-field slope by O(cutoff) and keeps the stepper out of the singular
#: layer.
FLUX_CUTOFF = 1e-10


def flux_nonnegative_projector() -> Callable[[State], State]:
    """Pin the flux component of a (f, f', w) state to zero once it is spent.

    The boundary-layer solutions of interest start from w(0) > 0 and w decays
    monotonically; the exact solution never goes negative, and for n > 1 it
    extinguishes at finite eta (the layer has finite extent) where the
    right-hand side is non-Lipschitz in w.
    """

    def project(y: State) -> State:
        if y[2] < FLUX_CUTOFF:
            return (y[0], y[1], 0.0)
        return y

    return project


def integrate(
    rhs: Rhs,
    n: float,
    fpp0: float,
    eta_end: float,
    config: IntegratorConfig,
    project: Callable[[State], Sequence[float]] | None = None,
    stops: Sequence[float] = (),
) -> SolutionProfile:
    """Integrate the (f, f', w) system at exponent n from the wall, f = f' = 0
    and f'' = fpp0, to eta_end, with a node at each of `stops`."""
    require_positive("power-law exponent", n)
    y0 = (0.0, 0.0, flux_from_curvature(fpp0, n))
    return SolutionProfile(integrate_system(rhs, 0.0, y0, eta_end, config, project, stops), n)
