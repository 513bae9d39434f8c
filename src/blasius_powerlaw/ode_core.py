"""Adaptive Runge-Kutta integration and the two right-hand-side forms of the
power-law boundary-layer equation.

The governing third-order equation is integrated as a first-order system in
(f, f', w) where w = |f''|^(n-1) f'' is the viscous flux.  Working with w
avoids dividing by n|f''|^(n-1), which is singular as f'' -> 0 for n > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class OdeError(Exception):
    """Base class for integration failures."""


class DomainError(OdeError):
    """Non-finite or otherwise inadmissible input."""


class SingularityError(OdeError):
    """The direct formulation was evaluated at f'' = 0."""


class StepBudgetError(OdeError):
    """The step budget was exhausted before reaching the endpoint."""


class StepUnderflowError(OdeError):
    """Error control forced the step below h_min (stiffness)."""


class DivergenceError(OdeError):
    """The state became non-finite during integration."""


# Flux values below this are treated as exactly zero so that the
# exp(log(|w|)/n) evaluation of |w|^(1/n) never sees log(0).
_FLUX_UNDERFLOW = 1e-300


def curvature_from_flux(w: float, n: float) -> float:
    """Recover f'' = sign(w) |w|^(1/n) from the viscous flux w."""
    if abs(w) < _FLUX_UNDERFLOW:
        return 0.0
    return math.copysign(math.exp(math.log(abs(w)) / n), w)


def flux_from_curvature(fpp: float, n: float) -> float:
    """Encode f'' as the viscous flux w = |f''|^(n-1) f'' = sign(f'')|f''|^n."""
    if abs(fpp) < _FLUX_UNDERFLOW:
        return 0.0
    return math.copysign(math.exp(n * math.log(abs(fpp))), fpp)


@dataclass(frozen=True)
class FlowParams:
    """Power-law exponent n and the classical scaling exponent
    delta = (2-n)/(1-2n) of f* = lambda f, eta* = lambda^delta eta.

    delta is None exactly at n = 1/2, where that parametrisation has no
    exponent; the non-iterative method does not use it (see `nitm`).
    """

    n: float
    delta: float | None = field(default=None)

    def __post_init__(self) -> None:
        if not math.isfinite(self.n) or self.n <= 0.0:
            raise DomainError(f"power-law exponent must be finite and > 0, got {self.n}")
        if self.delta is None and self.n != 0.5:
            # Same value as (2-n)/(1-2n), but +0.0 rather than -0.0 at n = 2.
            object.__setattr__(self, "delta", (self.n - 2.0) / (2.0 * self.n - 1.0))


@dataclass(frozen=True)
class IvpState:
    """One grid point of the first-order system (eta, f, f', w)."""

    eta: float
    f: float
    fp: float
    w: float

    def fpp(self, n: float) -> float:
        """f'' recovered from the stored flux."""
        return curvature_from_flux(self.w, n)

    def as_array(self) -> np.ndarray:
        return np.array([self.f, self.fp, self.w])


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.5
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if not (self.h_min <= self.h_init <= self.h_max):
            raise DomainError("step bounds must satisfy h_min <= h_init <= h_max")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")


def rhs_flux(state: IvpState, params: FlowParams) -> tuple[float, float, float]:
    """Conservative form: d/deta of (f, f', w) with w' = -f f'' / (n+1)."""
    for v in (state.eta, state.f, state.fp, state.w):
        if not math.isfinite(v):
            raise DomainError(f"non-finite state {state}")
    fpp = curvature_from_flux(state.w, params.n)
    return (state.fp, fpp, -state.f * fpp / (params.n + 1.0))


def rhs_direct(f: float, fp: float, fpp: float, params: FlowParams) -> tuple[float, float, float]:
    """Expanded form with explicit f'': f''' = -f f'' |f''|^(1-n) / (n(n+1)).

    Only valid while f'' != 0; the flux form has no such restriction.
    """
    for v in (f, fp, fpp):
        if not math.isfinite(v):
            raise DomainError("non-finite state")
    if fpp == 0.0:
        raise SingularityError("direct form undefined at f'' = 0")
    n = params.n
    fppp = -f * fpp * abs(fpp) ** (1.0 - n) / (n * (n + 1.0))
    return (fp, fpp, fppp)


def flux_system(params: FlowParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Vector field over y = (f, f', w) for the generic integrator."""
    n = params.n
    inv_np1 = 1.0 / (n + 1.0)

    def rhs(eta: float, y: np.ndarray) -> np.ndarray:
        fpp = curvature_from_flux(y[2], n)
        return np.array([y[1], fpp, -y[0] * fpp * inv_np1])

    return rhs


def direct_system(params: FlowParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Vector field over y = (f, f', f'') for the generic integrator."""
    n = params.n

    def rhs(eta: float, y: np.ndarray) -> np.ndarray:
        if y[2] == 0.0:
            raise SingularityError("direct form undefined at f'' = 0")
        fppp = -y[0] * y[2] * abs(y[2]) ** (1.0 - n) / (n * (n + 1.0))
        return np.array([y[1], y[2], fppp])

    return rhs


# Dormand-Prince 5(4) coefficients.  The fifth-order solution is propagated;
# the embedded fourth-order result supplies the local error estimate.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


@dataclass
class GridSolution:
    """Stored output of one integration: nodes, states and state derivatives.

    Evaluation between nodes uses cubic Hermite interpolation on the stored
    derivatives; at stored nodes it reproduces the stored values exactly.
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        ts = self.ts
        if t < ts[0] or t > ts[-1]:
            raise DomainError(f"evaluation point {t} outside [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if i >= len(ts) - 1:
            i = len(ts) - 2
        if t == ts[i]:
            return self.ys[i].copy()
        if t == ts[i + 1]:
            return self.ys[i + 1].copy()
        h = ts[i + 1] - ts[i]
        s = (t - ts[i]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return (
            h00 * self.ys[i]
            + h10 * h * self.dys[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.dys[i + 1]
        )


def integrate_system(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: Sequence[float],
    t_end: float,
    config: IntegratorConfig,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GridSolution:
    """Integrate y' = rhs(t, y) from t0 to t_end with an embedded 5(4) pair.

    The final step is clipped so the last node lands exactly on t_end.
    `project`, when given, maps each accepted state back onto an invariant
    manifold (used to pin the viscous flux at zero once the layer
    extinguishes, which happens at finite eta for n > 1).
    """
    if t_end <= t0:
        raise DomainError("t_end must exceed t0")
    if t_end - t0 > config.max_steps * config.h_max:
        # Every step is at most h_max, so the budget cannot reach t_end.
        raise StepBudgetError(
            f"step budget {config.max_steps} x h_max {config.h_max} cannot reach t = {t_end}"
        )
    y = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("non-finite initial state")

    t = t0
    k = [np.zeros_like(y) for _ in range(7)]
    k[0] = rhs(t, y)
    ts = [t]
    ys = [y.copy()]
    dys = [k[0].copy()]
    h = config.h_init
    nsteps = 0

    while t < t_end:
        if nsteps >= config.max_steps:
            raise StepBudgetError(f"step budget {config.max_steps} exhausted at t = {t}")
        h = min(h, config.h_max, t_end - t)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, 7):
                ys_stage = y + h * sum(a * ki for a, ki in zip(_DP_A[s], k))
                k[s] = rhs(t + _DP_C[s] * h, ys_stage)
            y_new = ys_stage  # stage 7 uses the propagated-solution weights (FSAL)
            err_vec = h * sum(e * ki for e, ki in zip(_DP_E, k))

        if np.all(np.isfinite(y_new)):
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        else:
            err = math.inf
        nsteps += 1

        if err <= 1.0:
            t = t + h
            if project is not None:
                y_proj = project(y_new)
                if np.array_equal(y_proj, y_new):
                    y = y_new
                    k[0] = k[6]  # first-same-as-last
                else:
                    y = y_proj
                    k[0] = rhs(t, y)
            else:
                y = y_new
                k[0] = k[6]  # first-same-as-last
            ts.append(t)
            ys.append(y.copy())
            dys.append(k[0].copy())
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
        else:
            if not math.isfinite(err) and h <= config.h_min * (1.0 + 1e-12):
                raise DivergenceError(f"state became non-finite at t = {t}")
            h = h * (0.5 if not math.isfinite(err) else max(0.2, 0.9 * err ** -0.2))
            if h < config.h_min:
                raise StepUnderflowError(f"step underflow below h_min at t = {t}")

    return GridSolution(np.array(ts), np.array(ys), np.array(dys))


@dataclass
class SolutionProfile:
    """Ordered solution grid of the (f, f', w) system with dense output."""

    grid: GridSolution
    params: FlowParams
    config: IntegratorConfig
    star_frame: bool

    @property
    def etas(self) -> np.ndarray:
        return self.grid.ts

    @property
    def rows(self) -> tuple[IvpState, ...]:
        return tuple(
            IvpState(eta=float(t), f=float(y[0]), fp=float(y[1]), w=float(y[2]))
            for t, y in zip(self.grid.ts, self.grid.ys)
        )

    @property
    def final(self) -> IvpState:
        t = float(self.grid.ts[-1])
        y = self.grid.ys[-1]
        return IvpState(eta=t, f=float(y[0]), fp=float(y[1]), w=float(y[2]))

    def evaluate(self, eta: float) -> IvpState:
        y = self.grid(eta)
        return IvpState(eta=float(eta), f=float(y[0]), fp=float(y[1]), w=float(y[2]))

    def curvatures(self) -> np.ndarray:
        """f'' at every stored node."""
        n = self.params.n
        return np.array([curvature_from_flux(float(w), n) for w in self.grid.ys[:, 2]])


#: Default extinction cutoff for flux_nonnegative_projector.  For n > 1 the
#: flux reaches zero at finite eta and the equation becomes arbitrarily stiff
#: as w -> 0+; pinning the last ~10 decades of decay to zero perturbs the
#: far-field slope by O(cutoff) and keeps the stepper out of the singular
#: layer.
FLUX_CUTOFF = 1e-10


def flux_nonnegative_projector(cutoff: float = FLUX_CUTOFF) -> Callable[[np.ndarray], np.ndarray]:
    """Pin the flux component of a (f, f', w) state to zero once it is spent.

    The boundary-layer solutions of interest start from w(0) > 0 and w decays
    monotonically; the exact solution never goes negative, and for n > 1 it
    extinguishes at finite eta (the layer has finite extent) where the
    right-hand side is non-Lipschitz in w.
    """

    def project(y: np.ndarray) -> np.ndarray:
        if y[2] < cutoff:
            y = y.copy()
            y[2] = 0.0
        return y

    return project


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    initial: IvpState,
    eta_end: float,
    config: IntegratorConfig,
    params: FlowParams,
    star_frame: bool = True,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SolutionProfile:
    """Integrate the (f, f', w) system from `initial` to eta_end."""
    grid = integrate_system(rhs, initial.eta, initial.as_array(), eta_end, config, project=project)
    return SolutionProfile(grid=grid, params=params, config=config, star_frame=star_frame)
