"""Adaptive Runge-Kutta integration (Tsitouras 5(4)) and the flux-form
right-hand side of the power-law boundary-layer equation.

The governing third-order equation is integrated as a first-order system in
(f, f', w) where w = |f''|^(n-1) f'' is the viscous flux.  Working with w
avoids dividing by n|f''|^(n-1), which is singular as f'' -> 0 for n > 1.
Both solution routes integrate the same wall IVP, defined by the exponent n
and the wall curvature f''(0) alone, through `integrate`.  The stepper is
written for that 3-component state: each stage is unrolled per component.
"""

import functools
import math
from collections import namedtuple
from collections.abc import Callable, Sequence


class OdeError(Exception):
    """Base class for integration failures."""


class DomainError(OdeError):
    """Non-finite or otherwise inadmissible input."""


class StepBudgetError(OdeError):
    """The step budget was exhausted before reaching the endpoint."""


class StepUnderflowError(OdeError):
    """Error control rejected a step and shrank it below H_MIN (stiffness),
    or the step fell below the float spacing at t, so that it cannot move t.
    Only rejected steps are checked against H_MIN: accepted steps may shrink
    past it, down to the float spacing."""


class DivergenceError(OdeError):
    """The state became non-finite during integration."""


def curvature_from_flux(w: float, n: float) -> float:
    """Recover f'' = sign(w) |w|^(1/n) from the viscous flux w; a positive w,
    as on a trajectory until the projector pins it, skips abs and copysign."""
    try:
        return w ** (1.0 / n) if w > 0.0 else math.copysign(abs(w) ** (1.0 / n), w)
    except OverflowError:
        raise DivergenceError(f"curvature |w|^(1/n) overflows at w = {w}, n = {n}") from None


def flux_from_curvature(fpp: float, n: float) -> float:
    """Encode f'' as the viscous flux w = |f''|^(n-1) f'' = sign(f'')|f''|^n."""
    try:
        return math.copysign(abs(fpp) ** n, fpp)
    except OverflowError:
        raise DivergenceError(f"viscous flux |f''|^n overflows at f'' = {fpp}, n = {n}") from None


def require_positive(name: str, value: float) -> None:
    """Raise DomainError unless `value` is finite and > 0 (NaN included)."""
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


#: Where a boundary of inf, the untruncated answer, is integrated to: the wall
#: IVP has converged there for n = N_MIN to 1e5, and 1e100 gives the same bits.
ETA_FAR = 1e30


def require_boundary(name: str, value: float) -> None:
    """Raise DomainError unless `value` is > 0, finite or inf (ETA_FAR)."""
    if not value > 0.0:  # NaN fails too
        raise DomainError(f"{name} must be finite and > 0, or inf, got {value}")


class IvpState(namedtuple("IvpState", "eta f fp w")):
    """One grid point of the first-order system (eta, f, f', w)."""

    __slots__ = ()


#: First trial step, smallest step a rejection may leave and step budget
#: of `integrate_system`.
H_INIT, H_MIN, MAX_STEPS = 1e-3, 1e-12, 1_000_000


class IntegratorConfig(
    namedtuple("IntegratorConfig", "rel_tol abs_tol h_max", defaults=(1e-12, 1e-12, math.inf))
):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __init__(self, *args, **kwargs) -> None:
        require_positive("rel_tol", self.rel_tol)
        require_positive("abs_tol", self.abs_tol)
        if not H_INIT <= self.h_max:  # NaN fails too
            raise DomainError(f"h_max must be >= H_INIT = {H_INIT} (default inf), got {self.h_max}")


State = tuple[float, ...]
Rhs = Callable[[float, State], Sequence[float]]


#: Smallest exponent `flux_system` accepts: decoding f'' = w^(1/n) multiplies
#: w's rounding by 1/n, so an answer's rounding floor is 2.2e-16/n (2.2e-11 here).
N_MIN = 1e-5


def flux_system(n: float) -> Rhs:
    """Vector field over y = (f, f', w) for the generic integrator, at n >= N_MIN.

    It decodes f'' as `curvature_from_flux` does, bit for bit with 1/n computed
    once, but an overflow gives f'' = +-inf, a trial that the stepper rejects.
    """
    require_positive("power-law exponent", n)
    if n < N_MIN:
        raise DomainError(f"power-law exponent must be >= N_MIN = {N_MIN}, got {n}")
    # -(f fpp) / (n + 1) as f fpp (-1 / (n + 1)): negation is exact.
    inv_n, neg_inv_np1 = 1.0 / n, -(1.0 / (n + 1.0))
    copysign = math.copysign

    def rhs(eta: float, y: State) -> State:
        f, fp, w = y
        try:
            fpp = w ** inv_n if w > 0.0 else copysign(abs(w) ** inv_n, w)
        except OverflowError:
            fpp = copysign(math.inf, w)
        return (fp, fpp, f * fpp * neg_inv_np1)

    return rhs


class GridSolution(
    namedtuple("GridSolution", "nodes states attempted refreshes", defaults=(None, None))
):
    """Stored output of one integration: the `nodes` and the (f, f', w)
    `states` there, as lists of Python floats; from `integrate_system` (else
    None), the steps it `attempted`, of which attempted - (len(nodes) - 1)
    were rejected, and its `refreshes`, projections that changed the state:
    rhs ran 1 + 6 attempted + refreshes times.  `ts` and `ys` hold the same
    values as NumPy arrays (the `arrays` extra), built on first read and kept
    in the instance `__dict__` (no `__slots__` here); the CLI reads neither."""

    @functools.cached_property
    def ts(self):
        import numpy as np

        return np.array(self.nodes, dtype=float)

    @functools.cached_property
    def ys(self):
        import numpy as np

        return np.array(self.states, dtype=float)


#: Tsitouras 5(4) pair of `integrate_system` (Ch. Tsitouras, Comput. Math.
#: Appl. 62 (2011) 770-775): the nodes c1..c7 (c6 = c7 = 1), rows 2..7 of the
#: stage weights A (row 7 holds the fifth-order weights b, so stage 7 is
#: evaluated at the propagated solution and is the next step's stage 1), and
#: the fifth-minus-fourth-order error weights E.
TSIT5_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)
TSIT5_A = (
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401,
     -0.028269050394068383),
    (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081,
     2.324710524099774),
)
TSIT5_E = (
    -0.00178001105222577714, -0.0008164344596567469, 0.007880878010261995, -0.1447110071732629,
    0.5823571654525552, -0.45808210592918697, 1 / 66,
)


def integrate_system(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t_end: float,
    config: IntegratorConfig,
    project: Callable[[State], Sequence[float]] | None = None,
    stops: Sequence[float] = (),
) -> GridSolution:
    """Integrate y' = rhs(t, y) from t0 to t_end with the Tsitouras 5(4) pair.

    The state is the triple (f, f', w), held as three floats with the stages
    unrolled per component; any other length is refused.  `rhs(t, y)` and
    `project(y)` receive the state as a tuple of floats and may return any
    length-3 sequence.  `rhs` is called once at t0, six times per attempted
    step (the last two at t + h) and once more after each projection that
    changes the state.  A step that would pass the next of `stops` (strictly
    increasing, inside (t0, t_end)) or t_end is clipped so that a node lands
    exactly on it.  `project`, when given, is the flux pin of
    `flux_nonnegative_projector`, and the stepper alone decides when it runs:
    on each accepted state whose flux is below `flux_cutoff(config)`, which
    the pin maps onto w = 0 (the layer extinguishes at finite eta for n > 1).
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise DomainError(f"integration bounds must be finite, got [{t0}, {t_end}]")
    stops = tuple(map(float, stops))
    bounds = (t0, *stops, t_end)
    if not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise DomainError(f"need t0 < stops < t_end, strictly increasing, got {bounds}")
    if t_end - t0 > MAX_STEPS * config.h_max:
        # Every step is at most h_max, so the budget cannot reach t_end
        # (never true under the default h_max = inf).
        raise StepBudgetError(
            f"step budget {MAX_STEPS} x h_max {config.h_max} cannot reach t = {t_end}"
        )
    y = tuple(map(float, y0))
    if len(y) != 3:
        raise DomainError(f"the state must have 3 components (f, f', w), got {len(y)}")
    if not all(map(math.isfinite, y)):
        raise DomainError("non-finite initial state")

    _, C2, C3, C4, C5, _, _ = TSIT5_C
    (
        (A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
        (A61, A62, A63, A64, A65), (A71, A72, A73, A74, A75, A76),
    ) = TSIT5_A
    E1, E2, E3, E4, E5, E6, E7 = TSIT5_E

    rtol, atol, h_max = config.rel_tol, config.abs_tol, config.h_max
    # No projector never pins: no finite flux is below -inf.
    cutoff = flux_cutoff(config) if project is not None else -math.inf
    isfinite, sqrt, max_steps = math.isfinite, math.sqrt, MAX_STEPS
    t = t0
    nodes, states = [t], [y]
    nodes_append, states_append = nodes.append, states.append
    y0, y1, y2 = y
    a0, a1, a2 = rhs(t, y)
    h = H_INIT
    nsteps = refreshes = 0
    targets = [t_end, *reversed(stops)]
    target = targets.pop()  # the next node to land on

    # Stage k1..k7 is (a, b, c, d, e, f, g) per component; g is the next
    # step's a (first-same-as-last).
    while t < t_end:
        if nsteps >= max_steps:
            raise StepBudgetError(f"step budget {MAX_STEPS} exhausted at t = {t}")
        rest = target - t
        if h > h_max:
            h = h_max
        if h > rest:
            h = rest
        t_new = target if h == rest else t + h
        if t_new == t:
            raise StepUnderflowError(f"step h = {h} is below the float spacing at t = {t}")
        b0, b1, b2 = rhs(t + C2 * h, (
            y0 + h * (A21 * a0),
            y1 + h * (A21 * a1),
            y2 + h * (A21 * a2),
        ))
        c0, c1, c2 = rhs(t + C3 * h, (
            y0 + h * (A31 * a0 + A32 * b0),
            y1 + h * (A31 * a1 + A32 * b1),
            y2 + h * (A31 * a2 + A32 * b2),
        ))
        d0, d1, d2 = rhs(t + C4 * h, (
            y0 + h * (A41 * a0 + A42 * b0 + A43 * c0),
            y1 + h * (A41 * a1 + A42 * b1 + A43 * c1),
            y2 + h * (A41 * a2 + A42 * b2 + A43 * c2),
        ))
        e0, e1, e2 = rhs(t + C5 * h, (
            y0 + h * (A51 * a0 + A52 * b0 + A53 * c0 + A54 * d0),
            y1 + h * (A51 * a1 + A52 * b1 + A53 * c1 + A54 * d1),
            y2 + h * (A51 * a2 + A52 * b2 + A53 * c2 + A54 * d2),
        ))
        f0, f1, f2 = rhs(t_new, (
            y0 + h * (A61 * a0 + A62 * b0 + A63 * c0 + A64 * d0 + A65 * e0),
            y1 + h * (A61 * a1 + A62 * b1 + A63 * c1 + A64 * d1 + A65 * e1),
            y2 + h * (A61 * a2 + A62 * b2 + A63 * c2 + A64 * d2 + A65 * e2),
        ))
        z0 = y0 + h * (A71 * a0 + A72 * b0 + A73 * c0 + A74 * d0 + A75 * e0 + A76 * f0)
        z1 = y1 + h * (A71 * a1 + A72 * b1 + A73 * c1 + A74 * d1 + A75 * e1 + A76 * f1)
        z2 = y2 + h * (A71 * a2 + A72 * b2 + A73 * c2 + A74 * d2 + A75 * e2 + A76 * f2)
        y_new = (z0, z1, z2)
        g0, g1, g2 = rhs(t_new, y_new)
        nsteps += 1

        if isfinite(z0) and isfinite(z1) and isfinite(z2):
            # Each error weight is max(|y|, |z|), written out with max's tie
            # rule; a -0.0 from the conditional abs adds to atol as +0.0 does.
            s0 = -y0 if y0 < 0.0 else y0
            s1 = -y1 if y1 < 0.0 else y1
            s2 = -y2 if y2 < 0.0 else y2
            u0 = -z0 if z0 < 0.0 else z0
            u1 = -z1 if z1 < 0.0 else z1
            u2 = -z2 if z2 < 0.0 else z2
            q0 = h * (E1 * a0 + E2 * b0 + E3 * c0 + E4 * d0 + E5 * e0 + E6 * f0 + E7 * g0) / (
                atol + rtol * (u0 if u0 > s0 else s0)
            )
            q1 = h * (E1 * a1 + E2 * b1 + E3 * c1 + E4 * d1 + E5 * e1 + E6 * f1 + E7 * g1) / (
                atol + rtol * (u1 if u1 > s1 else s1)
            )
            q2 = h * (E1 * a2 + E2 * b2 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * f2 + E7 * g2) / (
                atol + rtol * (u2 if u2 > s2 else s2)
            )
            # Not sum(): from Python 3.12 it compensates, which rounds differently.
            err = sqrt((q0 * q0 + q1 * q1 + q2 * q2) / 3)
        else:
            err = math.inf

        if err <= 1.0:
            t = t_new
            if t == target and targets:
                target = targets.pop()
            y = y_new
            y0, y1, y2 = z0, z1, z2
            a0, a1, a2 = g0, g1, g2
            if z2 < cutoff:
                y_proj = tuple(project(y))
                if y_proj != y:
                    y = y_proj
                    y0, y1, y2 = y
                    a0, a1, a2 = rhs(t, y)
                    refreshes += 1
            nodes_append(t)
            states_append(y)
            # err <= 1 makes the factor at least 0.9: only the 5x cap applies.
            factor = 5.0 if err == 0.0 else 0.9 * err ** -0.2
            h = h * (factor if factor < 5.0 else 5.0)
        else:
            diverged = not isfinite(err)
            h = h * (0.5 if diverged else max(0.2, 0.9 * err ** -0.2))
            # A trial that overflowed and cannot shrink further (below H_MIN,
            # or too small to move t) is divergence, not stiffness.
            if diverged and (h < H_MIN or t + h == t):
                raise DivergenceError(f"state became non-finite after t = {t}; last finite state {y}")
            if h < H_MIN:
                raise StepUnderflowError(f"step underflow below H_MIN at t = {t}")

    return GridSolution(nodes, states, nsteps, refreshes)


class SolutionProfile(
    namedtuple("SolutionProfile", "grid n star fpp_scale", defaults=(None, None))
):
    """Ordered solution grid of the (f, f', w) system at exponent n.  A
    profile rescaled from the profile `star` keeps it, with the factor
    `fpp_scale` that maps the star's f'' to its own."""

    __slots__ = ()

    @property
    def final(self) -> IvpState:
        return IvpState(self.grid.nodes[-1], *self.grid.states[-1])

    def curvatures(self) -> list[float]:
        """f'' at every stored node: on a rescaled profile `fpp_scale` times
        the star's, else decoded from the stored flux by `curvature_from_flux`
        (Python's power: NumPy's can differ by an ulp)."""
        if self.star is not None:
            scale = self.fpp_scale
            return [scale * fpp for fpp in self.star.curvatures()]
        return [curvature_from_flux(w, self.n) for _, _, w in self.grid.states]


def flux_cutoff(config: IntegratorConfig) -> float:
    """Flux below which `integrate_system` at `config` pins an accepted
    state with its projector: 100 abs_tol, so 1e-10 at the default tolerance.

    For n > 1 the flux reaches zero at finite eta and the equation becomes
    arbitrarily stiff as w -> 0+.  Below abs_tol the error control no longer
    resolves w, and a stepper left there crawls through that layer; pinning
    the decay from two decades above abs_tol keeps it out.  The projector
    gives back the slope that the decay would add, so the far-field slope
    misses only a term second order in the length of the cut tail.
    """
    return 100.0 * config.abs_tol


def flux_nonnegative_projector(n: float) -> Callable[[State], State]:
    """Pin the flux component of a (f, f', w) state at exponent n to zero,
    and add to f' the slope that the rest of the decay would give.  It pins
    whatever state it is handed: `integrate_system` hands it only accepted
    states whose flux is below `flux_cutoff`.

    The boundary-layer solutions of interest start from w(0) > 0 and w decays
    monotonically; the exact solution never goes negative, and for n > 1 it
    extinguishes at finite eta (the layer has finite extent) where the
    right-hand side is non-Lipschitz in w.  Along a trajectory
    f'' d eta = -(n + 1) dw / f, so letting w run from its pinned value to 0
    adds (n + 1) w / f to f', to first order in how much f changes over that
    tail; a step that overshot to w < 0 takes slope back.  The gain is given
    only where f > 0, f' > 0 and |gain| f' <= f |w|^(1/n), that is, where it
    is at most what the current f'' adds over f/f', the length on which f
    doubles: a trial pinned near the wall, where f ~ g eta^2 / 2, gains
    nothing.
    """
    require_positive("power-law exponent", n)
    inv_n, np1 = 1.0 / n, n + 1.0

    def project(y: State) -> State:
        f, fp, w = y
        if f > 0.0 and fp > 0.0:
            gain = np1 * w / f
            if abs(gain) * fp <= f * abs(w) ** inv_n:
                return (f, fp + gain, 0.0)
        return (f, fp, 0.0)

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
