import hashlib
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blasius_powerlaw import ode_core
from blasius_powerlaw.nitm import NitmConfig, solve
from blasius_powerlaw.ode_core import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    OdeError,
    StepBudgetError,
    StepUnderflowError,
    curvature_from_flux,
    flux_from_curvature,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    integrate_system,
)


CFG = IntegratorConfig()
#: The flux below which the stepper pins a state, at the default tolerance.
CUTOFF = ode_core.flux_cutoff(CFG)

ONES = [1.0, 1.0, 1.0]


class SingularityError(OdeError):
    """The direct formulation was evaluated at f'' = 0."""


def direct_system(n):
    """Vector field over y = (f, f', f'') with f''' = -f f'' |f''|^(1-n) / (n(n+1)):
    the expanded form, an independent check on the package's flux form.

    Only valid while f'' != 0; the flux form has no such restriction.
    """

    def rhs(eta, y):
        if y[2] == 0.0:
            raise SingularityError("direct form undefined at f'' = 0")
        fppp = -y[0] * y[2] * abs(y[2]) ** (1.0 - n) / (n * (n + 1.0))
        return (y[1], y[2], fppp)

    return rhs


def _node_derivatives(rhs, grid):
    """The field (f', f'', w') at each stored node, an m x 3 float array."""
    return np.array([rhs(t, tuple(y)) for t, y in zip(grid.ts.tolist(), grid.ys.tolist())])


class TestFlowParams:
    """The classical scaling exponent delta = (2 - n)/(1 - 2n), reported by
    the solve alongside f''(0)."""

    def test_delta_values(self):
        assert solve(1.0).delta == -1.0
        assert solve(0.3).delta == pytest.approx(4.25)
        assert solve(1.7).delta == pytest.approx(-0.125)
        assert solve(2.0).delta == 0.0
        assert math.copysign(1.0, solve(2.0).delta) == 1.0  # +0.0, not -0.0

    def test_delta_undefined_at_half(self):
        assert solve(0.5).delta is None


class TestFluxEncoding:
    def test_positive_roundtrip(self):
        assert curvature_from_flux(0.25, 0.5) == pytest.approx(0.0625)
        assert flux_from_curvature(0.0625, 0.5) == pytest.approx(0.25)

    def test_zero_and_subnormal_flux(self):
        # Only the projector zeroes a small flux: the decode maps 0 to +0.0
        # and a subnormal flux to its power.
        assert curvature_from_flux(0.0, 1.3).hex() == "0x0.0p+0"
        decoded = curvature_from_flux(1e-310, 1.3)
        assert decoded == pytest.approx(10.0 ** (-310 / 1.3), rel=1e-12, abs=0.0)

    def test_power_accuracy(self):
        # Against 40-digit powers over w, f'' in [1e-10, 1e3] and n in [0.1, 3]:
        # the encode |f''|^n rounds within an ulp, and the decode |w|^(1/n)
        # within 2e-14 (1.3e-14 measured, from rounding 1/n).
        mpmath = pytest.importorskip("mpmath")
        worst_decode = worst_encode = 0.0
        with mpmath.workdps(40):
            for n in np.linspace(0.1, 3.0, 30).tolist():
                for x in np.geomspace(1e-10, 1e3, 53).tolist():
                    exact = mpmath.mpf(x) ** (1 / mpmath.mpf(n))
                    err = abs(mpmath.mpf(curvature_from_flux(x, n)) / exact - 1)
                    worst_decode = max(worst_decode, float(err))
                    exact = mpmath.mpf(x) ** mpmath.mpf(n)
                    err = abs(mpmath.mpf(flux_from_curvature(x, n)) / exact - 1)
                    worst_encode = max(worst_encode, float(err))
        assert worst_decode <= 2e-14
        assert worst_encode <= 2.0**-52

    def test_overflow_is_divergence(self):
        with pytest.raises(DivergenceError, match="overflows"):
            flux_from_curvature(1.5, 3000.0)

    def test_curvature_overflow_is_divergence(self):
        # |w|^(1/n) for w just above 1 and n = 1e-20, as in `solve --n 1e-20`.
        with pytest.raises(DivergenceError, match="overflows"):
            curvature_from_flux(1.0000000000000007, 1e-20)

    @given(
        fpp=st.floats(min_value=1e-6, max_value=1e3),
        n=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_roundtrip_property(self, fpp, n):
        w = flux_from_curvature(fpp, n)
        assert curvature_from_flux(w, n) == pytest.approx(fpp, rel=1e-12)

    @given(
        fpp=st.floats(min_value=1e-6, max_value=1e3),
        n=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_sign_symmetry(self, fpp, n):
        assert flux_from_curvature(-fpp, n) == -flux_from_curvature(fpp, n)


class TestRhsFlux:
    """The flux form: d/deta (f, f', w) = (f', f'', -f f''/(n+1))."""

    def test_origin_blasius(self):
        d = flux_system(1.0)(0.0, (0.0, 0.0, 1.0))
        assert d == (0.0, 1.0, 0.0)

    def test_direct_substitution_n1(self):
        d = flux_system(1.0)(1.0, (2.0, 0.5, 0.25))
        assert d == pytest.approx((0.5, 0.25, -0.25))

    def test_direct_substitution_half(self):
        d = flux_system(0.5)(1.0, (1.0, 0.0, 0.04))
        assert d == pytest.approx((0.0, 0.0016, -0.0016 / 1.5))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            integrate(flux_system(1.0), 1.0, math.nan, 1.0, CFG)

    # The field decodes f'' itself; it must match the public decoder bit for
    # bit, and overflow with the same error.
    @given(
        w=st.one_of(
            st.just(0.0),
            st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
            st.floats(min_value=0.0, max_value=1e300),
        ),
        negative=st.booleans(),
        n=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_field_decodes_as_curvature_from_flux(self, w, negative, n):
        w = -w if negative else w

        def outcome(decode):
            try:
                return decode().hex()
            except DivergenceError as exc:
                return str(exc)

        field = outcome(lambda: flux_system(n)(0.0, (1.5, 0.5, w))[1])
        assert field == outcome(lambda: curvature_from_flux(w, n))

    def test_field_overflow_matches_the_decoder(self):
        with pytest.raises(DivergenceError, match="overflows") as from_field:
            flux_system(0.05)(0.0, (0.0, 0.0, 1e300))
        with pytest.raises(DivergenceError) as from_decoder:
            curvature_from_flux(1e300, 0.05)
        assert str(from_field.value) == str(from_decoder.value)

    # Both decoders take `w ** (1/n)` for w > 0; pin them at the edges of
    # that branch to the sign-magnitude expression, which every other flux
    # still takes.
    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize(
        "w",
        [0.0, -0.0, 5e-324, -5e-324, CUTOFF, 1.0, math.inf, -math.inf, math.nan],
    )
    def test_decoders_match_the_sign_magnitude_formula(self, w, n):
        def bits(x):
            return "nan" if math.isnan(x) else x.hex()

        expected = bits(math.copysign(abs(w) ** (1.0 / n), w))
        assert bits(flux_system(n)(0.0, (1.5, 0.5, w))[1]) == expected
        assert bits(curvature_from_flux(w, n)) == expected

    @pytest.mark.parametrize("w", [1e300, -1e300])
    def test_overflow_message_is_the_sign_magnitude_one(self, w):
        with pytest.raises(OverflowError):
            math.copysign(abs(w) ** (1.0 / 0.3), w)
        message = f"curvature |w|^(1/n) overflows at w = {w}, n = 0.3"
        with pytest.raises(DivergenceError) as from_field:
            flux_system(0.3)(0.0, (1.5, 0.5, w))
        with pytest.raises(DivergenceError) as from_decoder:
            curvature_from_flux(w, 0.3)
        assert str(from_field.value) == str(from_decoder.value) == message


class TestRhsDirect:
    """The expanded form: d/deta (f, f', f'') with f''' written out."""

    def test_blasius_form(self):
        d = direct_system(1.0)(0.0, (2.0, 0.5, 0.25))
        assert d == pytest.approx((0.5, 0.25, -0.25))

    def test_n2(self):
        d = direct_system(2.0)(0.0, (1.0, 0.0, 4.0))
        assert d[2] == pytest.approx(-1.0 / 6.0)

    def test_zero_curvature_singular(self):
        with pytest.raises(SingularityError):
            direct_system(1.3)(0.0, (1.0, 0.5, 0.0))

    @given(
        f=st.floats(min_value=0.0, max_value=5.0),
        fpp=st.floats(min_value=1e-4, max_value=2.0),
        n=st.floats(min_value=0.2, max_value=2.5),
    )
    def test_consistent_with_flux_form(self, f, fpp, n):
        # Mapping f''' through dw = n |f''|^(n-1) df'' must reproduce the
        # flux-form w'.
        fppp = direct_system(n)(0.0, (f, 0.0, fpp))[2]
        w_rate_direct = n * abs(fpp) ** (n - 1.0) * fppp
        w = flux_from_curvature(fpp, n)
        w_rate_flux = flux_system(n)(0.0, (f, 0.0, w))[2]
        assert w_rate_direct == pytest.approx(w_rate_flux, rel=1e-9, abs=1e-12)


class TestFluxProjector:
    """The flux pin, and the slope (n + 1) w / f it gives back."""

    def test_default_cutoff(self):
        # 100 abs_tol is 1e-10 exactly at the default abs_tol = 1e-12.
        assert CUTOFF == 1e-10

    @pytest.mark.parametrize("w", [5e-11, -5e-11])
    def test_pin_gives_back_the_slope_it_cuts(self, w):
        # f'' d eta = -(n + 1) dw / f along a trajectory; an overshoot to
        # w < 0 takes the slope back.
        pinned = (2.0, 0.9 + 2.5 * w / 2.0, 0.0)
        assert flux_nonnegative_projector(1.5)((2.0, 0.9, w)) == pinned

    @pytest.mark.parametrize(
        "y",
        [(1e-20, 1e-10, 5e-11), (1.4e-23, -9e-12, 2.5e-36), (0.0, 0.0, 5e-11), (-1e-3, 0.1, 5e-11)],
        ids=["near-wall", "negative-slope", "at-wall", "negative-f"],
    )
    def test_no_gain_off_the_decay_tail(self, y):
        # The gain may not exceed what the current f'' adds over f/f', and
        # needs f > 0 and f' > 0; elsewhere the pin only zeroes w.
        assert flux_nonnegative_projector(1.5)(y) == (y[0], y[1], 0.0)

    def test_pinned_state_is_unchanged(self):
        # Once w is 0 the gain is 0: the integrator sees no projection.
        y = (2.0, 0.9, 0.0)
        assert flux_nonnegative_projector(1.5)(y) == y


class TestTableau:
    """The Tsitouras 5(4) coefficients against the Runge-Kutta order
    conditions (Butcher trees up to order 5)."""

    C = ode_core.TSIT5_C
    A = [[0.0] * 7, *([*row, *[0.0] * (7 - len(row))] for row in ode_core.TSIT5_A)]
    B = A[6]

    def _dot(self, weights, values):
        return math.fsum(w * v for w, v in zip(weights, values))

    def _a(self, values):
        """A applied to a stage vector."""
        return [self._dot(row, values) for row in self.A]

    def _trees(self, weights):
        """(weights . Phi(tree), 1/gamma(tree)) for the 17 trees of order <= 5."""
        a = self._a

        def times(u, v):
            return [x * y for x, y in zip(u, v)]

        c = self.C
        c2 = times(c, c)
        c3 = times(c2, c)
        ac, ac2 = a(c), a(c2)
        vectors = [
            ([1.0] * 7, 1), (c, 2),
            (c2, 3), (ac, 6),
            (c3, 4), (times(c, ac), 8), (ac2, 12), (a(ac), 24),
            (times(c3, c), 5), (times(c2, ac), 10), (times(c, ac2), 15),
            (times(c, a(ac)), 30), (times(ac, ac), 20), (a(c3), 20),
            (a(times(c, ac)), 40), (a(ac2), 60), (a(a(ac)), 120),
        ]
        return [(self._dot(weights, v), 1.0 / gamma) for v, gamma in vectors]

    def test_fifth_order(self):
        trees = self._trees(self.B)
        assert len(trees) == 17
        for value, expected in trees:
            assert abs(value - expected) <= 1e-15

    def test_rows_sum_to_nodes_and_first_same_as_last(self):
        for row, c in zip(self.A, self.C):
            assert abs(math.fsum(row) - c) <= 1e-15
        assert self.C[5] == self.C[6] == 1.0
        assert len(ode_core.TSIT5_A[-1]) == 6  # b7 = 0: stage 7 is the next stage 1

    def test_error_weights_are_fifth_minus_fourth_order(self):
        # E = b - b_hat with b_hat of order 4: E is orthogonal to every tree of
        # order <= 4, and not to c^4, so the estimate is of order h^5.
        trees = self._trees(ode_core.TSIT5_E)
        for value, _ in trees[:8]:
            assert abs(value) <= 1e-15
        assert abs(trees[8][0]) > 1e-4


class TestIntegrator:
    def test_exponential(self):
        sol = integrate_system(lambda t, y: y, 0.0, ONES, 1.0, CFG)
        assert sol.ys[-1].tolist() == pytest.approx([math.e] * 3, abs=1e-10)
        assert sol.ts[-1] == 1.0

    def test_constant(self):
        sol = integrate_system(lambda t, y: (0.0, 0.0, 0.0), 0.0, [7.0, -2.0, 0.5], 10.0, CFG)
        assert sol.ys[-1].tolist() == [7.0, -2.0, 0.5]

    def test_endpoint_is_exact(self):
        def rhs(t, y):
            return (math.sin(t) * y[0], math.sin(t) * y[1], math.sin(t) * y[2])

        sol = integrate_system(rhs, 0.0, ONES, 3.7, CFG)
        assert sol.ts[-1] == 3.7

    def test_star_ivp_endpoint_n1(self):
        # Far-field slope of the scaled Blasius IVP; the wall curvature it
        # implies is the classical 0.33205733621519630.
        prof = integrate(flux_system(1.0), 1.0, 1.0, 10.0, CFG)
        fp_inf = prof.final.fp
        assert fp_inf == pytest.approx(0.33205733621519630 ** (-2.0 / 3.0), abs=1e-8)
        assert fp_inf == pytest.approx(2.08541, abs=1e-5)

    @pytest.mark.parametrize("n, fpp0", [(0.3, 0.5), (1.0, 1.0), (1.7, 2.0)])
    def test_integrate_starts_at_the_wall(self, n, fpp0):
        # The wall IVP is defined by (n, f''(0)) alone: f = f' = 0 and the
        # encoded flux at eta = 0, with the exponent carried on the profile.
        prof = integrate(flux_system(n), n, fpp0, 1.0, CFG)
        assert prof.n == n
        assert prof.grid.ts[0] == 0.0
        assert tuple(prof.grid.ys[0]) == (0.0, 0.0, flux_from_curvature(fpp0, n))
        assert prof.final.eta == 1.0

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
    def test_integrate_rejects_invalid_exponent(self, n):
        calls = []
        with pytest.raises(DomainError, match="exponent"):
            integrate(lambda t, y: calls.append(t) or y, n, 1.0, 1.0, CFG)
        assert calls == []

    def test_step_budget_error(self, monkeypatch):
        monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError):
            integrate_system(lambda t, y: y, 0.0, ONES, 50.0, CFG)

    def test_impossible_budget_rejected_before_stepping(self, monkeypatch):
        # 3 steps of at most an explicit h_max = 0.5 cannot cover [0, 2].
        calls = []
        monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError):
            integrate_system(
                lambda t, y: calls.append(t) or y, 0.0, ONES, 2.0, IntegratorConfig(h_max=0.5)
            )
        assert calls == []

    def test_budget_exhausted_while_stepping(self, monkeypatch):
        # Reachable in 3 steps of h_max, but the first steps start from H_INIT.
        monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError, match="exhausted"):
            integrate_system(lambda t, y: y, 0.0, ONES, 1.0, CFG)

    def test_divergence_error(self):
        # y' = y^2 from 1e154 blows up at t = 1e-154, inside the one step
        # H_MIN to t_end, so even the smallest step overflows the state.
        # `y[0] * y[0]` overflows to inf where `y[0] ** 2` would raise
        # OverflowError.
        with pytest.raises(DivergenceError, match="non-finite"):
            integrate_system(
                lambda t, y: (y[0] * y[0], y[1] * y[1], y[2] * y[2]),
                0.0, [1e154] * 3, ode_core.H_MIN, CFG,
            )

    def test_overflow_that_halves_below_h_min_is_divergence(self):
        # The same field over [0, 5]: every trial from H_INIT down overflows,
        # so the halving passes H_MIN; that is divergence, not stiffness.
        with pytest.raises(DivergenceError) as info:
            integrate_system(
                lambda t, y: (y[0] * y[0], y[1] * y[1], y[2] * y[2]),
                0.0, [1e154] * 3, 5.0, CFG,
            )
        assert str(info.value) == (
            "state became non-finite after t = 0.0; last finite state (1e+154, 1e+154, 1e+154)"
        )

    def test_blow_up_stops_at_the_float_spacing(self):
        # y' = y^2 from 1 blows up at t = 1.  The step shrinks with 1 - t and
        # falls below the float spacing at t while the state is ~1e12; a step
        # that cannot move t is refused, instead of stepping in place until
        # the state overflows (230,323 RHS calls before).
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (y[0] * y[0], y[1] * y[1], y[2] * y[2])

        with pytest.raises(StepUnderflowError, match="float spacing at t = 0.99999999999"):
            integrate_system(rhs, 0.0, ONES, 5.0, CFG)
        assert len(calls) < 30_000

    def test_step_that_cannot_move_t_is_refused(self):
        # From t0 = 1e20 the first trial step H_INIT is below one ulp (16384).
        calls = []
        with pytest.raises(StepUnderflowError, match="float spacing at t = 1e[+]20"):
            integrate_system(lambda t, y: calls.append(t) or y, 1e20, ONES, 2e20, CFG)
        assert calls == [1e20]

    def test_stiff_rejections_below_h_min_are_refused(self):
        # y' = -1e15 y: every trial from H_INIT down to H_MIN has a finite
        # error above 1, so the rejections shrink h past H_MIN, which is
        # stiffness, not divergence.
        with pytest.raises(StepUnderflowError, match="below H_MIN"):
            integrate_system(lambda t, y: (-1e15 * y[0], 0.0, 0.0), 0.0, (1.0, 0.0, 0.0), 1.0, CFG)

    def test_nonfinite_initial_state(self):
        with pytest.raises(DomainError, match="non-finite initial state"):
            integrate_system(lambda t, y: y, 0.0, [1.0, 1.0, math.nan], 1.0, CFG)

    @pytest.mark.parametrize("y0", [[1.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0]], ids=len)
    def test_state_must_have_three_components(self, y0):
        calls = []
        with pytest.raises(DomainError, match="3 components"):
            integrate_system(lambda t, y: calls.append(t) or y, 0.0, y0, 1.0, CFG)
        assert calls == []

    @pytest.mark.parametrize("t0, t_end", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)])
    def test_nonfinite_bounds(self, t0, t_end):
        calls = []
        with pytest.raises(DomainError, match="bounds"):
            integrate_system(lambda t, y: calls.append(t) or y, t0, ONES, t_end, CFG)
        assert calls == []

    def test_state_is_a_tuple_of_floats(self):
        # rhs may return any sequence; the stepper hands it tuples of floats.
        seen = []
        sol = integrate_system(lambda t, y: seen.append(y) or [1, 2, 3], 0.0, [0, 0, 0], 0.01, CFG)
        assert seen and all(
            type(y) is tuple and len(y) == 3 and all(type(v) is float for v in y) for y in seen
        )
        assert sol.ys.dtype == np.float64
        assert sol.ys[-1].tolist() == pytest.approx([0.01, 0.02, 0.03], rel=1e-12)

    def test_step_halving_convergence(self):
        tau = 1e-8
        vals = []
        for tol in (tau, tau / 10.0):
            cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol)
            sol = integrate_system(flux_system(1.0), 0.0, [0.0, 0.0, 1.0], 10.0, cfg)
            vals.append(sol.ys[-1][1])
        assert abs(vals[0] - vals[1]) < 10.0 * tau

    @pytest.mark.parametrize("n", [0.1, 0.7, 1.0, 1.5, 2.0])
    def test_positivity_and_monotone_slope(self, n):
        prof = integrate(flux_system(n), n, 1.0, 10.0, CFG, flux_nonnegative_projector(n))
        w = prof.grid.ys[:, 2]
        fp = prof.grid.ys[:, 1]
        # For n > 1 the flux extinguishes at finite eta; beyond that point it
        # sits at round-off level and the slope is constant.
        alive = w > 1e-8
        assert np.all(w[alive] > 0.0)
        assert np.all(w >= -1e-10)
        assert np.all(np.diff(fp[alive]) > 0.0)
        assert np.all(np.diff(fp) >= 0.0)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.6])
    def test_formulation_equivalence(self, n):
        # Flux and explicit-curvature forms must agree while f'' is well away
        # from zero; the gap is limited by accumulated global error, roughly
        # 1e2-1e3 times the local tolerance.
        abscissae = np.linspace(0.0, 2.5, 40)
        slopes = []
        for rhs in (flux_system(n), direct_system(n)):
            g = integrate_system(rhs, 0.0, [0.0, 0.0, 1.0], 2.5, CFG, stops=abscissae[1:-1])
            nodes = np.searchsorted(g.ts, abscissae)
            assert np.array_equal(g.ts[nodes], abscissae)
            slopes.append(g.ys[nodes, 1])
        assert np.all(np.abs(slopes[0] - slopes[1]) < 1e-9)

    def test_stops_are_nodes(self):
        stops = (0.1, 1.0 / 3.0, 2.0, 6.0, 9.999)
        grid = integrate_system(lambda t, y: y, 0.0, ONES, 10.0, CFG, stops=stops)
        assert set(stops) <= set(grid.ts.tolist())
        assert np.all(np.diff(grid.ts) > 0.0) and grid.ts[-1] == 10.0
        assert grid.ys[-1].tolist() == pytest.approx([math.exp(10.0)] * 3, rel=1e-10)

    def test_stop_is_not_overshot(self, monkeypatch):
        # From t = -0.4 the clipped step 3e-17 - t rounds up to 0.4 + 2^-54,
        # so t + h would pass the stop by 2.6e-17; the node is set on it.
        # An explicit h_max = 0.5 then puts one node between it and t_end.
        monkeypatch.setattr(ode_core, "H_INIT", 0.5)
        config = IntegratorConfig(h_max=0.5)
        grid = integrate_system(
            lambda t, y: (0.0, 0.0, 0.0), -0.4, ONES, 1.0, config, stops=(3e-17,)
        )
        assert grid.ts.tolist() == [-0.4, 3e-17, 0.5, 1.0]

    @pytest.mark.parametrize(
        "stops",
        [(2.0, 1.0), (1.0, 1.0), (0.0,), (-1.0,), (3.0,), (5.0,), (math.nan,), (math.inf,)],
        ids=["unsorted", "repeated", "at-t0", "before-t0", "at-t_end", "past-t_end", "nan", "inf"],
    )
    def test_bad_stops_rejected_before_stepping(self, stops):
        calls = []
        with pytest.raises(DomainError, match="stops"):
            integrate_system(lambda t, y: calls.append(t) or y, 0.0, ONES, 3.0, CFG, stops=stops)
        assert calls == []


def _instrumented_star_run(n, stops=(), config=CFG):
    """The star IVP to 10 (at the default tolerance unless `config` is given),
    with the abscissa of every RHS call, per projector call whether it changed
    the state, and the flux each projector call received."""
    rhs, project = flux_system(n), flux_nonnegative_projector(n)
    abscissas, changed, fluxes = [], [], []

    def counted_rhs(t, y):
        abscissas.append(t)
        return rhs(t, y)

    def counted_project(y):
        out = project(y)
        changed.append(out != y)
        fluxes.append(y[2])
        return out

    grid = integrate_system(
        counted_rhs, 0.0, (0.0, 0.0, 1.0), 10.0, config, counted_project, stops
    )
    return grid, abscissas, changed, fluxes


class TestKernel:
    """Pins the stepper's output bit for bit, so that a change meant to keep
    the numbers shows any drift."""

    # fpp0 and star-grid node counts (x86-64, glibc libm).
    @pytest.mark.parametrize(
        "n, fpp0_hex, nodes",
        [
            (0.1, "0x1.a7281f4c66d34p-1", 204),
            (0.3, "0x1.90e96626cbeb9p-2", 225),
            (0.5, "0x1.53b53fb8ee563p-2", 255),
            (1.0, "0x1.5406d69dc3483p-2", 310),
            (1.7, "0x1.8400f72c2efdcp-2", 241),
            (2.0, "0x1.9962b34340e1ap-2", 228),
        ],
        ids=["0.1", "0.3", "0.5", "1.0", "1.7", "2.0"],
    )
    def test_solve_is_bit_identical(self, n, fpp0_hex, nodes):
        result = solve(n)
        assert result.fpp0.hex() == fpp0_hex
        assert len(result.star_profile.grid.ts) == nodes

    # Right-hand-side calls and state-changing projections on the default
    # star IVP, and those of one run with stops at 6 and 8.  The ids keep
    # the counts first recorded, with the Dormand-Prince stepper, so that the
    # test names stay stable when the pins are re-recorded.
    @pytest.mark.parametrize(
        "n, stops, calls, projections",
        [(0.3, (), 1345, 0), (1.0, (), 1868, 1), (1.7, (), 1520, 1), (1.0, (6.0, 8.0), 1868, 1)],
        ids=["0.3-1597-0", "1.0-2108-1", "1.7-1718-1", "1.0-stops-2114-1"],
    )
    def test_rhs_call_contract(self, n, stops, calls, projections):
        grid, abscissas, changed, _ = _instrumented_star_run(n, stops)
        # An attempted step ends with two stages at t + h, and a projection
        # that changes the state re-evaluates at that same t: count each run
        # of equal abscissas once.
        attempted = sum(
            1
            for i in range(1, len(abscissas))
            if abscissas[i] == abscissas[i - 1] and (i == 1 or abscissas[i - 1] != abscissas[i - 2])
        )
        assert len(abscissas) == calls
        assert sum(changed) == projections
        assert len(abscissas) == 1 + 6 * attempted + projections
        assert attempted >= len(grid.ts) - 1

    # The grid's own counts against the same instrumented run: RHS calls,
    # state-changing projections, and rejected steps (the Tsitouras pair
    # rejects 2 of 311 attempted steps at n = 1.0 and 13 of 253 at 1.7).
    @pytest.mark.parametrize(
        "n, calls, refreshes, rejected", [(0.3, 1345, 0, 0), (1.0, 1868, 1, 2), (1.7, 1520, 1, 13)]
    )
    def test_grid_counts_its_own_work(self, n, calls, refreshes, rejected):
        grid, abscissas, changed, fluxes = _instrumented_star_run(n)
        assert len(abscissas) == calls == 1 + 6 * grid.attempted + grid.refreshes
        assert grid.refreshes == sum(changed) == refreshes
        # The projector sees only accepted states below the cutoff, each once:
        # one call per stored state after the wall with w < CUTOFF.
        assert all(w < CUTOFF for w in fluxes)
        assert len(changed) == sum(1 for _, _, w in grid.states[1:] if w < CUTOFF)
        assert grid.attempted - (len(grid.nodes) - 1) == rejected

    # The stepper calls the projector only on accepted states whose flux is
    # below the cutoff of the run's own config: never at n = 0.3, where the
    # flux stays above it; at n = 1.0 and 1.7 on the first pinned state and
    # the w = 0 states after it; and at tol 1e-6 below that config's cutoff
    # 1e-4, which the default cutoff 1e-10 would not reach.
    @pytest.mark.parametrize(
        "n, tol, calls, rhs_calls, largest",
        [
            (0.3, 1e-12, 0, 1345, None),
            (1.0, 1e-12, 4, 1868, 3.2770133973320537e-11),
            (1.7, 1e-12, 9, 1520, 5.323051465227493e-11),
            (1.7, 1e-6, 6, 242, 2.787740654834931e-05),
        ],
        ids=["0.3", "1.0", "1.7", "1.7-loose"],
    )
    def test_projector_sees_only_pinned_range_fluxes(self, n, tol, calls, rhs_calls, largest):
        config = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        cutoff = ode_core.flux_cutoff(config)
        _, abscissas, changed, fluxes = _instrumented_star_run(n, config=config)
        assert len(fluxes) == calls and len(abscissas) == rhs_calls
        assert max(fluxes, default=None) == largest
        assert all(w < cutoff for w in fluxes)
        # After the first pin the flux stays 0, so only that call changes y.
        assert changed[:1] == [True] * min(calls, 1) and not any(changed[1:])

    # SHA-256 of the bytes of ts, ys and the field at each stored node
    # (`_node_derivatives`) of the projected star IVP.
    @pytest.mark.parametrize(
        "n, stops, digest",
        [
            (0.3, (), "77482f8f14dc6ac21c4207d515c9369ff6efef9f5f60d147824addc8573905b4"),
            (1.0, (), "c3df9c64a07abebce49cbd53b1ee9d8d560795e11df6d1f20702fa69318c5e82"),
            (1.7, (), "161f0b718221386bd46efd41d1e565ab66fc051a3fb0476887221c425928eceb"),
            (1.0, (6.0, 8.0), "6f4ec60c51496ddcd169fef597eafe67659a4569f82aa1a1591af47c6216847c"),
        ],
        ids=["0.3", "1.0", "1.7", "1.0-stops"],
    )
    def test_whole_grid_is_bit_identical(self, n, stops, digest):
        rhs = flux_system(n)
        grid = integrate_system(rhs, 0.0, (0.0, 0.0, 1.0), 10.0, CFG, flux_nonnegative_projector(n), stops)
        sha = hashlib.sha256()
        for array in (grid.ts, grid.ys, _node_derivatives(rhs, grid)):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    # The same digest (x86-64, glibc libm), with the run's RHS calls and
    # state-changing projections, over more of the stepper: star IVPs at both
    # ends of the exponent range; a shooting-frame trial from f''(0) = 0.3 to
    # eta = 7 with stops at 2 and 5 (8 rejected steps, one projection, and
    # 9 steps that grow by the 5x cap); and a loose-tolerance run, whose
    # cutoff follows its tolerance (14 rejected steps, one projection, and
    # 8 steps that grow by the 5x cap).
    @pytest.mark.parametrize(
        "n, fpp0, eta_end, stops, tol, digest, calls, projections",
        [
            (0.1, 1.0, 10.0, (), 1e-12,
             "6eb877ffebafdf6ecf168aa76190ee7cc056b7f5f8cadbd2f8a9f0da6ed98d63", 1219, 0),
            (2.5, 1.0, 10.0, (), 1e-12,
             "8d37d47062685c316a817b2131d1d7a4eb0098923d77209477ed63c4648e1dd7", 1454, 1),
            (1.5, 0.3, 7.0, (2.0, 5.0), 1e-12,
             "ad58c05c2db2979fd04e4a06a60eea99ae418fc4beb9ad5953830101d08b2d69", 1238, 1),
            (1.7, 1.0, 10.0, (), 1e-6,
             "3aa9bdccd419bbb2e8db5d1afc8729d8b2a78c42c8510c4cfb434fa85e8ffdb6", 242, 1),
        ],
        ids=["0.1", "2.5", "1.5-trial-stops", "1.7-loose"],
    )
    def test_more_grids_are_bit_identical(
        self, n, fpp0, eta_end, stops, tol, digest, calls, projections
    ):
        config = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        rhs, project = flux_system(n), flux_nonnegative_projector(n)
        counts = {"calls": 0, "projections": 0}

        def counted_rhs(t, y):
            counts["calls"] += 1
            return rhs(t, y)

        def counted_project(y):
            out = project(y)
            counts["projections"] += out != y
            return out

        grid = integrate(counted_rhs, n, fpp0, eta_end, config, counted_project, stops).grid
        sha = hashlib.sha256()
        for array in (grid.ts, grid.ys, _node_derivatives(rhs, grid)):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest
        assert counts == {"calls": calls, "projections": projections}
        assert calls == 1 + 6 * grid.attempted + grid.refreshes and grid.refreshes == projections

    # SHA-256 over the star grids of `solve` at n = 0.10, 0.15, ..., 2.50:
    # per exponent the nodes, the states and fpp0, as little-endian doubles
    # (x86-64, glibc libm; the same on Python 3.10 to 3.13).  A change to the
    # stepper or the field that is meant to keep the numbers keeps this digest.
    def test_star_grids_are_bit_identical(self):
        sha = hashlib.sha256()
        for percent in range(10, 251, 5):
            result = solve(percent / 100)
            grid = result.star_profile.grid
            values = [*grid.nodes, *itertools.chain.from_iterable(grid.states), result.fpp0]
            sha.update(struct.pack(f"<{len(values)}d", *values))
        digest = "9dfff55eefbf8181b3b68d959b06c651aeaa8a89b7f1e4928270caac051d2ffc"
        assert sha.hexdigest() == digest


    # SHA-256 of fpp0 alone, as little-endian doubles, for n = 0.10, 0.11, ...,
    # 2.50 at eta* = 6, 8 and 10 (x86-64, glibc libm).  The old step cap
    # h_max = 0.5 gives the same digest: the steps that cap clipped come
    # after the far field has settled at these boundaries.
    def test_fpp0_is_bit_identical_at_short_boundaries(self):
        sha = hashlib.sha256()
        for eta in (6.0, 8.0, 10.0):
            config = NitmConfig(eta_star_inf=eta)
            values = [solve(percent / 100, config).fpp0 for percent in range(10, 251)]
            sha.update(struct.pack(f"<{len(values)}d", *values))
        digest = "013b68c007e1d114aa1d3f9ac05d59d0853049a6dbaf2f4ed4a0b04d0c13bd8b"
        assert sha.hexdigest() == digest


class TestIntegratorConfig:
    def test_bad_tolerances(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rel_tol=0.0)

    @pytest.mark.parametrize(
        "value, field",
        [*itertools.product([math.nan, math.inf], ["rel_tol", "abs_tol"]), (math.nan, "h_max")],
    )
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError):
            IntegratorConfig(**{field: value})

    def test_h_max_defaults_to_no_cap(self):
        assert IntegratorConfig().h_max == math.inf
        assert IntegratorConfig(h_max=math.inf) == IntegratorConfig()

    def test_bad_step_bounds(self):
        # h_max below the first trial step H_INIT = 1e-3.
        with pytest.raises(DomainError):
            IntegratorConfig(h_max=5e-4)
