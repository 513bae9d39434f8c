import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blasius_powerlaw import ode_core
from blasius_powerlaw.nitm import solve
from blasius_powerlaw.ode_core import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    OdeError,
    StepBudgetError,
    curvature_from_flux,
    flux_from_curvature,
    flux_nonnegative_projector,
    flux_system,
    integrate,
    integrate_system,
)


CFG = IntegratorConfig()

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

    def test_underflow_guard(self):
        assert curvature_from_flux(0.0, 1.3) == 0.0
        assert curvature_from_flux(1e-310, 1.3) == 0.0

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
        # 3 steps of at most h_max = 0.5 cannot cover [0, 2].
        calls = []
        monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError):
            integrate_system(lambda t, y: calls.append(t) or y, 0.0, ONES, 2.0, CFG)
        assert calls == []

    def test_budget_exhausted_while_stepping(self, monkeypatch):
        # Reachable in 3 steps of h_max, but the first steps start from H_INIT.
        monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError, match="exhausted"):
            integrate_system(lambda t, y: y, 0.0, ONES, 1.0, CFG)

    def test_divergence_error(self):
        # y' = y^2 blows up at t = 1.  `y[0] * y[0]` overflows to inf where
        # `y[0] ** 2` would raise OverflowError.
        with pytest.raises(DivergenceError):
            integrate_system(
                lambda t, y: (y[0] * y[0], y[1] * y[1], y[2] * y[2]), 0.0, ONES, 5.0, CFG
            )

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
        assert sol.ys.dtype == sol.dys.dtype == np.float64
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
        prof = integrate(flux_system(n), n, 1.0, 10.0, CFG, flux_nonnegative_projector())
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
        monkeypatch.setattr(ode_core, "H_INIT", 0.5)
        grid = integrate_system(
            lambda t, y: (0.0, 0.0, 0.0), -0.4, ONES, 1.0, CFG, stops=(3e-17,)
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


class TestKernel:
    """Pins the stepper to the NumPy-vector loop it replaced, bit for bit."""

    # fpp0 and star-grid node counts of that loop (x86-64, glibc libm).
    @pytest.mark.parametrize(
        "n, fpp0_hex, nodes",
        [
            (0.1, "0x1.a7281f4c61bcap-1", 236),
            (0.3, "0x1.90e96626c9915p-2", 267),
            (0.5, "0x1.53b53fb8ed1d5p-2", 298),
            (1.0, "0x1.5406d69dcc1c7p-2", 354),
            (1.7, "0x1.8400f72c30bbep-2", 287),
            (2.0, "0x1.9962b34340bf0p-2", 272),
        ],
    )
    def test_solve_is_bit_identical(self, n, fpp0_hex, nodes):
        result = solve(n)
        assert result.fpp0.hex() == fpp0_hex
        assert len(result.star_profile.grid.ts) == nodes

    # Right-hand-side calls and state-changing projections that loop made
    # on the default star IVP, and those of one run with stops at 6 and 8.
    @pytest.mark.parametrize(
        "n, stops, calls, projections",
        [(0.3, (), 1597, 0), (1.0, (), 2120, 1), (1.7, (), 1784, 1), (1.0, (6.0, 8.0), 2132, 1)],
        ids=["0.3-1597-0", "1.0-2120-1", "1.7-1784-1", "1.0-stops-2132-1"],
    )
    def test_rhs_call_contract(self, n, stops, calls, projections):
        rhs, project = flux_system(n), flux_nonnegative_projector()
        abscissas, changed = [], []

        def counted_rhs(t, y):
            abscissas.append(t)
            return rhs(t, y)

        def counted_project(y):
            out = project(y)
            changed.append(out != y)
            return out

        grid = integrate_system(
            counted_rhs, 0.0, (0.0, 0.0, 1.0), 10.0, CFG, counted_project, stops
        )
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

    # SHA-256 of the bytes of ts, ys and dys of the projected star IVP, as the
    # length-m tuple loop that the unrolled stepper replaced produced them.
    @pytest.mark.parametrize(
        "n, stops, digest",
        [
            (0.3, (), "8805bf8503ee24d1f76a91d9f0e8e8636964b96c7e339c0579da2ff0e3008881"),
            (1.0, (), "008af1863754d87e3a930d4e715569e44860d653de4e11203e30a0eee2a4053e"),
            (1.7, (), "03b2094ed5388830d03427e572e6b9dc820c738d6730b89d758c08652731c3ef"),
            (1.0, (6.0, 8.0), "c1cd17bec56dd83b9ba30fb7bcb02dfe6592b8c09ef3532bc31e700dec1dde5e"),
        ],
        ids=["0.3", "1.0", "1.7", "1.0-stops"],
    )
    def test_whole_grid_is_bit_identical(self, n, stops, digest):
        grid = integrate_system(
            flux_system(n), 0.0, (0.0, 0.0, 1.0), 10.0, CFG, flux_nonnegative_projector(), stops
        )
        sha = hashlib.sha256()
        for array in (grid.ts, grid.ys, grid.dys):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest


class TestIntegratorConfig:
    def test_bad_tolerances(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rel_tol=0.0)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "h_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError):
            IntegratorConfig(**{field: value})

    def test_bad_step_bounds(self):
        # h_max below the first trial step H_INIT = 1e-3.
        with pytest.raises(DomainError):
            IntegratorConfig(h_max=5e-4)
