import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from blasius_powerlaw import ode_core
from blasius_powerlaw.ode_core import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    curvature_from_flux,
    flux_from_curvature,
)
from blasius_powerlaw.nitm import (
    NitmConfig,
    group_parameters,
    profile_ode_residuals,
    rescale_profile,
    solve,
    solve_excluded,
    solve_nitm,
    solve_star_ivp,
)
from blasius_powerlaw.shooting import ShootingConfig, shoot_residual, solve_shooting

# Wall curvatures computed by this package at eta*_inf = 10 with tolerance
# 1e-12, cross-validated to ~5e-11 against an independent implicit
# integrator (and against the in-suite shooting oracle at matched
# truncation).  Regression anchors, not literature values.
COMPUTED_FPP0 = {
    0.1: 0.826477983545,
    0.2: 0.490341913183,
    0.3: 0.391515346639,
    0.4: 0.350395599554,
    0.6: 0.323945760576,
    0.7: 0.322033780950,
    0.8: 0.323543760491,
    0.9: 0.327139242132,
    1.0: 0.332057336217,
    1.1: 0.337833030082,
    1.2: 0.344165098907,
    1.3: 0.350851549007,
    1.4: 0.357753491879,
    1.5: 0.364773529492,
    1.6: 0.371842316562,
    1.7: 0.378909933159,
    1.8: 0.385940189006,
    1.9: 0.392906770026,
}


ULP = 2.0**-52

exponents = st.floats(min_value=0.05, max_value=3.0)
slopes = st.floats(min_value=0.05, max_value=50.0)


class TestScalingExponent:
    """delta = (2 - n)/(1 - 2n) of the classical parametrisation, reported
    by the solve; the solve itself does not use it."""

    def test_values(self):
        assert solve(1.0).delta == -1.0
        assert solve(0.3).delta == pytest.approx(4.25)
        assert solve(1.7).delta == pytest.approx(-0.125)

    def test_half_undefined(self):
        result = solve(0.5)
        assert result.delta is None
        assert result.lam == 1.0  # a = 1: the group is a pure stretch of eta

    def test_two_degenerate(self):
        result = solve(2.0)
        assert result.delta == 0.0
        assert math.copysign(1.0, result.delta) == 1.0  # +0.0, not -0.0
        # b = 1: the group is a pure scaling of f, so lambda = 1/a = F'_inf.
        assert result.lam == pytest.approx(result.fp_star_inf, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            solve(-1.0)

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_exponent(self, n):
        # Both routes refuse the exponent; flux_system does so before it
        # takes 1/(n + 1).
        with pytest.raises(DomainError, match="exponent"):
            solve(n)
        with pytest.raises(DomainError, match="exponent"):
            shoot_residual(n, 0.3)


class TestLambdaAlgebra:
    """The group element f = a F(b eta) read off the far-field slope F'_inf;
    the classical group parameter is lambda = 1/a."""

    def test_identity(self):
        assert group_parameters(1.3, 1.0, 1.0) == (1.0, 1.0, 1.0)

    def test_square_root_case(self):
        assert group_parameters(1.0, 4.0, 1.0) == (0.5, 0.5, 0.125)

    def test_blasius_consistency(self):
        a, b, _ = group_parameters(1.0, 2.08541, 1.0)
        assert 1.0 / a == pytest.approx(1.44410, abs=1e-5)
        assert a * b * b == pytest.approx(0.332057, abs=1e-5)

    def test_former_exclusions(self):
        # A pure stretch of eta at n = 1/2, a pure scaling of f at n = 2.
        assert group_parameters(0.5, 1.7, 1.0) == (1.0, 1.7**-1.0, 1.7**-2.0)
        assert group_parameters(2.0, 2.5, 1.0) == (2.5**-1.0, 1.0, 2.5**-1.0)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(DomainError):
            group_parameters(1.0, 0.0, 1.0)

    def test_overflow_is_divergence(self):
        # a = F'_inf^(-3/2) at n = 5 passes the largest float.
        with pytest.raises(DivergenceError, match="overflows"):
            group_parameters(5.0, 1e-210, 1.0)

    def test_rescaling_factor_overflow_is_divergence(self):
        # a = 1/F'_inf = 1e250 is finite at n = 2, but the flux factor a^2 b is not.
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            group_parameters(2.0, 1e-250, 1.0)

    def test_wall_curvature_overflow_is_divergence(self):
        # a b^2 rounds to a finite float here, but F'_inf^(-3/(n+1))
        # passes the largest one.
        with pytest.raises(DivergenceError, match=r"f''\(0\) overflows"):
            group_parameters(0.1, 9.403097977753022e-114, 1.0)
        # F'_inf^(-3/2) = 1e150 is finite, but c0 times it is not.
        with pytest.raises(DivergenceError, match=r"f''\(0\) overflows"):
            group_parameters(1.0, 1e-100, 1e200)

    @given(n=exponents, fp=slopes)
    def test_lambda_inverts_far_field(self, n, fp):
        # lambda^(1 - delta) = F'_inf, the classical form; delta is None at
        # n = 1/2 and 1 - delta blows up beside it.
        assume(abs(n - 0.5) > 0.05)
        a, _, _ = group_parameters(n, fp, 1.0)
        delta = (n - 2.0) / (2.0 * n - 1.0)
        assert (1.0 / a) ** (1.0 - delta) == pytest.approx(fp, rel=1e-13)

    # The exponents (1-2n)/(n+1) and (n-2)/(n+1) are rounded separately and
    # |ln F'_inf| <= 4 amplifies that rounding: a scan of 10^6 points gave
    # at most 7 ulps for a b F'_inf and 21 ulps for a b^2.
    @given(n=exponents, fp=slopes)
    @example(n=0.5, fp=1.736189353689428)
    @example(n=2.0, fp=2.5013095978186546)
    def test_rescaled_far_field_slope_is_one(self, n, fp):
        a, b, _ = group_parameters(n, fp, 1.0)
        assert a * b * fp == pytest.approx(1.0, rel=8 * ULP, abs=0.0)

    @given(n=exponents, fp=slopes)
    @example(n=0.5, fp=1.736189353689428)
    @example(n=2.0, fp=2.5013095978186546)
    def test_wall_curvature_factor(self, n, fp):
        a, b, fpp0 = group_parameters(n, fp, 1.0)
        assert fpp0 == fp ** (-3.0 / (n + 1.0))
        assert a * b * b == pytest.approx(fpp0, rel=32 * ULP, abs=0.0)

    def test_star_curvature_scales_the_wall_curvature(self):
        # The same rounding as solve's c0 * F'_inf^(-3/(n+1)), bit for bit.
        n, fp, c0 = 0.7, 1.7376380052489178, 3.0
        assert group_parameters(n, fp, c0)[2] == c0 * fp ** (-3.0 / (n + 1.0))

    def test_overflowing_wall_flux_is_divergence(self):
        # f''(0) = 1e200 is finite at n = 2, but its wall flux 1e400 is not.
        with pytest.raises(DivergenceError, match="viscous flux"):
            group_parameters(2.0, 1e-100, 1e100)


class TestStarIvp:
    def test_initial_conditions(self):
        prof = solve_star_ivp(1.3, NitmConfig())
        assert prof.grid.ts[0] == 0.0
        assert tuple(prof.grid.ys[0]) == (0.0, 0.0, 1.0)

    def test_blasius_far_field(self):
        prof = solve_star_ivp(1.0, NitmConfig())
        assert prof.final.fp == pytest.approx(2.08541, abs=1e-5)
        assert prof.final.w < 1e-3

    def test_custom_c0_initial_flux(self):
        prof = solve_star_ivp(2.0, NitmConfig(c0=3.0))
        assert prof.grid.ys[0, 2] == pytest.approx(9.0)

    @pytest.mark.parametrize("n, c0", [(1.0, 1e-11), (2.0, 1e-5), (300.0, 0.9)])
    def test_wall_flux_below_cutoff_rejected(self, monkeypatch, n, c0):
        # The projector would zero such a flux after the first step and leave
        # F' nearly flat, so f''(0) would be ~1e10 at n = 1, c0 = 1e-11.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a wall flux below the cutoff")

        monkeypatch.setattr(ode_core, "integrate_system", no_integration)
        with pytest.raises(DomainError, match="wall flux"):
            solve(n, NitmConfig(c0=c0))

    def test_wall_flux_overflow_is_numerical_failure(self):
        # The check compares the encoded flux, so c0^n that overflows a float
        # is an OdeError, not an OverflowError.
        with pytest.raises(DivergenceError, match="overflows"):
            solve(3000.0, NitmConfig(c0=10.0))

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    def test_curvatures_are_the_decoded_flux(self, n):
        # curvatures() reads f'' from the stored derivatives; it must equal
        # the per-node decode of the stored flux bit for bit, projected
        # nodes (w = 0, n > 1) included.
        prof = solve_star_ivp(n, NitmConfig())
        w = prof.grid.ys[:, 2]
        decoded = np.array([curvature_from_flux(float(x), n) for x in w])
        assert prof.curvatures().tobytes() == decoded.tobytes()
        if n > 1.0:
            assert np.any(w == 0.0)


class TestRescale:
    def test_identity_group_element(self):
        star = solve_star_ivp(1.0, NitmConfig())
        phys = rescale_profile(star, 1.0, 1.0)
        assert np.array_equal(phys.grid.ts, star.grid.ts)
        assert np.array_equal(phys.grid.ys, star.grid.ys)
        assert np.array_equal(phys.grid.dys, star.grid.dys)
        assert phys.n == star.n == 1.0

    def test_origin_row(self):
        star = solve_star_ivp(1.0, NitmConfig())
        phys = rescale_profile(star, 0.5, 0.5)
        assert phys.grid.ts[0] == 0.0
        assert phys.grid.ys[0, 0] == 0.0 and phys.grid.ys[0, 1] == 0.0
        assert phys.curvatures()[0] == pytest.approx(0.125)

    @pytest.mark.filterwarnings("error")
    def test_column_overflow_is_divergence(self):
        # F'_inf = c0 eta* = 1e-100 gives finite factors (a, a b, a^2 b) =
        # (1e100, 1e100, 1e200), but the wall flux W = c0^2 = 1e200 times
        # a^2 b passes the largest float.  group_parameters refuses this
        # boundary by that flux when given c0; without it, rescale_profile's
        # own guard is the one that fires.
        star = solve_star_ivp(2.0, NitmConfig(eta_star_inf=1e-200, c0=1e100))
        a, b, _ = group_parameters(2.0, star.final.fp, 1.0)
        with pytest.raises(DivergenceError, match="physical profile overflows"):
            rescale_profile(star, a, b)

    @pytest.mark.filterwarnings("error")
    def test_solve_overflow_is_divergence(self):
        # F'_inf = eta* = 1e-250: a^2 b = 1e500 overflows before the rescaling.
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            solve(2.0, NitmConfig(eta_star_inf=1e-250))


# Physical profiles of solve(n) as the per-node exp/log rescaling made them.
# SHA-256 of the eta, f and f' columns (little-endian float64, in that
# order), fpp0, and (w, w', f'') at node indices 0, 1, m/4, m/2, 3m/4, m-1
# for m nodes.
PHYSICAL_PINS = {
    0.3: (
        "95d726d0b5d8df7726f288fe56d2639540fad0354ea74debfb8444d21de710fb",
        "0x1.90e96626c9915p-2",
        [
            ("0x1.82737e37f4b5cp-1", "-0x0.0p+0", "0x1.90e96626c9915p-2"),
            ("0x1.82737e371fea7p-1", "-0x1.6e71334e424e4p-23", "0x1.90e96623e9b64p-2"),
            ("0x1.5e62353e5300bp-1", "-0x1.bd6525a1b9f71p-4", "0x1.2135aaa9bbb2ep-2"),
            ("0x1.892d1127c51dep-2", "-0x1.5100d2b618880p-4", "0x1.510a006ffd858p-5"),
            ("0x1.9c551908af2b9p-3", "-0x1.8765990644950p-6", "0x1.3979fcd71c0e7p-8"),
            ("0x1.9c0d352a249b5p-4", "-0x1.6b06715c32126p-8", "0x1.f07bf2dadc85ap-12"),
        ],
    ),
    1.0: (
        "b53b78e3fb9a1e35fdcec4e93e5b342c5c7d8ccef45b2233e31d88f45ba7f278",
        "0x1.5406d69dcc1c7p-2",
        [
            ("0x1.5406d69dcc1c6p-2", "-0x0.0p+0", "0x1.5406d69dcc1c6p-2"),
            ("0x1.5406d69d52692p-2", "-0x1.edcbb317f1285p-25", "0x1.5406d69d52692p-2"),
            ("0x1.90bb05fa66beep-3", "-0x1.cc164f30b6e77p-4", "0x1.90bb05fa66beep-3"),
            ("0x1.3bf850966e9abp-6", "-0x1.f40306b6bbd94p-6", "0x1.3bf850966e9abp-6"),
            ("0x1.f1b9cf399fb70p-12", "-0x1.35d182ad15e0cp-10", "0x1.f1b9cf399fb70p-12"),
            ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"),
        ],
    ),
    1.7: (
        "d6577da6a2187b97b41fc3c107f509b95e2e3b1fbd1b40f69f90df3dc50aa019",
        "0x1.8400f72c30bbep-2",
        [
            ("0x1.8967f8ee40d07p-3", "-0x0.0p+0", "0x1.8400f72c30bbep-2"),
            ("0x1.8967f8edd8838p-3", "-0x1.154e99898fd57p-25", "0x1.8400f72bf4392p-2"),
            ("0x1.1f8644b388214p-3", "-0x1.33c8612faaa98p-4", "0x1.42a7a0a054600p-2"),
            ("0x1.bfc1674b0927cp-7", "-0x1.ccbe5482005e5p-5", "0x1.47d47e103cf8fp-4"),
            ("0x1.60890fed5ec92p-13", "-0x1.559a54bdfcc9dp-8", "0x1.8aaa3fa06d703p-8"),
            ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"),
        ],
    ),
}


class TestPhysicalProfile:
    """Column scaling keeps eta, f, f' and fpp0 bit for bit; only the flux
    columns and the reported f'' may move, by round-off."""

    @pytest.mark.parametrize("n", sorted(PHYSICAL_PINS))
    def test_columns_and_fpp0_are_bit_identical(self, n):
        digest, fpp0_hex, _ = PHYSICAL_PINS[n]
        result = solve(n)
        grid = result.profile.grid
        h = hashlib.sha256()
        for column in (grid.ts, grid.ys[:, 0], grid.ys[:, 1]):
            h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
        assert h.hexdigest() == digest
        assert result.fpp0.hex() == fpp0_hex

    @pytest.mark.parametrize("n", sorted(PHYSICAL_PINS))
    def test_flux_columns_within_round_off(self, n):
        result = solve(n)
        grid = result.profile.grid
        fpp = result.profile.curvatures()
        m = len(grid.ts)
        for i, pins in zip((0, 1, m // 4, m // 2, 3 * m // 4, m - 1), PHYSICAL_PINS[n][2]):
            got = (grid.ys[i, 2], grid.dys[i, 2], fpp[i])
            for value, pin in zip(got, pins):
                assert value == pytest.approx(float.fromhex(pin), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    def test_flux_encodes_the_curvature(self, n):
        # w = a^2 b W holds because a^(n-2) b^(2n-1) = 1, so the scaled flux
        # column still encodes the scaled curvature.
        result = solve(n)
        fpp = result.profile.curvatures()
        encoded = np.array([flux_from_curvature(float(x), n) for x in fpp])
        assert np.allclose(result.profile.grid.ys[:, 2], encoded, rtol=1e-14, atol=0.0)
        assert fpp[0] == pytest.approx(result.fpp0, rel=4 * ULP, abs=0.0)


class TestSolveNitm:
    @pytest.mark.parametrize("n,expected", sorted(COMPUTED_FPP0.items()))
    def test_regression_values(self, n, expected):
        assert solve_nitm(n).fpp0 == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [0.2, 0.9, 1.4])
    def test_far_field_slope_is_one(self, n):
        result = solve_nitm(n)
        assert abs(result.profile.final.fp - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [0.2, 0.9, 1.4])
    def test_lambda_consistency(self, n):
        result = solve_nitm(n)
        assert result.lam ** (1.0 - result.delta) == pytest.approx(
            result.fp_star_inf, rel=1e-13
        )

    @pytest.mark.parametrize("n", [1.0, 1.7])
    def test_group_invariance_in_c0(self, n):
        # The answer must not depend on the starting curvature of the scaled
        # IVP (holds to round-off wherever the far field has converged
        # within the truncated domain).
        a = solve_nitm(n, NitmConfig(c0=1.0)).fpp0
        b = solve_nitm(n, NitmConfig(c0=2.0)).fpp0
        assert a == pytest.approx(b, abs=1e-8)

    def test_monotone_decreasing_small_n(self):
        vals = [solve_nitm(n).fpp0 for n in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_increasing_large_n(self):
        vals = [solve_nitm(round(1.0 + k / 10.0, 1)).fpp0 for k in range(1, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_solve_is_solve_nitm(self):
        assert solve is solve_nitm

    @pytest.mark.parametrize("n", [0.5, 2.0])
    def test_former_exclusions_match_shooting(self, n):
        # Shooting needs no group, so it checks these exponents directly
        # at the same physical boundary.
        result = solve(n)
        assert result.method_tag == "direct"
        shoot = solve_shooting(n, ShootingConfig(eta_inf=result.profile.final.eta))
        assert abs(result.fpp0 - shoot.fpp0) <= 1e-11

    def test_continuous_through_half(self):
        centre = solve(0.5).fpp0
        for n in (0.5 - 1e-9, 0.5 + 1e-9):
            result = solve(n)
            assert result.method_tag == "direct"
            assert abs(result.fpp0 - centre) <= 1e-9


class TestSolveExcluded:
    def test_half(self):
        result = solve_excluded(0.5)
        assert result.method_tag == "extrapolated"
        # Central average of the n = 0.4 and n = 0.6 solves.
        expected = 0.5 * (solve_nitm(0.4).fpp0 + solve_nitm(0.6).fpp0)
        assert result.fpp0 == pytest.approx(expected, abs=1e-12)
        assert result.fpp0 == pytest.approx(0.337170680, abs=1e-8)

    def test_two(self):
        result = solve_excluded(2.0)
        assert result.method_tag == "extrapolated"
        assert result.fpp0 == pytest.approx(0.399809676, abs=1e-8)

    def test_not_excluded_rejected(self):
        with pytest.raises(DomainError):
            solve_excluded(1.3)

    def test_profile_from_nearest_node(self):
        # Only fpp0 comes from the neighbouring nodes; the profile and the
        # group parameters are those of n itself, not of n = 1.9.
        result, direct = solve_excluded(2.0), solve(2.0)
        assert result.profile.n == 2.0
        assert result.delta == direct.delta == 0.0
        assert math.copysign(1.0, result.delta) == 1.0
        assert result.lam == direct.lam and result.fp_star_inf == direct.fp_star_inf
        assert np.array_equal(result.profile.grid.ys, direct.profile.grid.ys)


class TestResiduals:
    def test_fine_grid_residual_small(self):
        cfg = NitmConfig(integrator=IntegratorConfig(h_max=2e-3))
        result = solve_nitm(1.0, cfg)
        assert np.max(np.abs(profile_ode_residuals(result.profile))) <= 1e-6

    def test_coarse_grid_residual_is_grid_limited(self):
        result = solve_nitm(1.0)
        assert np.max(np.abs(profile_ode_residuals(result.profile))) <= 1e-3


class TestNitmConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            NitmConfig(eta_star_inf=0.0)
        with pytest.raises(DomainError):
            NitmConfig(c0=-1.0)

    @pytest.mark.parametrize("field", ["eta_star_inf", "c0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, field, value):
        # `nan <= 0` is false, so a sign check alone would let NaN through.
        with pytest.raises(DomainError):
            NitmConfig(**{field: value})
