import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blasius_powerlaw import cli, nitm, ode_core
from blasius_powerlaw.ode_core import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    OdeError,
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
    star_boundary,
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


def star_from_curvature(n, fpp0, eta):
    """The star IVP from F''(0) = fpp0 to eta at the default tolerance,
    which `solve` never runs for fpp0 != 1: c0 only maps its boundary."""
    config = IntegratorConfig()
    project = ode_core.flux_nonnegative_projector(n)
    return ode_core.integrate(ode_core.flux_system(n), n, fpp0, eta, config, project)


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
        assert group_parameters(1.3, 1.0) == (1.0, 1.0, 1.0)

    def test_square_root_case(self):
        assert group_parameters(1.0, 4.0) == (0.5, 0.5, 0.125)

    def test_blasius_consistency(self):
        a, b, _ = group_parameters(1.0, 2.08541)
        assert 1.0 / a == pytest.approx(1.44410, abs=1e-5)
        assert a * b * b == pytest.approx(0.332057, abs=1e-5)

    def test_former_exclusions(self):
        # A pure stretch of eta at n = 1/2, a pure scaling of f at n = 2.
        assert group_parameters(0.5, 1.7) == (1.0, 1.7**-1.0, 1.7**-2.0)
        assert group_parameters(2.0, 2.5) == (2.5**-1.0, 1.0, 2.5**-1.0)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(DomainError):
            group_parameters(1.0, 0.0)

    def test_overflow_is_divergence(self):
        # a = F'_inf^(-3/2) at n = 5 passes the largest float.
        with pytest.raises(DivergenceError, match="overflows"):
            group_parameters(5.0, 1e-210)

    def test_rescaling_factor_overflow_is_divergence(self):
        # a = 1/F'_inf = 1e250 is finite at n = 2, but the flux factor a^2 b is not.
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            group_parameters(2.0, 1e-250)

    def test_wall_curvature_overflow_is_divergence(self):
        # f''(0) is a b^2, the factor of the physical f'' column: finite here,
        # where F'_inf^(-3/(n+1)) would pass the largest float, and refused
        # only where a b^2 itself overflows, 127 ulp of F'_inf lower.
        assert group_parameters(0.1, 9.403097977753022e-114)[2] == 1.7976931348622211e308
        assert group_parameters(0.1, 9.40309797775284e-114)[2] == 1.7976931348623157e308
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            group_parameters(0.1, 9.403097977752839e-114)

    @given(n=exponents, fp=slopes)
    def test_lambda_inverts_far_field(self, n, fp):
        # lambda^(1 - delta) = F'_inf, the classical form; delta is None at
        # n = 1/2 and 1 - delta blows up beside it.
        assume(abs(n - 0.5) > 0.05)
        a, _, _ = group_parameters(n, fp)
        delta = (n - 2.0) / (2.0 * n - 1.0)
        assert (1.0 / a) ** (1.0 - delta) == pytest.approx(fp, rel=1e-13)

    # The exponents (1-2n)/(n+1) and (n-2)/(n+1) are rounded separately and
    # |ln F'_inf| <= 4 amplifies that rounding: a scan of 10^6 points gave
    # at most 7 ulps for a b F'_inf and 21 ulps for a b^2.
    @given(n=exponents, fp=slopes)
    @example(n=0.5, fp=1.736189353689428)
    @example(n=2.0, fp=2.5013095978186546)
    def test_rescaled_far_field_slope_is_one(self, n, fp):
        a, b, _ = group_parameters(n, fp)
        assert a * b * fp == pytest.approx(1.0, rel=8 * ULP, abs=0.0)

    @given(n=exponents, fp=slopes)
    @example(n=0.5, fp=1.736189353689428)
    @example(n=2.0, fp=2.5013095978186546)
    def test_wall_curvature_factor(self, n, fp):
        # f''(0) is the f'' factor of `rescale_profile`, so the two agree bit
        # for bit; the single power F'_inf^(-3/(n+1)) is a rounding away.
        a, b, fpp0 = group_parameters(n, fp)
        assert fpp0 == a * b * b
        assert fp ** (-3.0 / (n + 1.0)) == pytest.approx(fpp0, rel=32 * ULP, abs=0.0)

    def test_star_curvature_scales_the_wall_curvature(self):
        # The star IVP from F''(0) = c0 to eta* is the group image of the one
        # from F''(0) = 1 to star_boundary(n, c0, eta*), so its wall curvature
        # c0 F'_inf^(-3/(n+1)) is solve's answer at that c0 up to the tolerance.
        n, c0 = 0.7, 3.0
        star = star_from_curvature(n, c0, 10.0)
        expected = solve(n, NitmConfig(c0=c0)).fpp0
        assert c0 * group_parameters(n, star.final.fp)[2] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_overflowing_wall_flux_is_divergence(self):
        # f''(0) = 1e200 is finite at n = 2, but its wall flux 1e400 is not.
        # From F''(0) = 1 that flux is the factor a^2 b, which the factor check refuses.
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            group_parameters(2.0, 1e-200)


class TestStarIvp:
    def test_initial_conditions(self):
        prof = solve_star_ivp(1.3, IntegratorConfig(), 10.0)
        assert prof.grid.ts[0] == 0.0
        assert tuple(prof.grid.ys[0]) == (0.0, 0.0, 1.0)

    def test_blasius_far_field(self):
        prof = solve_star_ivp(1.0, IntegratorConfig(), 10.0)
        assert prof.final.fp == pytest.approx(2.08541, abs=1e-5)
        assert prof.final.w < 1e-3

    def test_custom_c0_initial_flux(self):
        # c0 moves the boundary, not the wall flux: every star IVP starts
        # from F''(0) = 1, and solve runs it to the mapped boundary.
        prof = solve(1.0, NitmConfig(c0=3.0)).star_profile
        assert prof.grid.ys[0, 2] == 1.0
        assert prof.final.eta == star_boundary(1.0, 3.0, 10.0) == 3.0 ** (1.0 / 3.0) * 10.0

    @pytest.mark.parametrize("n, c0", [(1.0, 1e-11), (2.0, 1e-6), (300.0, 0.9)])
    def test_wall_flux_below_cutoff_rejected(self, monkeypatch, n, c0):
        # A wall flux c0^n at or below the cutoff is never integrated: the
        # projector would zero it after the first step and leave F' nearly
        # flat (f''(0) ~ 1e10 at n = 1, c0 = 1e-11).  The IVP starts from
        # flux 1 instead and answers for the mapped boundary.
        starts = []
        integrate_system = ode_core.integrate_system

        def recording(rhs, t0, y0, *args):
            starts.append(y0[2])
            return integrate_system(rhs, t0, y0, *args)

        monkeypatch.setattr(ode_core, "integrate_system", recording)
        got = solve(n, NitmConfig(c0=c0)).fpp0
        assert starts == [1.0] and flux_from_curvature(c0, n) <= ode_core.flux_cutoff(IntegratorConfig())
        assert got == solve(n, NitmConfig(eta_star_inf=star_boundary(n, c0, 10.0))).fpp0

    def test_wall_flux_overflow_is_numerical_failure(self):
        # A wall flux c0^n = 1e3000 is never formed; the star boundary
        # c0^((2-n)/3) eta* underflows instead, an OdeError naming c0 and n.
        with pytest.raises(DivergenceError, match=r"out of range at c0 = 10\.0, n = 3000\.0"):
            solve(3000.0, NitmConfig(c0=10.0))

    @pytest.mark.parametrize("c0, eta", [(0.25, 10.0), (10.0, 10.0), (0.6, 1e300), (1.5, 1e-300)])
    def test_star_boundary_out_of_range_is_divergence(self, c0, eta):
        # c0^(-999.3) overflows at c0 = 0.25 and underflows at c0 = 10; at
        # c0 = 0.6 and 1.5 it is finite, but its product with eta* is not.
        with pytest.raises(DivergenceError, match=rf"out of range at c0 = {c0}, n = 3000\.0$"):
            solve(3000.0, NitmConfig(eta_star_inf=eta, c0=c0))

    @pytest.mark.parametrize(
        "n, frame",
        [(n, frame) for frame in ("star", "physical") for n in (0.3, 1.0, 1.7)],
        ids=["0.3", "1.0", "1.7", "0.3-physical", "1.0-physical", "1.7-physical"],
    )
    def test_curvatures_are_the_decoded_flux(self, n, frame):
        # curvatures() equals the per-node decode of the star's stored flux
        # bit for bit, projected nodes (w = 0, n > 1) included; in the
        # physical frame, times a b^2: the group image, not a decode of the
        # rescaled flux.
        result = solve(n)
        w = result.star_profile.grid.ys[:, 2]
        decoded = np.array([curvature_from_flux(float(x), n) for x in w])
        prof = result.star_profile
        if frame == "physical":
            decoded, prof = result.a * result.b * result.b * decoded, result.profile
        assert np.array(prof.curvatures()).tobytes() == decoded.tobytes()
        if n > 1.0:
            assert np.any(w == 0.0)


class TestRescale:
    def test_identity_group_element(self):
        star = solve_star_ivp(1.0, IntegratorConfig(), 10.0)
        phys = rescale_profile(star, 1.0, 1.0)
        assert np.array_equal(phys.grid.ts, star.grid.ts)
        assert np.array_equal(phys.grid.ys, star.grid.ys)
        assert np.array(phys.curvatures()).tobytes() == np.array(star.curvatures()).tobytes()
        assert phys.n == star.n == 1.0
        # Only an integration counts its work; the rescaled grid did none.
        assert (phys.grid.attempted, phys.grid.refreshes) == (None, None)
        assert star.grid.attempted >= len(star.grid.nodes) - 1

    def test_origin_row(self):
        star = solve_star_ivp(1.0, IntegratorConfig(), 10.0)
        phys = rescale_profile(star, 0.5, 0.5)
        assert phys.grid.ts[0] == 0.0
        assert phys.grid.ys[0, 0] == 0.0 and phys.grid.ys[0, 1] == 0.0
        assert phys.curvatures()[0] == pytest.approx(0.125)

    @pytest.mark.filterwarnings("error")
    def test_column_overflow_is_divergence(self):
        # A star IVP from F''(0) = 1e100 to 1e-200 has F'_inf = 1e-100, which
        # gives finite factors (a, a b, a^2 b) = (1e100, 1e100, 1e200), but
        # its wall flux W = 1e200 times a^2 b passes the largest float.  No
        # `solve` star starts there (its wall flux is 1), so rescale_profile's
        # own guard is the one that fires.
        star = star_from_curvature(2.0, 1e100, 1e-200)
        a, b, _ = group_parameters(2.0, star.final.fp)
        with pytest.raises(DivergenceError, match="physical profile overflows"):
            rescale_profile(star, a, b)

    def test_zero_b_is_divergence(self):
        # eta = eta*/b has no value; the columns are Python floats, so the
        # division would raise ZeroDivisionError if it were attempted.
        star = solve_star_ivp(1.0, IntegratorConfig(), 10.0)
        with pytest.raises(DivergenceError, match="physical profile overflows"):
            rescale_profile(star, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_solve_overflow_is_divergence(self):
        # F'_inf = eta* = 1e-250: a^2 b = 1e500 overflows before the rescaling.
        with pytest.raises(DivergenceError, match="rescaling factor overflows"):
            solve(2.0, NitmConfig(eta_star_inf=1e-250))


def eager_rescaling_refuses(n, config):
    """Whether `solve` refused (n, config) when it rescaled the whole star
    grid on every call: `group_parameters`, then a finite check of every
    rescaled value.  A failing star solve raises, as it did then."""
    star = solve_star_ivp(n, config.integrator, star_boundary(n, config.c0, config.eta_star_inf))
    try:
        a, b, _ = group_parameters(n, star.final.fp)
    except DivergenceError:
        return True
    if b == 0.0:
        return True
    scaled = [t / b for t in star.grid.nodes]
    scaled += [x for f, fp, w in star.grid.states for x in (a * f, a * b * fp, a * a * b * w)]
    return not all(map(math.isfinite, scaled))


# log10 of c0 and of eta*, uniform over [-300, 300].
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0**x)


class TestProfileView:
    """`profile` is rescaled from the star profile when read; the solve keeps
    the physical boundary and refuses what the rescaling would."""

    def test_view_is_the_rescaled_star_profile(self):
        for k in range(10, 251):
            result = solve(k / 100)
            profile = result.profile
            assert result.eta_inf_physical == profile.final.eta
            expected = rescale_profile(result.star_profile, result.a, result.b)
            assert profile.grid.nodes == expected.grid.nodes
            assert profile.grid.states == expected.grid.states
            assert profile.n == expected.n

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["solve", "--n", "0.7"], 0),
            (["verify", "--n", "0.7"], 0),
            (["table", "--n", "0.3", "--n", "0.5", "--n", "1.7", "--method", "both"], 0),
            (["profile", "--n", "0.7"], 1),
        ],
        ids=["solve", "verify", "table", "profile"],
    )
    def test_only_profile_rescales(self, monkeypatch, capsys, argv, calls):
        seen = []
        original = nitm.rescale_profile

        def counting(*args, **kwargs):
            seen.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nitm, "rescale_profile", counting)
        assert cli.run(argv) == 0
        assert len(seen) == calls

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.floats(min_value=0.05, max_value=5.0), c0=log_uniform, eta=log_uniform)
    @example(n=0.1, c0=1e200, eta=10.0)
    @example(n=0.3, c0=1e150, eta=10.0)
    @example(n=2.0, c0=1.0, eta=1e-250)
    def test_refuses_what_eager_rescaling_refused(self, n, c0, eta):
        config = NitmConfig(eta_star_inf=eta, c0=c0)
        try:
            refused = eager_rescaling_refuses(n, config)
        except OdeError as exc:
            with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
                solve(n, config)
            return
        if refused:
            with pytest.raises(DivergenceError):
                solve(n, config)
        else:
            solve(n, config)


# Physical profiles of solve(n), whose f'' is the image a b^2 F'' of the
# star's.  SHA-256 of the eta, f and f' columns (little-endian float64, in
# that order), fpp0, and (w, w', f'') at node indices 0, 1, m/4, m/2, 3m/4,
# m-1 for m nodes.
PHYSICAL_PINS = {
    0.3: (
        "65fe64f5af77bf115ecadc6d28398c1cf6abffa96b1937048437cd782b551ad6",
        "0x1.90e96626cbeb9p-2",
        [
            ("0x1.82737e37f563dp-1", "-0x0.0p+0", "0x1.90e96626cbeb9p-2"),
            ("0x1.82737e3720988p-1", "-0x1.6e71334e4428bp-23", "0x1.90e96623ec108p-2"),
            ("0x1.61c1f0a15d367p-1", "-0x1.ab026486c212bp-4", "0x1.2a98eae4c2ba4p-2"),
            ("0x1.a59d0538a7563p-2", "-0x1.798216d645aaap-4", "0x1.a95fd5daaecdep-5"),
            ("0x1.b1cc8abfdba8cp-3", "-0x1.b2411ae8f1bb1p-6", "0x1.7341ea8c95881p-8"),
            ("0x1.9c0d352a27cfep-4", "-0x1.6b06715c3a306p-8", "0x1.f07bf2dae9661p-12"),
        ],
    ),
    1.0: (
        "66b5c605379e7e8591599527921b8fd220d4ce97d0c86d513338c5f4859114ec",
        "0x1.5406d69dc3483p-2",
        [
            ("0x1.5406d69dc3483p-2", "-0x0.0p+0", "0x1.5406d69dc3483p-2"),
            ("0x1.5406d69d4994fp-2", "-0x1.edcbb317e00c9p-25", "0x1.5406d69d4994fp-2"),
            ("0x1.a3b4bc672b5c7p-3", "-0x1.c69750b57cea6p-4", "0x1.a3b4bc672b5c7p-3"),
            ("0x1.33bc1e0c0ea3cp-6", "-0x1.e983b5107cf75p-6", "0x1.33bc1e0c0ea3cp-6"),
            ("0x1.ec85dd7a61923p-12", "-0x1.32d6e52a7970dp-10", "0x1.ec85dd7a61923p-12"),
            ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"),
        ],
    ),
    1.7: (
        "d2baaee015dd0e948ce3acd2d406cfd1d5616316d528d3ef44e2fc0711b421fb",
        "0x1.8400f72c2efdcp-2",
        [
            ("0x1.8967f8ee3dcf6p-3", "-0x0.0p+0", "0x1.8400f72c2efdcp-2"),
            ("0x1.8967f8edd5828p-3", "-0x1.154e99898d958p-25", "0x1.8400f72bf27b0p-2"),
            ("0x1.2fe6ea9bcd08bp-3", "-0x1.19f634bcd4b2bp-4", "0x1.4d579bf12d6c4p-2"),
            ("0x1.d3500a9ee49adp-7", "-0x1.d5e8a529ab5d7p-5", "0x1.502dc5245d2fep-4"),
            ("0x1.18f524d12902dp-12", "-0x1.be30606de5949p-8", "0x1.0398800217394p-7"),
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
            # w' from the field, -f f''/(n+1), on the stored state.
            got = (grid.ys[i, 2], -grid.ys[i, 0] * fpp[i] / (n + 1.0), fpp[i])
            for value, pin in zip(got, pins):
                assert value == pytest.approx(float.fromhex(pin), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [k / 100 for k in range(10, 251)])
    def test_flux_encodes_the_curvature(self, n):
        # w = a^2 b W holds because a^(n-2) b^(2n-1) = 1, so the scaled flux
        # column still encodes the scaled curvature.
        result = solve(n)
        fpp = result.profile.curvatures()
        encoded = np.array([flux_from_curvature(float(x), n) for x in fpp])
        assert np.allclose(result.profile.grid.ys[:, 2], encoded, rtol=1e-14, atol=0.0)

    def test_wall_row_is_fpp0_bit_for_bit(self):
        # The wall row is the group image a b^2 of F''(0) = 1, and fpp0 is the
        # same product, so the `profile` CSV prints solve's fpp0 at eta = 0.
        # Neither a separate power F'_inf^(-3/(n+1)) nor a decode of the
        # scaled flux keeps these bits: they round 1-3 ulp away at 145 of
        # these 241 exponents, and up to 9 ulp (n = 0.12).
        mismatched = []
        for percent in range(10, 251):
            n = percent / 100
            result = solve(n)
            wall = result.profile.curvatures()[0]
            if not result.fpp0 == wall == group_parameters(n, result.fp_star_inf)[2]:
                mismatched.append(n)
        assert mismatched == []


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

    def test_small_c0_gives_the_same_answer(self):
        # At n = 2 the star boundary is c0^0 eta* = eta*, so both solves
        # truncate the same physical problem at eta = 10.  A star IVP from
        # F''(0) = c0 was 3.6e-5 off: the absolute flux cutoff pinned its
        # wall flux c0^2 = 1e-8 early.
        small = solve(2.0, NitmConfig(c0=1e-4)).fpp0
        assert small == pytest.approx(solve(2.0).fpp0, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("c0", [1e-6, 1e-3, 2.0, 1e3])
    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7, 2.0, 2.5])
    def test_c0_is_the_mapped_boundary(self, n, c0):
        # The scaled wall curvature is a group element: the solve at c0 is
        # the F''(0) = 1 solve to star_boundary(n, c0, eta*), bit for bit,
        # and shooting from its answer at its physical boundary agrees.
        result = solve(n, NitmConfig(c0=c0))
        mapped = NitmConfig(eta_star_inf=star_boundary(n, c0, 10.0))
        assert result.fpp0 == solve(n, mapped).fpp0
        shoot = solve_shooting(n, ShootingConfig(result.eta_inf_physical), start=result.fpp0)
        assert abs(shoot.fpp0 - result.fpp0) <= 1e-12 * shoot.fpp0

    def test_pin_near_the_wall_gains_no_slope(self):
        # A star IVP from a wall flux c0^n just above the cutoff, 1e-10 at
        # the default tolerance, is pinned so near the wall that a slope given
        # back there would be spurious: the guard keeps this far-off answer
        # (0.144 from c0 = 1) at a plain pin's value.  `solve` never starts
        # there: c0 only maps its boundary.
        star = star_from_curvature(2.0, 1.2e-5, 10.0)
        assert 1.2e-5 * group_parameters(2.0, star.final.fp)[2] == 0.5433363747815545

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


class TestLargeBoundary:
    """With no step cap the step grows once the layer has decayed, so a
    truncated boundary costs steps in proportion to log eta*, not to eta*."""

    def test_far_boundary_costs_a_few_steps(self):
        assert len(solve(1.0, NitmConfig(eta_star_inf=1e5)).star_profile.grid.nodes) < 400

    def test_blasius_value_at_a_near_infinite_boundary(self):
        fpp0 = solve(1.0, NitmConfig(eta_star_inf=1e300)).fpp0
        assert abs(fpp0 - 0.33205733621519630) <= 1e-11

    @pytest.mark.parametrize("n", [0.05, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_near_infinite_boundary_grid(self, n):
        nodes = solve(n, NitmConfig(eta_star_inf=1e300)).star_profile.grid.nodes
        assert len(nodes) <= 4000
        assert all(a < b for a, b in zip(nodes, nodes[1:]))


class TestCutoffFollowsTolerance:
    """The flux cutoff is 100 abs_tol.  Below abs_tol the error control does
    not resolve the decaying flux, so with a fixed cutoff under it the
    stepper crawled through the stiff layer instead of pinning it."""

    def test_loose_tolerance_stores_few_nodes(self):
        # 212,153 star nodes with the fixed cutoff 1e-10.
        config = NitmConfig(eta_star_inf=40.0, integrator=IntegratorConfig(1e-6, 1e-6))
        assert len(solve(2.5, config).star_profile.grid.nodes) < 1000

    def test_tight_tolerance_stores_few_nodes(self):
        # The Tsitouras pair with the fixed cutoff 1e-10, only ten times
        # abs_tol here, stored 715,904.
        config = NitmConfig(integrator=IntegratorConfig(1e-11, 1e-11))
        assert len(solve(2.0, config).star_profile.grid.nodes) <= 200

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-9])
    @pytest.mark.parametrize("eta", [40.0, 1000.0])
    def test_loose_answers_stay_within_ten_tol(self, eta, tol):
        # Against the default tolerance, and between the two routes.
        integrator = IntegratorConfig(tol, tol)
        for n in (1.05, 1.2, 1.5, 1.7, 2.0, 2.5):
            result = solve(n, NitmConfig(eta_star_inf=eta, integrator=integrator))
            assert len(result.star_profile.grid.nodes) <= 200
            assert abs(result.fpp0 - solve(n, NitmConfig(eta_star_inf=eta)).fpp0) <= 10 * tol
            shooting = solve_shooting(n, ShootingConfig(result.eta_inf_physical, integrator))
            assert abs(shooting.fpp0 - result.fpp0) <= 10 * tol


class TestSolveExcluded:
    def test_half(self):
        result = solve_excluded(0.5)
        assert result.method_tag == "extrapolated"
        # Central average of the n = 0.4 and n = 0.6 solves.
        expected = 0.5 * (solve_nitm(0.4).fpp0 + solve_nitm(0.6).fpp0)
        assert result.fpp0 == expected
        assert result.fpp0 == pytest.approx(0.337170680, abs=1e-8)

    def test_two(self):
        result = solve_excluded(2.0)
        assert result.method_tag == "extrapolated"
        # The quadratic through n = 1.7, 1.8, 1.9, evaluated at 2.
        y = [solve_nitm(x).fpp0 for x in (1.7, 1.8, 1.9)]
        assert result.fpp0 == math.fsum([y[0], -3.0 * y[1], 3.0 * y[2]])
        # np.polyfit through the same nodes gave 0.3998096762140332.
        assert result.fpp0 == pytest.approx(0.3998096762140332, rel=1e-15, abs=0.0)
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

    @pytest.mark.parametrize(
        "value, field",
        [
            (math.nan, "c0"),
            (math.inf, "c0"),
            (-math.inf, "c0"),
            (math.nan, "eta_star_inf"),
            (-math.inf, "eta_star_inf"),
        ],
    )
    def test_nonfinite_rejected(self, field, value):
        # `nan <= 0` is false, so a sign check alone would let NaN through.
        # The boundary accepts +inf only (the untruncated answer).
        with pytest.raises(DomainError):
            NitmConfig(**{field: value})

    def test_infinite_boundary_is_the_untruncated_answer(self):
        assert NitmConfig(eta_star_inf=math.inf).eta_star_inf == math.inf
        assert NitmConfig()._replace(eta_star_inf=math.inf) == NitmConfig(math.inf)


# fpp0 at eta* = inf from the Crocco form, u = f' as the variable (Callegari &
# Nachman 1980): another ODE than the one integrated here, with no truncated
# boundary.  A SciPy DOP853 solve of that form agrees within 3.7e-13.
CROCCO_FPP0 = {
    0.1: 0.8047542175941194,
    0.3: 0.3879761612074973,
    0.5: 0.3312251666535238,
    0.7: 0.3220109208643769,
    0.9: 0.3271392378855809,
    1.05: 0.3348597004037093,
    1.2: 0.3441650989048203,
    1.7: 0.3789099331585029,
    2.0: 0.3997905740545419,
    2.5: 0.4326067635720049,
}

UNTRUNCATED = NitmConfig(eta_star_inf=math.inf)


class TestUntruncated:
    """eta* = inf is the one star IVP run to ode_core.ETA_FAR."""

    def test_star_boundary_is_far_at_every_c0(self):
        # c0^((2-n)/3) ETA_FAR would be 1e-70 at c0 = 1e-300, n = 1.
        for n in (0.1, 1.0, 2.0, 316.0):
            for c0 in (1e-300, 1e-3, 1.0, 10.0, 1e300):
                assert star_boundary(n, c0, math.inf) == ode_core.ETA_FAR
        assert solve(1.0, UNTRUNCATED).star_profile.final.eta == ode_core.ETA_FAR

    def test_blasius_limit(self):
        # Boyd's value; 1.0e-13 measured.
        assert solve(1.0, UNTRUNCATED).fpp0 == pytest.approx(0.33205733621519630, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", sorted(CROCCO_FPP0))
    def test_matches_the_crocco_values(self, n):
        # Worst measured 2.0e-12 (n = 0.1).
        assert solve(n, UNTRUNCATED).fpp0 == pytest.approx(CROCCO_FPP0[n], rel=0, abs=1e-11)

    def test_bit_identical_to_eta_star_10_where_the_pin_fires(self):
        # For n >= 1 the projector pins the flux to zero before eta* = 10, so
        # the rest of the run moves nothing.
        for k in range(100, 251):
            n = k / 100
            assert solve(n, UNTRUNCATED).fpp0 == solve(n).fpp0, n

    @pytest.mark.parametrize("n", [316.0, 1000.0, 1e4])
    def test_large_exponents_match_a_far_finite_boundary(self, n):
        # eta* = 10 is off by 2.0e-3 at n = 316; eta* = 1e3 and inf agree (0.0 measured).
        far = solve(n, UNTRUNCATED).fpp0
        assert far == pytest.approx(solve(n, NitmConfig(eta_star_inf=1e3)).fpp0, rel=0, abs=1e-14)
        assert abs(far - solve(n).fpp0) > 1e-4

    @pytest.mark.parametrize("n", [0.1, 1.0, 2.5])
    def test_answer_does_not_depend_on_c0(self, n):
        answers = {solve(n, UNTRUNCATED._replace(c0=c0)).fpp0 for c0 in (1e-3, 1.0, 10.0)}
        assert len(answers) == 1

    def test_physical_boundary_is_the_far_node(self):
        result = solve(0.1, UNTRUNCATED)
        assert result.eta_inf_physical == ode_core.ETA_FAR / result.b == result.profile.grid.nodes[-1]
        assert math.isfinite(result.eta_inf_physical)
