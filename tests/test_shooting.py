import math

import pytest

from blasius_powerlaw import ode_core, shooting
from blasius_powerlaw.ode_core import DomainError
from blasius_powerlaw.nitm import NitmConfig, solve_nitm
from blasius_powerlaw.shooting import (
    G_START,
    ROOT_TOL,
    BracketError,
    ConvergenceError,
    ShootingConfig,
    shoot_residual,
    solve_shooting,
)


class TestResidual:
    def test_sign_structure_newtonian(self):
        # The residual is monotone in the trial curvature: undershoot at the
        # converged value's left, overshoot at its right.
        assert shoot_residual(1.0, 0.05)[0] < 0.0
        assert shoot_residual(1.0, 1.0)[0] > 0.0

    def test_known_root_nearly_annihilates(self):
        residual, _ = shoot_residual(1.0, 0.3320573372034433)
        assert abs(residual) < 1e-10

    def test_residual_values(self):
        assert shoot_residual(1.0, 1.0)[0] == pytest.approx(1.08541, abs=1e-4)
        assert shoot_residual(1.0, 0.05)[0] == pytest.approx(-0.718, abs=2e-3)

    # Trials whose wall flux g^n lies at the default cutoff, 1e-10: pinned
    # at or near their first node, where f ~ g eta^2 / 2, they gain no slope,
    # so these are the residuals of a plain pin (x86-64, glibc libm).  With
    # the gain, the n = 20000 trial at 0.99999 would read +2.28, a false sign
    # change.  The ids keep the residuals first recorded, with the
    # Dormand-Prince stepper, so that the test names stay stable.
    @pytest.mark.parametrize(
        "n, factor, expected",
        [
            (300.0, 0.999, -0.99928870399871),
            (300.0, 0.99999, -0.9991977307196152),
            (300.0, 1.00001, -0.9991957822977674),
            (20000.0, 0.999, -0.9999920171979163),
            (20000.0, 0.99999, -0.999001160619825),
            (20000.0, 1.00001, -0.9832569831301334),
        ],
        ids=[
            "300.0-0.999--0.9990748123158742",
            "300.0-0.99999--0.9990738942046836",
            "300.0-1.00001--0.9990738756605914",
            "20000.0-0.999--0.9999920171979009",
            "20000.0-0.99999--0.999001160619825",
            "20000.0-1.00001--0.9858708552285197",
        ],
    )
    def test_trial_pinned_near_the_wall_gains_no_slope(self, n, factor, expected):
        guess = ode_core.flux_cutoff(ShootingConfig().integrator) ** (1.0 / n) * factor
        assert shoot_residual(n, guess)[0] == expected

    def test_invalid_guess(self):
        with pytest.raises(DomainError):
            shoot_residual(1.0, 0.0)
        with pytest.raises(DomainError):
            shoot_residual(1.0, -0.5)


class TestSolveShooting:
    def test_newtonian_value(self):
        result = solve_shooting(1.0)
        assert result.fpp0 == pytest.approx(0.3320573372034433, abs=1e-10)
        assert abs(result.residual) <= 1e-12
        assert result.iterations <= 30

    def test_slope_rounds_to_zero_at_lower_bracket(self):
        # The case the log-log Newton step must survive: the wall flux
        # 0.05^300 underflows, so f'(eta_inf) is exactly 0 and has no log.
        assert shoot_residual(300.0, 0.05)[0] == -1.0

    @pytest.mark.parametrize(
        "n, fpp0",
        [(50.0, 0.8939383255301814), (300.0, 0.9753975755839032), (1000.0, 0.9913461165389693)],
        ids=["50.0", "300.0", "1000.0"],
    )
    def test_large_exponent(self, n, fpp0):
        # Reference values from SciPy: brentq on the residual of DOP853
        # (rtol 1e-14, atol 1e-22) over the same field with max(w, 0) and
        # no flux cutoff.
        result = solve_shooting(n)
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(fpp0, rel=1e-12)

    def test_flux_overflow_is_numerical_failure(self):
        # 1.5^3000 overflows a float: an OdeError, not an OverflowError.
        # The solve never tries that trial, so it converges.
        with pytest.raises(ode_core.DivergenceError):
            shoot_residual(3000.0, 1.5)
        result = solve_shooting(3000.0)
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(0.9967402901065359, rel=1e-11)

    @pytest.mark.parametrize(
        "eta_inf, fpp0",
        [
            (1e-3, 1000.0000208333341),
            (1e-6, 1000000.0000000208),
            (1e-150, 9.999999999999882e149),
            (1e-300, 1.00000000000009e300),
        ],
    )
    def test_root_far_above_the_start_trial(self, eta_inf, fpp0):
        # f'(eta_inf) ~ g eta_inf near the wall, so the root is ~1/eta_inf,
        # far from G_START; the Newton step's slope is ~1 there.  Below
        # eta_inf ~ 1e-16 the start trial's f' is lost in 1 + residual, so
        # the step needs the log of f' itself.
        result = solve_shooting(1.0, ShootingConfig(eta_inf=eta_inf))
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(fpp0, rel=1e-12)
        assert result.iterations <= 3

    def test_works_at_excluded_exponents(self):
        # Shooting takes only its trial steps from the scaling group (at
        # n = 2 the step is exact), so the excluded exponents of the
        # one-IVP method are plain cases here.
        assert solve_shooting(0.5).fpp0 == pytest.approx(0.3345019195489974, abs=1e-9)
        assert solve_shooting(2.0).fpp0 == pytest.approx(0.39979057405357127, abs=1e-9)

    @pytest.mark.parametrize("n", [0.3, 0.8, 1.3, 1.9])
    def test_boundary_conditions(self, n):
        prof = solve_shooting(n).profile
        assert prof.grid.ys[0, 0] == 0.0 and prof.grid.ys[0, 1] == 0.0
        assert abs(prof.final.fp - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [0.15, 0.4, 1.0, 1.6, 1.7, 2.5])
    def test_agrees_with_one_ivp_method_at_matched_boundary(self, n):
        nitm = solve_nitm(n)
        eta_match = nitm.profile.final.eta
        shoot = solve_shooting(n, ShootingConfig(eta_inf=eta_match))
        # For n > 1 the flux cutoff fires in the star frame for one route and
        # in the physical frame for the other; the slope the pin gives back
        # keeps that to ~3e-13 (it was up to ~1.2e-10 without).
        assert abs(nitm.fpp0 - shoot.fpp0) <= 1e-12 * nitm.fpp0

    def test_bracket_expansion(self, monkeypatch):
        # A start trial whose wall flux g^300 is below the projector's cutoff
        # is pinned at its first node, gains no slope there, and ends with
        # f'(eta_inf) <= 0, which has no log and so no Newton step: g doubles
        # (0.2, 0.4, 0.8) until it has one.
        trials = []
        residual = shooting.shoot_residual

        def recording(n, guess, config):
            trials.append(guess)
            return residual(n, guess, config)

        monkeypatch.setattr(shooting, "shoot_residual", recording)
        monkeypatch.setattr(shooting, "G_START", 0.2)
        result = solve_shooting(300.0)
        assert trials[:3] == [0.2, 0.4, 0.8]
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(0.9753975755839032, rel=1e-11)

    def test_bracket_error(self, monkeypatch):
        # Four doublings from g = 1e-3 leave the wall flux g^300 underflowed.
        monkeypatch.setattr(shooting, "G_START", 1e-3)
        with pytest.raises(BracketError, match="after 4 expansions"):
            solve_shooting(300.0)

    def test_convergence_error(self, monkeypatch):
        # n = 1 converges in 2 iterations.
        monkeypatch.setattr(shooting, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations"):
            solve_shooting(1.0)

    def test_no_float_left_in_bracket_stops_early(self, monkeypatch):
        # With no tolerance, only an exact root would do; at n = 1 the
        # bracket closes until its ends are adjacent floats in log g, the
        # variable the search bisects, with residuals of a few 1e-16: the
        # solve stops instead of repeating a trial until the budget is spent.
        trials = []
        residual = shooting.shoot_residual

        def recording(n, guess, config):
            trials.append(guess)
            return residual(n, guess, config)

        monkeypatch.setattr(shooting, "shoot_residual", recording)
        monkeypatch.setattr(shooting, "ROOT_TOL", 0.0)
        # The error names the cause: the bracket ends and their residuals.
        with pytest.raises(
            ConvergenceError,
            match=r"no float lies between g = 0\.332057337203596\d* \(residual -\d\.\d+e-16\) "
            r"and g = 0\.332057337203596\d* \(residual \d\.\d+e-16\)",
        ):
            solve_shooting(1.0)
        assert len(trials) <= len(set(trials)) + 1

    @pytest.mark.parametrize("n", [50.0, 20000.0])
    def test_repeated_trial_stops_the_search(self, monkeypatch, n):
        # With no tolerance, a Newton step lands back on an earlier trial
        # while the bracket ends are still floats apart: the solve stops at
        # that repeat and names it, instead of cycling through the budget.
        trials = []
        residual = shooting.shoot_residual

        def recording(n, guess, config):
            trials.append(guess)
            return residual(n, guess, config)

        monkeypatch.setattr(shooting, "shoot_residual", recording)
        monkeypatch.setattr(shooting, "ROOT_TOL", 0.0)
        repeats = r"trial g = \S+ \(residual \S+\) repeats"
        with pytest.raises(ConvergenceError, match=repeats) as info:
            solve_shooting(n)
        assert len(trials) == len(set(trials))
        assert any(f"trial g = {g!r} " in str(info.value) for g in trials)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("factor", [10.0, 0.1, -1.0])
    def test_wrong_slope_still_converges(self, monkeypatch, n, factor):
        # The group only picks the trials: a slope ten times too steep or
        # too flat, or of the wrong sign, finds the same root.
        expected = solve_shooting(n)
        group_slope = shooting._group_slope
        monkeypatch.setattr(
            shooting, "_group_slope", lambda n, profile: factor * group_slope(n, profile)
        )
        result = solve_shooting(n)
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(expected.fpp0, rel=1e-11)


class TestStart:
    @pytest.mark.parametrize("start", [0.0, -0.5, float("nan"), float("inf")])
    def test_start_must_be_finite_and_positive(self, start):
        with pytest.raises(DomainError, match="start must be finite and > 0"):
            solve_shooting(1.0, start=start)

    def test_default_start_is_g_start(self):
        result = solve_shooting(0.7)
        assert result.start_residual == shoot_residual(0.7, G_START)[0]

    def test_root_is_accepted_as_is(self):
        # At n = 0.7 the one-IVP answer satisfies shooting's own residual test
        # at the matched boundary, so it is returned without a Newton step.
        nitm = solve_nitm(0.7)
        result = solve_shooting(0.7, ShootingConfig(eta_inf=nitm.profile.final.eta), start=nitm.fpp0)
        assert result.iterations == 0
        assert result.fpp0 == nitm.fpp0
        assert result.start_residual == result.residual
        assert abs(result.residual) <= ROOT_TOL

    @pytest.mark.parametrize("n", [0.3, 0.7, 1.0, 1.7])
    def test_perturbed_start_is_corrected(self, n):
        # A one-IVP answer 1e-9 off is caught by the residual test and
        # corrected by one Newton step onto the unseeded root.
        nitm = solve_nitm(n)
        config = ShootingConfig(eta_inf=nitm.profile.final.eta)
        root = solve_shooting(n, config).fpp0
        result = solve_shooting(n, config, start=nitm.fpp0 * (1.0 + 1e-9))
        assert abs(result.start_residual) > ROOT_TOL
        assert result.iterations == 1
        assert result.fpp0 == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("n, eta_star_inf", [(1.0, 0.01), (3000.0, 10.0), (20000.0, 10.0)])
    def test_unseeded_reaches_far_roots(self, n, eta_star_inf):
        # The matched boundaries of `verify --n 1 --eta-inf 0.01` (root near
        # 1000), `--n 3000` and `--n 20000` (trial flux g^n overflows above
        # g = exp(709/n)), reached from G_START; verify starts at the root.
        nitm = solve_nitm(n, NitmConfig(eta_star_inf=eta_star_inf))
        result = solve_shooting(n, ShootingConfig(eta_inf=nitm.profile.final.eta))
        assert abs(result.residual) <= ROOT_TOL
        assert result.iterations >= 1
        assert result.fpp0 == pytest.approx(nitm.fpp0, rel=1e-12)


class TestConvergedTrialContract:
    # cfg: shooting module attributes to override.  With no usable slope the
    # start trial 1.0 lies above the root 0.332 and g halves twice.
    @pytest.mark.parametrize(
        "cfg, expansions",
        [({}, 0), ({"G_START": 1.0, "_group_slope": lambda n, profile: -1.0}, 2)],
    )
    def test_no_reintegration(self, monkeypatch, cfg, expansions):
        # Every integration is a counted trial: the start trial and one per
        # iteration (an expansion is one), and none after convergence.
        for name, value in cfg.items():
            monkeypatch.setattr(shooting, name, value)
        calls = []
        original = ode_core.integrate_system

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ode_core, "integrate_system", counting)
        result = solve_shooting(1.0)
        assert len(calls) == 1 + result.iterations
        assert result.iterations >= expansions

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    def test_residual_is_that_of_returned_profile(self, n):
        result = solve_shooting(n)
        assert result.profile.final.fp - 1.0 == result.residual
        assert result.profile.curvatures()[0] == pytest.approx(result.fpp0, rel=1e-13)

    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta_inf", [6.0, 10.0, 40.0])
    def test_few_iterations(self, n, eta_inf):
        # The group's slope makes the first Newton step from G_START land
        # near the root: 1-3 iterations here.
        result = solve_shooting(n, ShootingConfig(eta_inf=eta_inf))
        assert abs(result.residual) <= 1e-12
        assert result.iterations <= 4


class TestShootingConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ShootingConfig(eta_inf=-1.0)
        with pytest.raises(DomainError):
            ShootingConfig(eta_inf=0.0)

    @pytest.mark.parametrize("field", ["eta_inf"])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_nonfinite_rejected(self, field, value):
        # +inf is the untruncated problem; NaN and -inf are refused.
        with pytest.raises(DomainError):
            ShootingConfig(**{field: value})


class TestUntruncated:
    def test_infinite_boundary_is_integrated_to_the_far_boundary(self):
        residual, profile = shoot_residual(1.0, 0.332057336215094, ShootingConfig(eta_inf=math.inf))
        assert profile.final.eta == ode_core.ETA_FAR
        assert abs(residual) <= ROOT_TOL

    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.0, 2.5, 10.0, 316.0, 1000.0, 3000.0])
    def test_answers_from_g_start_in_two_iterations(self, n):
        # The group slope is read at the far node, where f'' has decayed.
        result = solve_shooting(n, ShootingConfig(eta_inf=math.inf))
        assert result.iterations <= 2 and abs(result.residual) <= ROOT_TOL
        assert result.fpp0 == pytest.approx(solve_nitm(n, NitmConfig(math.inf)).fpp0, rel=1e-12, abs=0)
