import pytest

from blasius_powerlaw import ode_core, shooting
from blasius_powerlaw.ode_core import DomainError
from blasius_powerlaw.nitm import solve_nitm
from blasius_powerlaw.shooting import (
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
        # The case the log-log secant must survive: the flux of the lower
        # trial falls below the cutoff, so f'(eta_inf) is exactly 0.
        assert shoot_residual(300.0, 0.05)[0] == -1.0

    @pytest.mark.parametrize(
        "n, fpp0",
        [(50.0, 0.8939383259492325), (300.0, 0.9753975760118911), (1000.0, 0.9913461169467862)],
    )
    def test_large_exponent(self, n, fpp0):
        # Reference values from the linear-secant solver this one replaced.
        result = solve_shooting(n)
        assert abs(result.residual) <= 1e-12
        assert result.fpp0 == pytest.approx(fpp0, rel=1e-12)

    def test_flux_overflow_is_numerical_failure(self):
        # 1.5^3000 overflows a float: an OdeError, not an OverflowError.
        with pytest.raises(ode_core.DivergenceError):
            solve_shooting(3000.0)

    def test_works_at_excluded_exponents(self):
        # Shooting does not rely on the scaling group, so the excluded
        # exponents of the one-IVP method are plain cases here.
        assert solve_shooting(0.5).fpp0 == pytest.approx(0.3345019195489974, abs=1e-9)
        assert solve_shooting(2.0).fpp0 == pytest.approx(0.39979057405357127, abs=1e-9)

    @pytest.mark.parametrize("n", [0.3, 0.8, 1.3, 1.9])
    def test_boundary_conditions(self, n):
        prof = solve_shooting(n).profile
        assert prof.grid.ys[0, 0] == 0.0 and prof.grid.ys[0, 1] == 0.0
        assert abs(prof.final.fp - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [0.4, 1.0, 1.6])
    def test_agrees_with_one_ivp_method_at_matched_boundary(self, n):
        nitm = solve_nitm(n)
        eta_match = nitm.profile.final.eta
        shoot = solve_shooting(n, ShootingConfig(eta_inf=eta_match))
        assert abs(nitm.fpp0 - shoot.fpp0) <= 1e-10

    def test_bracket_expansion(self, monkeypatch):
        # A bracket that excludes the root on both sides still converges
        # after expansion.
        monkeypatch.setattr(shooting, "BRACKET_LO", 0.9)
        assert solve_shooting(1.0).fpp0 == pytest.approx(0.332057337, abs=1e-8)

    def test_bracket_error(self, monkeypatch):
        # Limiting expansion by an absurd bracket far above the root with no
        # room to recover: shrink the allowance by moving lo and hi together.
        monkeypatch.setattr(shooting, "BRACKET_LO", 20.0)
        monkeypatch.setattr(shooting, "BRACKET_HI", 21.0)
        with pytest.raises(BracketError):
            solve_shooting(1.0)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(shooting, "MAX_ITERS", 2)
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            solve_shooting(1.0)


class TestConvergedTrialContract:
    # cfg: shooting module constants to override.
    @pytest.mark.parametrize("cfg, expansions", [({}, 0), ({"BRACKET_LO": 0.9}, 2)])
    def test_no_reintegration(self, monkeypatch, cfg, expansions):
        # Every integration is a counted trial: two bracket ends, one per
        # expansion and one per iteration, and none after convergence.
        for name, value in cfg.items():
            monkeypatch.setattr(shooting, name, value)
        calls = []
        original = ode_core.integrate_system

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ode_core, "integrate_system", counting)
        result = solve_shooting(1.0)
        assert len(calls) == 2 + expansions + result.iterations

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    def test_residual_is_that_of_returned_profile(self, n):
        result = solve_shooting(n)
        assert result.profile.final.fp - 1.0 == result.residual
        assert result.profile.curvatures()[0] == pytest.approx(result.fpp0, rel=1e-13)

    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta_inf", [6.0, 10.0, 40.0])
    def test_few_iterations(self, n, eta_inf):
        # log f'(eta_inf) is nearly linear in log g, so the first secant
        # step from the bracket ends lands near the root.
        result = solve_shooting(n, ShootingConfig(eta_inf=eta_inf))
        assert abs(result.residual) <= 1e-12
        assert result.iterations <= 5


class TestShootingConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ShootingConfig(eta_inf=-1.0)
        with pytest.raises(DomainError):
            ShootingConfig(eta_inf=0.0)

    @pytest.mark.parametrize("field", ["eta_inf"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError):
            ShootingConfig(**{field: value})
