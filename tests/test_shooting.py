import pytest

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
        assert shoot_residual(1.0, 0.05) < 0.0
        assert shoot_residual(1.0, 1.0) > 0.0

    def test_known_root_nearly_annihilates(self):
        assert abs(shoot_residual(1.0, 0.3320573372034433)) < 1e-10

    def test_residual_values(self):
        assert shoot_residual(1.0, 1.0) == pytest.approx(1.08541, abs=1e-4)
        assert shoot_residual(1.0, 0.05) == pytest.approx(-0.718, abs=2e-3)

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

    def test_works_at_excluded_exponents(self):
        # Shooting does not rely on the scaling group, so the excluded
        # exponents of the one-IVP method are plain cases here.
        assert solve_shooting(0.5).fpp0 == pytest.approx(0.3345019195489974, abs=1e-9)
        assert solve_shooting(2.0).fpp0 == pytest.approx(0.39979057405357127, abs=1e-9)

    @pytest.mark.parametrize("n", [0.3, 0.8, 1.3, 1.9])
    def test_boundary_conditions(self, n):
        prof = solve_shooting(n).profile
        first, last = prof.rows[0], prof.final
        assert first.f == 0.0 and first.fp == 0.0
        assert abs(last.fp - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [0.4, 1.0, 1.6])
    def test_agrees_with_one_ivp_method_at_matched_boundary(self, n):
        nitm = solve_nitm(n)
        eta_match = nitm.profile.final.eta
        shoot = solve_shooting(n, ShootingConfig(eta_inf=eta_match))
        assert abs(nitm.fpp0 - shoot.fpp0) <= 1e-10

    def test_bracket_expansion(self):
        # A bracket that excludes the root on both sides still converges
        # after expansion.
        cfg = ShootingConfig(bracket_lo=0.9, bracket_hi=1.5)
        assert solve_shooting(1.0, cfg).fpp0 == pytest.approx(0.332057337, abs=1e-8)

    def test_bracket_error(self):
        # Limiting expansion by an absurd bracket far above the root with no
        # room to recover: shrink the allowance by moving lo and hi together.
        cfg = ShootingConfig(bracket_lo=20.0, bracket_hi=21.0)
        with pytest.raises(BracketError):
            solve_shooting(1.0, cfg)

    def test_convergence_error(self):
        cfg = ShootingConfig(max_iters=2)
        with pytest.raises(ConvergenceError):
            solve_shooting(1.0, cfg)


class TestShootingConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ShootingConfig(bracket_lo=0.5, bracket_hi=0.1)
        with pytest.raises(DomainError):
            ShootingConfig(root_tol=0.0)
        with pytest.raises(DomainError):
            ShootingConfig(eta_inf=-1.0)

    @pytest.mark.parametrize("field", ["eta_inf", "bracket_lo", "bracket_hi", "root_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError):
            ShootingConfig(**{field: value})
