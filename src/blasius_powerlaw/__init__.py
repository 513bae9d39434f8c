"""Power-law boundary-layer solver.

Solves the third-order similarity BVP

    d/deta(|f''|^(n-1) f'') + f f''/(n+1) = 0,
    f(0) = f'(0) = 0,  f'(eta) -> 1 as eta -> infinity,

by a non-iterative scaling-group method (one IVP plus algebraic rescaling)
and cross-validates it with an iterative shooting solver.
"""

from .ode_core import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    IvpState,
    OdeError,
    SolutionProfile,
    StepBudgetError,
    StepUnderflowError,
    integrate,
    integrate_system,
)
from .nitm import (
    NitmConfig,
    NitmResult,
    group_parameters,
    profile_ode_residuals,
    rescale_profile,
    solve,
    solve_excluded,
    solve_nitm,
    solve_star_ivp,
)
from .shooting import (
    BracketError,
    ConvergenceError,
    ShootingConfig,
    ShootingResult,
    shoot_residual,
    solve_shooting,
)
from .report import (
    SweepRow,
    SweepSpec,
    boundary_sensitivity,
    emit_json,
    export_profile,
    sweep_table,
)

__version__ = "0.1.0"
