"""Monotone sub/super-solution iteration for semilinear evolution equations.

The package computes minimal/maximal mild solutions of du/dt + A u = F(u)
between certified sub- and super-solutions on 1-D finite-difference meshes,
together with their asymptotic extremal equilibria.  See README.md for the
scenario presets (logistic, competition, Fisher, scalar non-uniqueness) and
the `mevolve` command line front-end.
"""

from .errors import DimensionMismatchError, NumericalError, ValidationError
from .order import (
    TOL_ORDER,
    ConeSpec,
    GridFunction,
    OrderInterval,
    STANDARD_CONE,
    leq,
    monotone_norm,
    order_violation,
)
from .generators import (
    EigPair,
    GeneratorSpec,
    add_potential,
    block_generator,
    build_laplacian_1d,
    check_submarkovian,
    mesh_nodes,
    principal_eig,
    scalar_generator,
    semigroup_apply,
)
from .nonlin import (
    Nonlinearity,
    competition,
    fisher,
    logistic,
    quasi_increasing_shift,
    signed_sqrt,
)
from .mild import (
    ProblemSpec,
    Trajectory,
    auto_scale,
    mild_residual,
    picard_step,
    scale_problem,
    time_grid,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .monotone import (
    EquilibriaResult,
    IterationReport,
    asymptotic_equilibria,
    certify_sandwich,
    extremal_trajectories,
    iterate,
    newton_equilibrium,
    time_monotonicity_violation,
)
from .scenarios import (
    FLIPPED_CONE,
    ScenarioSpec,
    build_competition,
    build_fisher,
    build_from_config,
    build_logistic,
    build_scalar_nonunique,
    subsolution_margin,
    supersolution_margin,
    verify_subsolution,
    verify_supersolution,
)

__version__ = "0.1.0"
