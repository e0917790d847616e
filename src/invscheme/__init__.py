"""Symmetry-preserving difference schemes on the half plane x > 0.

Invariant numerical schemes for the second- and third-order ordinary
differential equations built from the two SL(2,R) actions sl3 and sl4,
together with standard finite-difference and adaptive Runge-Kutta
baselines, exact conic solutions, and an experiment harness.
"""

from .core import (
    DomainViolation,
    HaltInfo,
    NewtonDivergence,
    NoIntersection,
    NumericError,
    Point2,
    RealizationId,
    SchemeSpec,
    SingularityDetected,
    StepDiagnostics,
    StepUnderflow,
    Trajectory,
    near_equal,
    validate_point,
)
from .invariants import (
    JetPoint,
    WindowInvariants,
    cont_i1_sl3,
    cont_i1_sl4,
    cont_i2_sl3,
    cont_i2_sl4,
    disc_i1_sl3,
    disc_i1_sl4,
    disc_i2_sl3,
    disc_i2_sl4,
    j1_sl3,
    j1_sl4,
    j2_sl3,
    j2_sl4,
    window_invariants,
    window_j1,
    window_j2,
)
from .exact import (
    CircleSolution,
    HyperbolaSolution,
    conic_distance,
    fit_circle,
    fit_hyperbola,
    initial_slope_from_solution,
    next_chord_point,
    next_circle_point,
    next_hyperbola_point,
    param_of,
    point_at,
    slope_at,
)
from .group_action import (
    GroupElement,
    IDENTITY,
    act,
    act_sl3,
    act_sl4,
    compose,
    flow_oracle,
    generator_field,
    one_parameter,
)
from .baselines import (
    FirstOrderSystem,
    OdeProblem,
    RkResult,
    UniformMesh,
    ode_rhs_library,
    rk45_integrate,
    standard_fd_step,
    stencil_d1_4pt,
    stencil_d2_4pt,
    stencil_d3_4pt,
)
from .schemes import (
    ConicCoeffs,
    LineCoeffs,
    SchemeState,
    SchemeTargets,
    advance_state,
    bootstrap,
    mesh_conic,
    newton_fallback_step,
    reduce_to_line_conic,
    run_scheme,
    scheme_targets,
    square,
    step_with_diagnostics,
    turning_side,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    MethodReport,
    RunReport,
    SingularityFlag,
    all_singularities,
    benchmark_step_cost,
    builtin_experiments,
    cli_main,
    config_from_raw,
    detect_singularity,
    read_trajectory_csv,
    run_experiment,
)

__version__ = "0.1.0"
