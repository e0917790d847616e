"""Symmetry-preserving difference schemes on the half plane x > 0.

Invariant numerical schemes for the second- and third-order ordinary
differential equations built from the two SL(2,R) actions sl3 and sl4,
together with standard finite-difference and adaptive Runge-Kutta
baselines, exact conic solutions, and an experiment harness.

The package namespace holds the names of the README's library section,
the harness entry points and the records they return; everything else
is imported from its submodule.
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
    StepDiagnostics,
    Trajectory,
)
from .invariants import (
    JetPoint,
    cont_i1_sl3,
    cont_i1_sl4,
    cont_i2_sl3,
    cont_i2_sl4,
    disc_i1_sl3,
    disc_i1_sl4,
    window_j1,
    window_j2,
)
from .exact import CircleSolution, HyperbolaSolution, fit_circle, fit_hyperbola
from .group_action import GroupElement, act, one_parameter
from .baselines import ode_rhs_library, rk45_integrate
from .schemes import SchemeState, bootstrap, run_scheme
from .harness import (
    ConfigError,
    ExperimentConfig,
    MethodReport,
    RunReport,
    SingularityFlag,
    builtin_experiments,
    cli_main,
    config_from_raw,
    detect_singularity,
    read_trajectory_csv,
    run_experiment,
)

__version__ = "0.1.0"
