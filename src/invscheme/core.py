"""Shared types and numeric predicates for the invariant-scheme package.

Both realizations of sl(2,R) used here act on the half plane x > 0; every
point fed to an invariant or a scheme has to stay inside it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional


class RealizationId(enum.Enum):
    """Which realization of sl(2,R) the scheme or invariant belongs to."""

    SL3 = "sl3"
    SL4 = "sl4"


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class NumericError(Exception):
    """Base class for structured numeric failures.

    Attributes
    ----------
    detail : str
        Human readable description.
    location : object or None
        Point2, x value, or step index where the failure happened.
    """

    kind = "numericError"

    def __init__(self, detail: str = "", location: object | None = None):
        super().__init__(detail)
        self.detail = detail
        self.location = location


class DomainViolation(NumericError):
    """A point or jet left the admissible domain (x <= 0, bad slope, ...)."""

    kind = "domainViolation"


class NoIntersection(NumericError):
    """The step's line/conic system has no admissible real root."""

    kind = "noIntersection"


class NewtonDivergence(NumericError):
    """A Newton iteration failed to converge within its budget."""

    kind = "newtonDivergence"


def validate_point(p: Point2) -> bool:
    """True when p is finite and lies in the open half plane x > 0, the
    domain of both realizations."""
    return p.is_finite() and p.x > 0.0


def near_equal(a: float, b: float, rel_tol: float) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= relTol*(1+max(|a|,|b|))."""
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    return abs(a - b) <= rel_tol * (1.0 + max(abs(a), abs(b)))


@dataclass(frozen=True)
class SchemeSpec:
    """Defines one invariant scheme run.

    order 2 solves J1 = C on a constant mesh invariant K; order 3 solves
    J2 = F(J1) on the same kind of mesh.  C must be nonnegative because J1
    is a principal square root.
    """

    realization: RealizationId
    order: int
    K: float
    C: Optional[float] = None
    F: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("order must be 2 or 3")
        if self.order == 2:
            if self.C is None:
                raise ValueError("order-2 scheme needs the constant C")
            if self.C < 0.0:
                raise ValueError("C must be nonnegative (J1 is a principal root)")
        if self.order == 3 and self.F is None:
            raise ValueError("order-3 scheme needs the right-hand side F")
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValueError("mesh constant K must be finite and positive")


@dataclass(slots=True)
class StepDiagnostics:
    """Per-step record emitted by the invariant stepper.

    j1 is the J1 of (p_prev, p_last, p), the last two window points and
    the step's point p; j2 (order 3 only) is the J2 of the 4-point window
    that ends in p.  mesh_residual and scheme_residual are the residuals
    of the two equations the step solver enforced.  One is built per
    step, so it is slotted, unfrozen and unhashable; read-only by convention.
    """

    j1: float
    mesh_residual: float
    scheme_residual: float
    iterations: int
    j2: Optional[float] = None


@dataclass(frozen=True)
class HaltInfo:
    reason: str
    x: Optional[float] = None
    detail: str = ""


@dataclass
class Trajectory:
    """Ordered points as float columns xs, ys, plus the per-step diagnostics.

    For a scheme of stencil width w, diagnostics has length
    len(xs) - (w - 1): one record per accepted step.  step_seconds
    holds the wall time of each accepted step; every harness driver fills
    it, and the rk45 driver, which times the integrator as a whole, writes
    the mean into every slot.
    """

    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    halt: Optional[HaltInfo] = None

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def points(self) -> list[Point2]:
        """The points as a new list of Point2, a read-only view of the columns."""
        return [Point2(x, y) for x, y in zip(self.xs, self.ys)]
