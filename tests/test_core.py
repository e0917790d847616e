"""Core types, tolerance helper, error taxonomy."""

import math

import pytest

from invscheme import (
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
from invscheme.core import near_equal, validate_point


def test_validate_point_sign():
    assert validate_point(Point2(1.0, 8.0))
    assert not validate_point(Point2(-1.0, 0.0))
    assert not validate_point(Point2(0.0, 5.0))


def test_validate_point_rejects_nonfinite():
    assert not validate_point(Point2(math.nan, 0.0))
    assert not validate_point(Point2(1.0, math.inf))


def test_point_is_finite():
    assert Point2(1.0, 2.0).is_finite()
    assert not Point2(1.0, math.nan).is_finite()


def test_near_equal_examples():
    assert near_equal(1.0, 1.0, 1e-12)
    assert not near_equal(1.0, 2.0, 1e-12)
    # absolute floor through the 1+ term
    assert near_equal(0.0, 1e-13, 1e-12)


def test_near_equal_requires_positive_tolerance():
    with pytest.raises(ValueError):
        near_equal(1.0, 1.0, 0.0)


def test_scheme_spec_validation():
    spec = SchemeSpec(RealizationId.SL3, 2, K=0.01, C=2.0)
    assert spec.order == 2
    with pytest.raises(ValueError):
        SchemeSpec(RealizationId.SL3, 2, K=0.01)  # C missing
    with pytest.raises(ValueError):
        SchemeSpec(RealizationId.SL3, 3, K=0.01)  # F missing
    with pytest.raises(ValueError):
        SchemeSpec(RealizationId.SL3, 2, K=-1.0, C=2.0)
    with pytest.raises(ValueError):
        SchemeSpec(RealizationId.SL3, 4, K=0.01, C=2.0)


def test_error_kinds():
    cases = [
        (NumericError, "numericError"),
        (DomainViolation, "domainViolation"),
        (NoIntersection, "noIntersection"),
        (NewtonDivergence, "newtonDivergence"),
    ]
    for cls, kind in cases:
        exc = cls("boom", location=Point2(1.0, 2.0))
        assert exc.kind == kind
        assert exc.detail == "boom"
        assert isinstance(exc, NumericError)


def test_trajectory_accessors():
    traj = Trajectory(
        xs=[1.0, 1.5],
        ys=[2.0, 2.5],
        diagnostics=[StepDiagnostics(j1=0.5, mesh_residual=0.0, scheme_residual=0.0, iterations=1)],
        halt=HaltInfo("maxSteps", x=1.5),
    )
    assert len(traj) == 2
    assert traj.halt.reason == "maxSteps"


def test_trajectory_points_view_pairs_the_columns():
    traj = Trajectory(xs=[1.0, 1.5], ys=[2.0, 2.5])
    assert traj.points == [Point2(1.0, 2.0), Point2(1.5, 2.5)]
    traj.points.append(Point2(3.0, 4.0))
    assert len(traj) == 2 and traj.xs == [1.0, 1.5]
