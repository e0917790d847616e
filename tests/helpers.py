"""Test-only helpers shared by several test modules."""

import math

import numpy as np

from invscheme import (
    CircleSolution,
    DomainViolation,
    HyperbolaSolution,
    NoIntersection,
    Point2,
    disc_i1_sl3,
    disc_i1_sl4,
)
from invscheme.exact import _bisect_param
from invscheme.group_action import GroupElement
from invscheme.invariants import _checked_sqrt
from invscheme.schemes import ConicCoeffs, LineCoeffs


def random_group_element(rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    """Random element near the identity, normalized to determinant one."""
    for _ in range(1000):
        a, b, c, d = (np.eye(2) + scale * rng.normal(size=(2, 2))).ravel()
        det = a * d - b * c
        if det > 0.01:
            s = 1.0 / math.sqrt(det)
            return GroupElement(float(a * s), float(b * s), float(c * s), float(d * s))
    raise RuntimeError("could not sample a positive-determinant element")


def solve_line_conic(
    line: LineCoeffs, conic: ConicCoeffs, prev: Point2, prev_dir: tuple[float, float]
) -> Point2:
    """Pick the line/conic intersection that continues past prev.

    An oracle for the stepper's own intersection: substitutes the line,
    parametrized from the foot of the perpendicular dropped from prev,
    into the conic and solves the quadratic with the stable (sign-aware)
    root formula.  Roots whose displacement from prev has positive inner
    product with prev_dir qualify; of two qualifying roots the one farther
    from prev wins, which avoids re-selecting the current point.  A
    discriminant within [-1e-12, 0] counts as tangency and yields the
    double root; below that raises NoIntersection, as does the absence of
    any qualifying root.
    """
    nrm = math.hypot(line.a, line.b)
    la, lb, ld = line.a / nrm, line.b / nrm, line.d / nrm
    t0 = la * prev.x + lb * prev.y - ld
    bx, by = prev.x - t0 * la, prev.y - t0 * lb
    dx, dy = lb, -la
    q = conic
    alpha = q.qxx * dx * dx + q.qxy * dx * dy + q.qyy * dy * dy
    beta = (
        2.0 * q.qxx * bx * dx + q.qxy * (bx * dy + by * dx) + 2.0 * q.qyy * by * dy
        + q.qx * dx + q.qy * dy
    )
    gamma = (
        q.qxx * bx * bx + q.qxy * bx * by + q.qyy * by * by + q.qx * bx + q.qy * by + q.q0
    )
    if abs(alpha) < 1e-13 * (abs(beta) + 1.0):
        if beta == 0.0:
            raise NoIntersection("line/conic system is degenerate", prev)
        ts = [-gamma / beta]
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc < -1e-12:
            raise NoIntersection(f"negative intersection discriminant {disc:.3e}", prev)
        sq = math.sqrt(max(disc, 0.0))
        root = -0.5 * (beta + math.copysign(sq, beta))
        ts = [root / alpha] if root == 0.0 else [root / alpha, gamma / root]
    best, best_d2 = None, -1.0
    for t in ts:
        r = Point2(bx + t * dx, by + t * dy)
        rx, ry = r.x - prev.x, r.y - prev.y
        if rx * prev_dir[0] + ry * prev_dir[1] <= 0.0:
            continue
        d2 = rx * rx + ry * ry
        if d2 > best_d2:
            best, best_d2 = r, d2
    if best is None:
        raise NoIntersection("no root continues past the previous point", prev)
    return best


def next_circle_point(sol: CircleSolution, theta: float, k: float, direction: float) -> float:
    """Angle one pair-invariant step k away along the circle.

    direction is +-1 for increasing or decreasing angle.  The pair
    invariant grows monotonically with angular separation as long as the
    arc stays in the half plane, so bisection on the angle is safe.
    """
    pa = sol.point(theta)

    def gap(dtheta: float) -> float:
        pb = sol.point(theta + direction * dtheta)
        if pb.x <= 0.0:
            return math.inf
        return disc_i1_sl3(pa, pb) - k

    hi = 1e-8
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > math.pi:
            raise DomainViolation("pair-invariant step does not fit on the arc", k)
    return theta + direction * _bisect_param(gap, 0.0, hi, -k)


def next_hyperbola_point(
    sol: HyperbolaSolution, t: float, k: float, direction: float, branch: int = -1
) -> float:
    """Parameter one pair-invariant step k away along the hyperbola branch."""
    pa = sol.point(t, branch)

    def gap(dt: float) -> float:
        pb = sol.point(t + direction * dt, branch)
        if pb.x <= 0.0:
            return math.inf
        try:
            return disc_i1_sl4(pa, pb) - k
        except DomainViolation:
            return math.inf

    hi = 1e-8
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 50.0:
            raise DomainViolation("pair-invariant step does not fit on the branch", k)
    return t + direction * _bisect_param(gap, 0.0, hi, -k)


# The textbook J1 and J2 formulas on rounded pair invariants: an oracle for
# the window evaluators, which rebuild J1 from the coordinates instead.


def j1_sl3(i1n: float, i1n1: float, i2n1: float) -> float:
    """sqrt(1 - 8(I2 - (I1n + I1n1)) / (I1n I1n1 (I1n + I1n1)))."""
    den = i1n * i1n1 * (i1n + i1n1)
    if den == 0.0:
        raise DomainViolation("J1 needs nonzero pair invariants")
    rad = 1.0 - 8.0 * (i2n1 - (i1n + i1n1)) / den
    return _checked_sqrt(rad, "J1_sl3")


def j2_sl3(i1n: float, i1n1: float, i1n2: float, j1n1: float, j1n2: float) -> float:
    """3 (J1^{n+2} - J1^{n+1}) / (I1^n + I1^{n+1} + I1^{n+2})."""
    s = i1n + i1n1 + i1n2
    if s == 0.0:
        raise DomainViolation("J2 needs a nonzero invariant sum")
    return 3.0 * (j1n2 - j1n1) / s


def j1_sl4(i1n: float, i1n1: float, i2n1: float) -> float:
    """sqrt(2) * sqrt((I2 - (I1n + I1n1)) / (I1n I1n1 (I1n + I1n1)) - 1)."""
    den = i1n * i1n1 * (i1n + i1n1)
    if den == 0.0:
        raise DomainViolation("J1 needs nonzero pair invariants")
    rad = (i2n1 - (i1n + i1n1)) / den - 1.0
    return math.sqrt(2.0) * _checked_sqrt(rad, "J1_sl4")


def j2_sl4(i1n: float, i1n1: float, i1n2: float, j1n1: float, j1n2: float) -> float:
    """3 (J1^{n+2} - J1^{n+1}) / sum(I1) + 6 (J1^{n+1})^2 + 3."""
    s = i1n + i1n1 + i1n2
    if s == 0.0:
        raise DomainViolation("J2 needs a nonzero invariant sum")
    return 3.0 * (j1n2 - j1n1) / s + 6.0 * j1n1 * j1n1 + 3.0
