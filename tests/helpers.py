"""Test-only helpers shared by several test modules."""

import math

import numpy as np

from invscheme import ConicCoeffs, LineCoeffs, NoIntersection, Point2
from invscheme.group_action import GroupElement


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
