"""Exact solution curves for the order-2 equations.

The sl3 curvature equation I1 = C has circular arcs as solutions; the sl4
analogue has rectangular hyperbolas (x - cx)^2 - (y - cy)^2 = r^2 with
asymptote slopes +-1.  Both families are in closed form here and serve as
trusted references: fitting a conic with prescribed invariant C and scale
a through a point, measuring distance from a point to the conic, and
walking along the conic by chord length.

Sign conventions (derived by implicit differentiation of the conics):
on a circle I1 = (cx / r) * sign(y - cy); on a hyperbola
I1 = -(cx / r) * sign(y - cy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainViolation, Point2


@dataclass(frozen=True)
class CircleSolution:
    """Circle (x - cx)^2 + (y - cy)^2 = r^2."""

    cx: float
    cy: float
    r: float

    def point(self, theta: float) -> Point2:
        return Point2(self.cx + self.r * math.cos(theta), self.cy + self.r * math.sin(theta))

    def theta_of(self, p: Point2) -> float:
        return math.atan2(p.y - self.cy, p.x - self.cx)


@dataclass(frozen=True)
class HyperbolaSolution:
    """Hyperbola (x - cx)^2 - (y - cy)^2 = r^2, opening left and right."""

    cx: float
    cy: float
    r: float

    def point(self, t: float, branch: int = -1) -> Point2:
        """Parametrized as x = cx + branch * r cosh t, y = cy + r sinh t."""
        return Point2(self.cx + branch * self.r * math.cosh(t), self.cy + self.r * math.sinh(t))

    def t_of(self, p: Point2) -> float:
        return math.asinh((p.y - self.cy) / self.r)


def fit_circle(p0: Point2, c: float, a: float) -> list[CircleSolution]:
    """Circles through p0 solving the sl3 equation I1 = c at curvature scale a.

    The radius is 1/|a| and the center x is +-c/|a|; for each center-x sign
    branch there are up to two center-y roots.  Every candidate that really
    passes through p0 is returned, ordered by descending center x and then
    descending center y, so callers that need one circle take the first.
    The center-x sign of each entry identifies its branch.  Raises
    DomainViolation when no branch passes through p0 or when a = 0.
    """
    if a == 0.0 or not math.isfinite(a):
        raise DomainViolation("curvature scale a must be nonzero", a)
    r = 1.0 / abs(a)
    found: list[CircleSolution] = []
    for sx in (1.0, -1.0):
        cx = sx * c / abs(a)
        rad = r * r - (p0.x - cx) ** 2
        if rad < -1e-12 * r * r:
            continue
        root = math.sqrt(max(rad, 0.0))
        for cy in (p0.y + root, p0.y - root):
            cand = CircleSolution(cx, cy, r)
            if cand not in found:
                found.append(cand)
    if not found:
        raise DomainViolation(
            f"no circle with I1 = {c}, scale {a} passes through ({p0.x}, {p0.y})"
        )
    found.sort(key=lambda s: (-s.cx, -s.cy))
    return found


def fit_hyperbola(p0: Point2, c: float, a: float) -> list[HyperbolaSolution]:
    """Hyperbolas through p0 solving the sl4 equation I1 = c at scale a.

    The semi-axis is 1/|a| and the center x is -+c/|a|; each center-x sign
    branch contributes up to two center-y roots.  All candidates through p0
    are returned, ordered by descending center x and then descending center
    y.  Raises DomainViolation when no branch passes through p0 or a = 0.
    """
    if a == 0.0 or not math.isfinite(a):
        raise DomainViolation("scale a must be nonzero", a)
    r = 1.0 / abs(a)
    found: list[HyperbolaSolution] = []
    for sx in (1.0, -1.0):
        cx = -sx * c / abs(a)
        rad = (p0.x - cx) ** 2 - r * r
        if rad < -1e-12 * r * r:
            continue
        root = math.sqrt(max(rad, 0.0))
        for cy in (p0.y + root, p0.y - root):
            cand = HyperbolaSolution(cx, cy, r)
            if cand not in found:
                found.append(cand)
    if not found:
        raise DomainViolation(
            f"no hyperbola with I1 = {c}, scale {a} passes through ({p0.x}, {p0.y})"
        )
    found.sort(key=lambda s: (-s.cx, -s.cy))
    return found


def conic_distance(sol: CircleSolution | HyperbolaSolution, p: Point2) -> float:
    """Geometric distance from p to the conic.

    Exact for circles; for hyperbolas the algebraic residual divided by
    the local gradient magnitude, which is first-order exact.
    """
    if isinstance(sol, CircleSolution):
        return abs(math.hypot(p.x - sol.cx, p.y - sol.cy) - sol.r)
    dx = p.x - sol.cx
    dy = p.y - sol.cy
    q = dx * dx - dy * dy - sol.r * sol.r
    grad = 2.0 * math.hypot(dx, dy)
    return abs(q) / max(grad, 1e-12)


def slope_at(sol: CircleSolution | HyperbolaSolution, p: Point2) -> float:
    """Slope dy/dx of the conic at a point on it, by implicit differentiation.

    Raises DomainViolation where the tangent is vertical (the circle's
    leftmost and rightmost points, the hyperbola's vertices).
    """
    dx = p.x - sol.cx
    dy = p.y - sol.cy
    if dy == 0.0:
        raise DomainViolation("vertical tangent on the conic", p.x)
    if isinstance(sol, CircleSolution):
        return -dx / dy
    return dx / dy


def param_of(sol: CircleSolution | HyperbolaSolution, p: Point2) -> float:
    """Parameter of a point on the conic (angle or hyperbolic parameter)."""
    if isinstance(sol, CircleSolution):
        return sol.theta_of(p)
    return sol.t_of(p)


def point_at(sol: CircleSolution | HyperbolaSolution, t: float, branch: int = -1) -> Point2:
    """Point of the conic at a parameter value; branch picks a hyperbola's
    left (-1) or right (+1) branch, and circles ignore it."""
    if isinstance(sol, CircleSolution):
        return sol.point(t)
    return sol.point(t, branch)


def next_chord_point(
    sol: CircleSolution | HyperbolaSolution, t: float, chord: float, direction: float,
    branch: int = -1,
) -> float:
    """Parameter one Euclidean chord step away along the conic.

    direction is +-1 for increasing or decreasing parameter, and branch
    the hyperbola branch walked, as in point_at.  Circles have the closed
    form dtheta = 2 asin(chord / 2r); hyperbolas bisect on the parameter,
    where chord length grows monotonically.
    """
    if not (0.0 < chord and math.isfinite(chord)):
        raise DomainViolation("chord must be positive", chord)
    if isinstance(sol, CircleSolution):
        half = chord / (2.0 * sol.r)
        if half > 1.0:
            raise DomainViolation("chord longer than the diameter", chord)
        return t + direction * 2.0 * math.asin(half)
    pa = sol.point(t, branch)

    def gap(dt: float) -> float:
        pb = sol.point(t + direction * dt, branch)
        return math.hypot(pb.x - pa.x, pb.y - pa.y) - chord

    hi = 1e-8
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 50.0:
            raise DomainViolation("chord step does not fit on the branch", chord)
    return t + direction * _bisect_param(gap, 0.0, hi, -chord)


# Halving limit of _bisect_param, which stops sooner at a 1e-16 bracket.
_BISECT_ITERS = 200


def _bisect_param(fn, lo: float, hi: float, flo: float) -> float:
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if abs(hi - lo) <= 1e-16 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)
