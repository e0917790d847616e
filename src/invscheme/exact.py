"""Exact solution curves for the order-2 equations.

The sl3 curvature equation I1 = C has circular arcs as solutions; the sl4
analogue has rectangular hyperbolas with asymptote slopes +-1.  Both are
one family, sigma (x - cx)^2 + (y - cy)^2 = sigma r^2, with sigma = +1
for circles and -1 for hyperbolas (x - cx)^2 - (y - cy)^2 = r^2.  They
serve as trusted references: fitting a conic with prescribed invariant C
and scale a through a point (radius 1/|a|, centre abscissa
sigma (+-C/|a|)), measuring distance from a point to the conic, and
walking along the conic by chord length.

Sign convention (by implicit differentiation of the conic):
I1 = sigma (cx / r) sign(y - cy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .core import DomainViolation, Point2


@dataclass(frozen=True)
class _Conic:
    """sigma (x - cx)^2 + (y - cy)^2 = sigma r^2, sigma a class constant."""

    cx: float
    cy: float
    r: float
    sigma: ClassVar[float]


class CircleSolution(_Conic):
    """Circle (x - cx)^2 + (y - cy)^2 = r^2."""

    sigma = 1.0

    def point(self, t: float) -> Point2:
        """Point at angle t."""
        return Point2(self.cx + self.r * math.cos(t), self.cy + self.r * math.sin(t))

    def param(self, p: Point2) -> float:
        return math.atan2(p.y - self.cy, p.x - self.cx)


@dataclass(frozen=True)
class HyperbolaSolution(_Conic):
    """One branch of the hyperbola (x - cx)^2 - (y - cy)^2 = r^2, which
    opens left and right: branch is +1.0 for the right one (x > cx) and
    -1.0 for the left one.  fit_hyperbola picks the branch its point lies on.
    """

    branch: float
    sigma = -1.0

    def point(self, t: float) -> Point2:
        """Parametrized as x = cx + branch * r cosh t, y = cy + r sinh t."""
        x = self.cx + self.branch * self.r * math.cosh(t)
        return Point2(x, self.cy + self.r * math.sinh(t))

    def param(self, p: Point2) -> float:
        return math.asinh((p.y - self.cy) / self.r)


def fit_circle(p0: Point2, c: float, a: float) -> list[CircleSolution]:
    """Circles through p0 solving the sl3 equation I1 = c at curvature scale a.

    The radius is 1/|a| and the center x is +-c/|a|; for each sign of the
    center x there are up to two center-y roots.  Every candidate that
    really passes through p0 is returned, ordered by descending center x
    and then descending center y, so callers that need one circle take the
    first.  Raises DomainViolation when no center passes through p0, when
    a = 0, or on overflow.
    """
    return _fit(CircleSolution, "circle", "curvature scale a", p0, c, a)


def fit_hyperbola(p0: Point2, c: float, a: float) -> list[HyperbolaSolution]:
    """Hyperbolas through p0 solving the sl4 equation I1 = c at scale a,
    found and ordered as by fit_circle: semi-axis 1/|a|, center x -+c/|a|.
    Each is the branch that p0 lies on."""
    return _fit(HyperbolaSolution, "hyperbola", "scale a", p0, c, a)


def _fit(cls: type, noun: str, scale: str, p0: Point2, c: float, a: float) -> list:
    if a == 0.0 or not math.isfinite(a):
        raise DomainViolation(f"{scale} must be nonzero", a)
    r = 1.0 / abs(a)
    found = []
    for sx in (1.0, -1.0):
        cx = cls.sigma * sx * c / abs(a)
        try:  # sigma (r^2 - (x0 - cx)^2), in a form that keeps an exact zero +0.0
            rad = cls.sigma * (r * r) - cls.sigma * (p0.x - cx) ** 2
        except OverflowError:
            rad = math.inf
        # also catches r * r overflowing, which makes rad infinite or NaN
        if not math.isfinite(rad):
            raise DomainViolation(f"{noun} with I1 = {c}, scale {a} overflows", p0.x)
        if rad < -1e-12 * r * r:
            continue
        root = math.sqrt(max(rad, 0.0))
        for cy in (p0.y + root, p0.y - root):
            cand = cls(cx, cy, r) if cls.sigma > 0.0 else cls(cx, cy, r, 1.0 if p0.x > cx else -1.0)
            if cand not in found:
                found.append(cand)
    if not found:
        raise DomainViolation(
            f"no {noun} with I1 = {c}, scale {a} passes through ({p0.x}, {p0.y})"
        )
    found.sort(key=lambda s: (-s.cx, -s.cy))
    return found


def conic_distance(sol: _Conic, x: float, y: float) -> float:
    """Geometric distance from the point (x, y) to the conic.

    Exact for circles; for hyperbolas the algebraic residual divided by
    the local gradient magnitude, which is first-order exact.
    """
    dx, dy = x - sol.cx, y - sol.cy
    if sol.sigma > 0.0:
        return abs(math.hypot(dx, dy) - sol.r)
    q = dx * dx - dy * dy - sol.r * sol.r
    return abs(q) / max(2.0 * math.hypot(dx, dy), 1e-12)


def slope_at(sol: _Conic, p: Point2) -> float:
    """Slope dy/dx = -sigma (x - cx) / (y - cy) of the conic at a point on it.

    Raises DomainViolation where the tangent is vertical (the circle's
    leftmost and rightmost points, the hyperbola's vertices).
    """
    dx, dy = p.x - sol.cx, p.y - sol.cy
    if dy == 0.0:
        raise DomainViolation("vertical tangent on the conic", p.x)
    return -sol.sigma * dx / dy


def next_chord_point(sol: _Conic, t: float, chord: float, direction: float) -> float:
    """Parameter one Euclidean chord step away along the conic.

    direction is +-1 for increasing or decreasing parameter; a hyperbola
    is walked on its own branch.  Circles have the closed form
    dtheta = 2 asin(chord / 2r); hyperbolas bisect on the parameter,
    where chord length grows monotonically.
    """
    if not (0.0 < chord and math.isfinite(chord)):
        raise DomainViolation("chord must be positive", chord)
    if sol.sigma > 0.0:
        half = chord / (2.0 * sol.r)
        if half > 1.0:
            raise DomainViolation("chord longer than the diameter", chord)
        return t + direction * 2.0 * math.asin(half)
    pa = sol.point(t)

    def gap(dt: float) -> float:
        pb = sol.point(t + direction * dt)
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
