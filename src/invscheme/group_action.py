"""SL(2,R) action on the half plane for both realizations.

The three generator fields close into sl(2,R) in two ways on x > 0:

  sl3: X1 = d/dy, X2 = x d/dx + y d/dy, X3 = 2xy d/dx + (y^2 - x^2) d/dy
  sl4: X1 = d/dy, X2 = x d/dx + y d/dy, X3 = 2xy d/dx + (x^2 + y^2) d/dy

In the complex coordinate z = y + ix the sl3 fields are d/dz, z d/dz,
z^2 d/dz, so the finite action is the real Moebius map z -> (az+b)/(cz+d).
In light-cone coordinates z = y + x, w = y - x the sl4 fields act the same
way on each coordinate separately.  The flow oracle integrates the
generator fields directly and is kept independent of the matrix formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import DomainViolation, Point2, RealizationId
from .baselines import rk45_integrate


@dataclass(frozen=True)
class GroupElement:
    """Matrix [[a, b], [c, d]] with ad - bc = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or abs(det - 1.0) > 1e-10:
            raise DomainViolation(f"group element determinant {det} is not 1")


IDENTITY = GroupElement(1.0, 0.0, 0.0, 1.0)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Matrix product g1 g2, renormalized to determinant one."""
    a = g1.a * g2.a + g1.b * g2.c
    b = g1.a * g2.b + g1.b * g2.d
    c = g1.c * g2.a + g1.d * g2.c
    d = g1.c * g2.b + g1.d * g2.d
    det = a * d - b * c
    if det <= 0.0 or not math.isfinite(det):
        raise DomainViolation(f"composition lost positivity, det = {det}")
    s = 1.0 / math.sqrt(det)
    return GroupElement(a * s, b * s, c * s, d * s)


def one_parameter(index: int, t: float) -> GroupElement:
    """exp(t X_index) as a matrix, index in {1, 2, 3}."""
    if index == 1:
        return GroupElement(1.0, t, 0.0, 1.0)
    if index == 2:
        e = math.exp(0.5 * t)
        return GroupElement(e, 0.0, 0.0, 1.0 / e)
    if index == 3:
        return GroupElement(1.0, 0.0, -t, 1.0)
    raise ValueError(f"generator index must be 1, 2 or 3, got {index}")


def act_sl3(g: GroupElement, p: Point2) -> Point2:
    """Moebius action through z = y + ix; preserves x > 0 exactly."""
    den_re = g.c * p.y + g.d
    den_im = g.c * p.x
    den2 = den_re * den_re + den_im * den_im
    if den2 == 0.0:
        raise DomainViolation("point maps to infinity under this element")
    num_re = g.a * p.y + g.b
    num_im = g.a * p.x
    y_new = (num_re * den_re + num_im * den_im) / den2
    x_new = (num_im * den_re - num_re * den_im) / den2
    if x_new <= 0.0 or not (math.isfinite(x_new) and math.isfinite(y_new)):
        raise DomainViolation("transformed point left the half plane", x_new)
    return Point2(x_new, y_new)


def act_sl4(g: GroupElement, p: Point2) -> Point2:
    """Moebius action on light-cone coordinates z = y + x, w = y - x.

    Unlike the sl3 case the action is only local: it raises
    DomainViolation when (cz + d)(cw + d) <= 0, i.e. when the point is
    carried across the fold where the image leaves x > 0.
    """
    z = p.y + p.x
    w = p.y - p.x
    dz = g.c * z + g.d
    dw = g.c * w + g.d
    if dz == 0.0 or dw == 0.0:
        raise DomainViolation("point maps to infinity under this element")
    z_new = (g.a * z + g.b) / dz
    w_new = (g.a * w + g.b) / dw
    x_new = 0.5 * (z_new - w_new)
    y_new = 0.5 * (z_new + w_new)
    if x_new <= 0.0 or not (math.isfinite(x_new) and math.isfinite(y_new)):
        raise DomainViolation("transformed point left the half plane", x_new)
    return Point2(x_new, y_new)


def act(g: GroupElement, p: Point2, realization: RealizationId) -> Point2:
    if realization is RealizationId.SL3:
        return act_sl3(g, p)
    return act_sl4(g, p)


def generator_field(
    realization: RealizationId, index: int
) -> Callable[[Point2], tuple[float, float]]:
    """The vector field X_index as a callable (x, y) -> (dx, dy)."""
    if index == 1:
        return lambda p: (0.0, 1.0)
    if index == 2:
        return lambda p: (p.x, p.y)
    if index == 3:
        if realization is RealizationId.SL3:
            return lambda p: (2.0 * p.x * p.y, p.y * p.y - p.x * p.x)
        return lambda p: (2.0 * p.x * p.y, p.x * p.x + p.y * p.y)
    raise ValueError(f"generator index must be 1, 2 or 3, got {index}")


def flow_oracle(realization: RealizationId, index: int, t: float, p: Point2) -> Point2:
    """Flow of X_index for time t starting at p, by direct integration.

    Independent of the matrix formulas; used to validate them.  Raises
    DomainViolation if the flow leaves the half plane before time t.
    """
    field = generator_field(realization, index)

    def rhs(s: float, state: list[float]) -> list[float]:
        if state[0] <= 0.0:
            raise DomainViolation("flow left the half plane", state[0])
        dx, dy = field(Point2(state[0], state[1]))
        return [dx, dy]

    res = rk45_integrate(rhs, 0.0, [p.x, p.y], t, rtol=1e-12, atol=1e-13)
    if res.status != "ok":
        raise DomainViolation(f"flow failed before time {t}: {res.status} ({res.detail})")
    x_new, y_new = res.states[-1]
    if x_new <= 0.0:
        raise DomainViolation("flow left the half plane", x_new)
    return Point2(x_new, y_new)

