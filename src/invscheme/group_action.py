"""SL(2,R) action on the half plane for both realizations.

The three generator fields close into sl(2,R) in two ways on x > 0:

  sl3: X1 = d/dy, X2 = x d/dx + y d/dy, X3 = 2xy d/dx + (y^2 - x^2) d/dy
  sl4: X1 = d/dy, X2 = x d/dx + y d/dy, X3 = 2xy d/dx + (x^2 + y^2) d/dy

In w = y + jx with j^2 = -sigma (1 for sl3, -1 for sl4) both sets of
fields are d/dw, w d/dw, w^2 d/dw, so the finite action is the real
Moebius map w -> (aw+b)/(cw+d): over the complex numbers for sl3 and the
split-complex numbers for sl4, evaluated in x and y themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainViolation, Point2, RealizationId


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


def act(g: GroupElement, p: Point2, realization: RealizationId) -> Point2:
    """The Moebius map w -> (aw + b) / (cw + d) on w = y + jx, j^2 = -sigma.

    N = (cy + d)^2 + sigma (cx)^2 is the squared modulus of cw + d, and
    x' = x / N since ad - bc = 1.  N <= 0 is the sl4 fold, where the image
    leaves x > 0; that, a pole or a non-finite image raises DomainViolation.
    """
    sigma = realization.sigma
    den_re = g.c * p.y + g.d
    den_im = g.c * p.x
    den2 = den_re * den_re + sigma * (den_im * den_im)
    if den2 == 0.0:
        raise DomainViolation("point maps to infinity under this element")
    num_re = g.a * p.y + g.b
    num_im = g.a * p.x
    y_new = (num_re * den_re + sigma * (num_im * den_im)) / den2
    x_new = (num_im * den_re - num_re * den_im) / den2
    if den2 < 0.0 or x_new <= 0.0 or not (math.isfinite(x_new) and math.isfinite(y_new)):
        raise DomainViolation("transformed point left the half plane", x_new)
    return Point2(x_new, y_new)
