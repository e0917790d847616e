"""Differential and difference invariants of two sl(2,R) realizations.

The sl3 realization is spanned by d_y, x d_x + y d_y, 2xy d_x + (y^2 - x^2) d_y
and the sl4 realization by d_y, x d_x + y d_y, 2xy d_x + (x^2 + y^2) d_y,
both acting on the half plane x > 0.  Each admits two low-order differential
invariants (I1, I2) and a three-point difference invariant; J1 and J2 are the
combinations of difference invariants that converge to I1 and I2 as the mesh
is refined.

Sign convention: all square roots are principal, so discrete invariants and
J1 are nonnegative and J1 converges to |I1|.  Along an exact conic
sigma (x-cx)^2 + (y-cy)^2 = sigma r^2 (sigma = 1: sl3 circle, -1: sl4
hyperbola) the continuous I1 equals sigma*(cx/r)*sign(y-cy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import DomainViolation, Point2, RealizationId, validate_point

_RADICAND_SLACK = 1e-12


@dataclass(frozen=True)
class JetPoint:
    """A point of the jet space: x plus derivatives of y (y itself drops out)."""

    x: float
    yp: float
    ypp: float
    yppp: Optional[float] = None


# -- continuous invariants ---------------------------------------------------


def _i1(sigma: float, x: float, yp: float, ypp: float) -> float:
    """First invariant on plain floats, (y' q - sigma x y'') / q^(3/2) with
    q = y'^2 + sigma: sigma = 1 for sl3 and -1 for sl4, which needs q > 0."""
    if x <= 0.0:
        raise DomainViolation("jet needs x > 0", x)
    q = yp * yp + sigma
    if q <= 0.0:
        raise DomainViolation("sl4 first invariant needs |y'| > 1", yp)
    return (yp * q - sigma * x * ypp) / q**1.5


def cont_i1_sl3(jet: JetPoint) -> float:
    """First sl3 invariant (y'(1+y'^2) - x y'') / (1+y'^2)^(3/2)."""
    return _i1(1.0, jet.x, jet.yp, jet.ypp)


def cont_i2_sl3(jet: JetPoint) -> float:
    """Second sl3 invariant (3x^2 y' y''^2 - x^2 y'''(1+y'^2)) / (1+y'^2)^3."""
    if jet.x <= 0.0:
        raise DomainViolation("jet needs x > 0", jet.x)
    if jet.yppp is None:
        raise DomainViolation("second invariant needs y'''")
    d = 1.0 + jet.yp * jet.yp
    x2 = jet.x * jet.x
    return (3.0 * x2 * jet.yp * jet.ypp**2 - x2 * jet.yppp * d) / d**3


def cont_i1_sl4(jet: JetPoint) -> float:
    """First sl4 invariant (x y'' + y'(y'^2-1)) / (y'^2-1)^(3/2); needs |y'| > 1."""
    return _i1(-1.0, jet.x, jet.yp, jet.ypp)


def cont_i2_sl4(jet: JetPoint) -> float:
    """Second sl4 invariant; defined wherever y' != +-1."""
    if jet.x <= 0.0:
        raise DomainViolation("jet needs x > 0", jet.x)
    if jet.yppp is None:
        raise DomainViolation("second invariant needs y'''")
    u, v, w, x = jet.yp, jet.ypp, jet.yppp, jet.x
    if u == 1.0 or u == -1.0:
        raise DomainViolation("sl4 second invariant needs y' != +-1", u)
    num = 2.0 * x * x * (u + 1.0) * w + 3.0 * (
        (u - 1.0) * (u + 1.0) ** 2 * (3.0 * u * u - 1.0)
        + 4.0 * x * u * (u + 1.0) * v
        - 2.0 * x * x * v * v
    )
    den = (u - 1.0) ** 2 * (u + 1.0) ** 3
    return num / den


# -- discrete invariants -----------------------------------------------------


def _require_domain(*points: Point2) -> None:
    for p in points:
        if not validate_point(p):
            raise DomainViolation("point outside half plane x > 0", p)


def _finite(value: float, where: Point2) -> float:
    """value itself, unless a square or x-product overflowed into inf or NaN.

    A window checks the sum of its invariants: each is the square root of
    a float ratio, at most about 1.4e154, so the sum is finite exactly
    when every term is.
    """
    if not math.isfinite(value):
        raise DomainViolation("invariant overflows", where)
    return value


def disc_i1_sl3(pa: Point2, pb: Point2) -> float:
    """Three-point sl3 difference invariant on one pair:
    sqrt(((dx)^2 + (dy)^2) / (x_a x_b))."""
    _require_domain(pa, pb)
    dx = pb.x - pa.x
    dy = pb.y - pa.y
    xab = pa.x * pb.x
    if xab == 0.0:
        raise DomainViolation("pair x-product underflows to zero", pb)
    return _finite(math.sqrt((dx * dx + dy * dy) / xab), pb)


def disc_i1_sl4(pa: Point2, pb: Point2) -> float:
    """Three-point sl4 difference invariant on one pair:
    sqrt(((dy)^2 - (dx)^2) / (4 x_a x_b - ((dy)^2 - (dx)^2)))."""
    _require_domain(pa, pb)
    dx = pb.x - pa.x
    dy = pb.y - pa.y
    e = dy * dy - dx * dx
    den = 4.0 * pa.x * pb.x - e
    if e < 0.0:
        raise DomainViolation("sl4 pair needs (dy)^2 >= (dx)^2", pb)
    if den <= 0.0:
        raise DomainViolation("sl4 pair denominator is not positive", pb)
    return _finite(math.sqrt(e / den), pb)


# -- window evaluation -------------------------------------------------------
#
# J1^2 - 1 is a ratio of O(h^4) differences of O(h^2) quantities, so feeding
# rounded pair invariants into the textbook J1 formulas loses ~h^-2 digits.
# window_j1_from_pairs rebuilds the difference I2 - I1n - I1n1 as a single
# fraction in the coordinates, which keeps the relative error near machine
# precision for the meshes the schemes use.


def _window_j1(
    realization: RealizationId, num: float, den: float,
    i1n: float, i1n1: float, i2: float, where: Point2,
) -> float:
    """J1 from the window fraction num / den = I2^2 - I1n^2 - I1n1^2 and
    the window's pair invariants, as J1^2 = j0 + j1 (I2 - I1n - I1n1) /
    (I1n I1n1 (I1n + I1n1)) with (j0, j1) the realization's j1_pair; where
    is the window's middle point.  Raises window_j1_from_pairs's errors."""
    if den == 0.0:
        what = "x-product" if realization is RealizationId.SL3 else "denominator product"
        raise DomainViolation(f"window {what} underflows to zero", where)
    # I2 - I1n - I1n1 = (num / den - 2 I1n I1n1) / (I2 + I1n + I1n1)
    n_val = num / den - 2.0 * i1n * i1n1
    denom = i1n * i1n1 * (i1n + i1n1)
    if denom == 0.0 or (i2 + i1n + i1n1) == 0.0:
        raise DomainViolation("degenerate window (coincident points)", where)
    q_val = n_val / (i2 + i1n + i1n1)
    j0, j1 = realization.j1_pair
    rad = j0 + j1 * (q_val / denom)
    if rad < 0.0:
        if rad <= -_RADICAND_SLACK:
            raise DomainViolation("window J1 has negative radicand", rad)
        rad = 0.0
    j1 = math.sqrt(rad)
    if not math.isfinite(i1n + i1n1 + i2 + j1):
        raise DomainViolation("invariant overflows", where)
    return j1


def window_j1_from_pairs(
    realization: RealizationId, pa: Point2, pb: Point2, pc: Point2,
    i1n: float, i1n1: float, i2: float,
) -> float:
    """J1 of the window (pa, pb, pc) from its pair invariants i1n, i1n1, i2
    of (pa, pb), (pb, pc), (pa, pc), as disc_i1_* evaluates them (so the
    points and pairs already lie in the invariant domain).  Raises
    DomainViolation on an underflowing x-product or denominator product, a
    degenerate window, a negative J1 radicand, or an overflow.
    """
    ax, ay, bx, by, cx, cy = pa.x, pa.y, pb.x, pb.y, pc.x, pc.y
    dx_ab, dy_ab = bx - ax, by - ay
    dx_bc, dy_bc = cx - bx, cy - by
    dx_ac, dy_ac = cx - ax, cy - ay
    if realization is RealizationId.SL3:
        # I2^2 - I1n^2 - I1n1^2 as one fraction over x_a x_b x_c
        num = (
            (dx_ac * dx_ac + dy_ac * dy_ac) * bx
            - (dx_ab * dx_ab + dy_ab * dy_ab) * cx
            - (dx_bc * dx_bc + dy_bc * dy_bc) * ax
        )
        den = ax * bx * cx
    else:
        # the same over the sl4 denominators d = 4 x_a x_b - e, e = dy^2 - dx^2
        eab = dy_ab * dy_ab - dx_ab * dx_ab
        ebc = dy_bc * dy_bc - dx_bc * dx_bc
        eac = dy_ac * dy_ac - dx_ac * dx_ac
        dab = 4.0 * ax * bx - eab
        dbc = 4.0 * bx * cx - ebc
        dac = 4.0 * ax * cx - eac
        num = eac * dab * dbc - eab * dac * dbc - ebc * dac * dab
        den = dac * dab * dbc
    return _window_j1(realization, num, den, i1n, i1n1, i2, pb)


def window_j1(realization: RealizationId, pa: Point2, pb: Point2, pc: Point2) -> float:
    """J1 of one 3-point window from its pair invariants (by disc_i1_*)."""
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    i1n, i1n1, i2 = disc(pa, pb), disc(pb, pc), disc(pa, pc)
    return window_j1_from_pairs(realization, pa, pb, pc, i1n, i1n1, i2)


def _j2(realization: RealizationId, j1a: float, j1b: float, s: float) -> float:
    """J2 from the J1s of two overlapping 3-point windows and the sum s of
    the three consecutive pair invariants they span, plus g2 j1a^2 + g0."""
    g2, g0 = realization.j2_shift
    return 3.0 * (j1b - j1a) / s + g2 * j1a * j1a + g0


def window_j2(
    realization: RealizationId, pa: Point2, pb: Point2, pc: Point2, pd: Point2
) -> float:
    """J2 of a 4-point window, built from two overlapping 3-point windows
    that share the pair invariant of (pb, pc)."""
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    i_ab, i_bc, i_ac = disc(pa, pb), disc(pb, pc), disc(pa, pc)
    j1a = window_j1_from_pairs(realization, pa, pb, pc, i_ab, i_bc, i_ac)
    i_cd, i_bd = disc(pc, pd), disc(pb, pd)
    j1b = window_j1_from_pairs(realization, pb, pc, pd, i_bc, i_cd, i_bd)
    return _j2(realization, j1a, j1b, i_ab + i_bc + i_cd)
