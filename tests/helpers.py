"""Test-only helpers shared by several test modules."""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from invscheme import (
    CircleSolution,
    DomainViolation,
    HyperbolaSolution,
    NoIntersection,
    Point2,
    RealizationId,
    SchemeSpec,
    SchemeState,
    SingularityFlag,
    builtin_experiments,
    disc_i1_sl3,
    disc_i1_sl4,
    fit_circle,
    fit_hyperbola,
    rk45_integrate,
    window_j1,
)
from invscheme.baselines import _STAGE_ERRORS
from invscheme.exact import bracket_and_bisect
from invscheme.group_action import GroupElement
from invscheme.invariants import _RADICAND_SLACK, window_j1_from_pairs
from invscheme.schemes import reduce_to_line_conic, square


IDENTITY = GroupElement(1.0, 0.0, 0.0, 1.0)


def builtin(name: str):
    """The builtin experiment config called name."""
    return {cfg.name: cfg for cfg in builtin_experiments()}[name]


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


def random_group_element(rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    """Random element near the identity, normalized to determinant one."""
    for _ in range(1000):
        a, b, c, d = (np.eye(2) + scale * rng.normal(size=(2, 2))).ravel()
        det = a * d - b * c
        if det > 0.01:
            s = 1.0 / math.sqrt(det)
            return GroupElement(float(a * s), float(b * s), float(c * s), float(d * s))
    raise RuntimeError("could not sample a positive-determinant element")


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

    Independent of the matrix formulas of act; used to validate them.
    Raises DomainViolation if the flow leaves the half plane before time t.
    """
    field = generator_field(realization, index)

    def rhs(s: float, state: list[float]) -> list[float]:
        if state[0] <= 0.0:
            raise DomainViolation("flow left the half plane", state[0])
        dx, dy = field(Point2(state[0], state[1]))
        return [dx, dy]

    res = rk45_integrate(rhs, 0.0, [p.x, p.y], t, rtol=1e-12, atol=1e-13)
    if res.halt.reason != "completed":
        raise DomainViolation(
            f"flow failed before time {t}: {res.halt.reason} ({res.halt.detail})"
        )
    x_new, y_new = res.states[-1]
    if x_new <= 0.0:
        raise DomainViolation("flow left the half plane", x_new)
    return Point2(x_new, y_new)


@dataclass(frozen=True)
class LineCoeffs:
    """Line a*x + b*y = d with (a, b) != (0, 0)."""

    a: float
    b: float
    d: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("line normal must be nonzero")


@dataclass(frozen=True)
class ConicCoeffs:
    """Conic qxx*x^2 + qxy*x*y + qyy*y^2 + qx*x + qy*y + q0 = 0."""

    qxx: float
    qxy: float
    qyy: float
    qx: float
    qy: float
    q0: float

    def __post_init__(self):
        if self.qxx == 0.0 and self.qxy == 0.0 and self.qyy == 0.0:
            raise ValueError("conic must have a quadratic part")


def reduced(state) -> tuple[LineCoeffs, ConicCoeffs]:
    """reduce_to_line_conic's floats as the two records."""
    line, conic = reduce_to_line_conic(state)
    return LineCoeffs(*line), ConicCoeffs(*conic)


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


# The step's reduction, quadratic and polish written for a general conic,
# with one six-coefficient level set per realization and pair, a polish
# that calls one gradient function per pair invariant, and S, J1 and the
# next turning side evaluated afresh: an oracle for schemes._line and
# schemes._fast_step, which form both level sets from the one (sigma, c_t)
# expression, drop the zero xy terms, and polish, take J1's window fraction
# and the turn in one pass over each iterate's chords.


def general_conic_line(realization, p_prev, p_last, k, m):
    """Unit-normal line (a, b, d) and mesh conic (qxx, qxy, qyy, qx, qy, q0)."""
    lx, ly, px, py = p_last.x, p_last.y, p_prev.x, p_prev.y
    if realization is RealizationId.SL3:
        mesh = (1.0, 0.0, 1.0, -(2.0 + k * k) * lx, -2.0 * ly, lx * lx + ly * ly)
        outer_qx, outer_q0 = -(2.0 + m * m) * px, px * px + py * py
    else:
        qx = (2.0 - 4.0 * (k * k / (1.0 + k * k))) * lx
        mesh = (-1.0, 0.0, 1.0, qx, -2.0 * ly, ly * ly - lx * lx)
        outer_qx, outer_q0 = (2.0 - 4.0 * (m * m / (1.0 + m * m))) * px, py * py - px * px
    a = mesh[3] - outer_qx
    b = mesh[4] - (-2.0 * py)
    d = outer_q0 - mesh[5]
    nrm = math.hypot(a, b)
    if nrm == 0.0:
        raise NoIntersection("the step's level sets are concentric, no line", p_last)
    return (a / nrm, b / nrm, d / nrm), mesh


def disc_grad_sl3(rx: float, ry: float, x: float, y: float) -> tuple[float, float, float]:
    """sl3 pair invariant of ((rx, ry), (x, y)) and its gradient in (x, y)."""
    dx, dy = x - rx, y - ry
    den = rx * x
    if den <= 0.0:
        raise DomainViolation("pair invariant needs x > 0", Point2(x, y))
    d2 = (dx * dx + dy * dy) / den
    d = math.sqrt(d2)
    if d == 0.0:
        raise DomainViolation("coincident pair", Point2(x, y))
    gx = (2.0 * dx / den - d2 / x) / (2.0 * d)
    gy = dy / (den * d)
    return d, gx, gy


def disc_grad_sl4(rx: float, ry: float, x: float, y: float) -> tuple[float, float, float]:
    """sl4 pair invariant of ((rx, ry), (x, y)) and its gradient in (x, y)."""
    dx, dy = x - rx, y - ry
    e = dy * dy - dx * dx
    den = 4.0 * rx * x - e
    if e <= 0.0 or den <= 0.0:
        raise DomainViolation("pair outside the sl4 invariant domain", Point2(x, y))
    d2 = e / den
    d = math.sqrt(d2)
    ex, ey = -2.0 * dx, 2.0 * dy
    dnx, dny = 4.0 * rx - ex, -ey
    gx = (ex * den - e * dnx) / (den * den) / (2.0 * d)
    gy = (ey * den - e * dny) / (den * den) / (2.0 * d)
    return d, gx, gy


def polish(realization, p_prev, p_last, k, m, x, y):
    """At most four analytic Newton corrections on the two pair-invariant
    equations from (x, y): (x, y, da, db, iterations), with da = I(p_last,
    p) and db = I(p_prev, p) of the returned point p."""
    grad = disc_grad_sl3 if realization is RealizationId.SL3 else disc_grad_sl4
    tol = 1e-14 * max(1.0, k)
    lx, ly, px, py = p_last.x, p_last.y, p_prev.x, p_prev.y
    iters = 0
    for _ in range(4):
        da, gax, gay = grad(lx, ly, x, y)
        db, gbx, gby = grad(px, py, x, y)
        r1, r2 = da - k, db - m
        if max(abs(r1), abs(r2)) < tol:
            return x, y, da, db, iters
        det = gax * gby - gay * gbx
        if det == 0.0:
            return x, y, da, db, iters
        sx = (gby * r1 - gay * r2) / det
        sy = (gax * r2 - gbx * r1) / det
        x, y = x - sx, y - sy
        iters += 1
    return x, y, grad(lx, ly, x, y)[0], grad(px, py, x, y)[0], iters


def turning_side(p0: Point2, p1: Point2, p2: Point2, fallback: float = 0.0) -> float:
    """Sign of the cross product of displacements p0->p1 and p1->p2.

    Returns fallback when the three points are collinear to relative
    precision 1e-9, so an established side survives straight stretches.
    """
    vx, vy, wx, wy = p1.x - p0.x, p1.y - p0.y, p2.x - p1.x, p2.y - p1.y
    cr = vx * wy - vy * wx
    if abs(cr) > 1e-9 * math.hypot(vx, vy) * math.hypot(wx, wy):
        return 1.0 if cr > 0.0 else -1.0
    return fallback


def s_value(realization, a: Point2, b: Point2, c: Point2) -> float:
    """S of the window (a, b, c): 2 sigma b.x cr + v_y Q(u) - u_y Q(v), with
    u = a - b, v = c - b, Q(w) = sigma w_x^2 + w_y^2 and cr = u_x v_y - u_y v_x.

    The two roots of an order-2 step are mirror images across the geodesic
    through a and b, and S takes opposite signs on them; its sign is a
    group invariant, constant along an exact solution conic."""
    sigma = realization.sigma
    ux, uy, vx, vy = a.x - b.x, a.y - b.y, c.x - b.x, c.y - b.y
    cr = ux * vy - uy * vx
    q_u, q_v = sigma * ux * ux + uy * uy, sigma * vx * vx + vy * vy
    return 2.0 * sigma * b.x * cr + vy * q_u - uy * q_v


def general_conic_step(realization, order, p_prev, p_last, k, m, side):
    """schemes._fast_step on general_conic_line's line and conic, through
    polish, as (x, y, da, db, iterations, J1, next side): J1 of
    (p_prev, p_last, p) by window_j1_from_pairs with k standing for the
    window's pair invariant (the DomainViolation it raises, if it does, in
    its place).  The root pick prefers the sign side of s_value at order 2
    and of the turn at order 3; the next side is side at order 2 and
    turning_side at order 3."""
    (la, lb, ld), (qxx, qxy, qyy, qx, qy, q0) = general_conic_line(
        realization, p_prev, p_last, k, m
    )
    nrm = math.hypot(la, lb)
    la, lb, ld = la / nrm, lb / nrm, ld / nrm
    ax, ay = p_last.x, p_last.y
    t0 = la * ax + lb * ay - ld
    bx, by = ax - t0 * la, ay - t0 * lb
    dx, dy = lb, -la
    alpha = qxx * dx * dx + qxy * dx * dy + qyy * dy * dy
    beta = (
        2.0 * qxx * bx * dx + qxy * (bx * dy + by * dx) + 2.0 * qyy * by * dy
        + qx * dx + qy * dy
    )
    gamma = qxx * bx * bx + qxy * bx * by + qyy * by * by + qx * bx + qy * by + q0
    if abs(alpha * gamma) <= 1e-26 * beta * beta:
        if beta == 0.0:
            raise NoIntersection("line/conic system is degenerate", p_last)
        ts = (-gamma / beta,)
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc < 0.0:
            if disc < -1e-10:
                raise NoIntersection(
                    f"negative intersection discriminant {disc:.3e}", p_last
                )
            disc = 0.0
        sq = math.sqrt(disc)
        q = -0.5 * (beta + math.copysign(sq, beta))
        ts = (q / alpha,) if q == 0.0 else (q / alpha, gamma / q)
    pdx, pdy = ax - p_prev.x, ay - p_prev.y
    gx, gy = ax + pdx, ay + pdy
    best = None
    for t in ts:
        x, y = bx + t * dx, by + t * dy
        if x <= 0.0:
            continue
        rx, ry = x - ax, y - ay
        if rx * pdx + ry * pdy <= 0.0:
            continue
        if order == 2:
            sign = s_value(realization, p_prev, p_last, Point2(x, y))
        else:
            sign = pdx * ry - pdy * rx
        key = (sign * side >= 0.0, -math.hypot(x - gx, y - gy))
        if best is None or key > best[0]:
            best = key, x, y
    if best is None:
        raise NoIntersection("no admissible forward root", p_last)
    x, y, da, db, iters = polish(realization, p_prev, p_last, k, m, best[1], best[2])
    p = Point2(x, y)
    try:
        j1 = window_j1_from_pairs(realization, p_prev, p_last, p, k, da, db)
    except DomainViolation as exc:
        j1 = exc
    return x, y, da, db, iters, j1, side if order == 2 else turning_side(p_prev, p_last, p, side)


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

    dtheta = bracket_and_bisect(gap, 0.0, 1e-8, math.pi)
    if dtheta is None:
        raise DomainViolation("pair-invariant step does not fit on the arc", k)
    return theta + direction * dtheta


def next_hyperbola_point(sol: HyperbolaSolution, t: float, k: float, direction: float) -> float:
    """Parameter one pair-invariant step k away along the hyperbola branch."""
    pa = sol.point(t)

    def gap(dt: float) -> float:
        pb = sol.point(t + direction * dt)
        if pb.x <= 0.0:
            return math.inf
        try:
            return disc_i1_sl4(pa, pb) - k
        except DomainViolation:
            return math.inf

    dt = bracket_and_bisect(gap, 0.0, 1e-8, 50.0)
    if dt is None:
        raise DomainViolation("pair-invariant step does not fit on the branch", k)
    return t + direction * dt


# Random admissible windows on exact conics, for the oracles of the step.


def random_sl3_window(rng, order):
    """Equal-spacing window on a random circle as (scheme state, Newton
    guess) by _conic_window, or None when the draw leaves the domain."""
    try:
        c = rng.uniform(0.5, 3.0)
        a = rng.uniform(0.5, 2.0)
        x0 = rng.uniform(0.8, 2.5)
        sol = fit_circle(Point2(x0, rng.uniform(-1.0, 6.0)), c, a)[0]
        if sol.cx - sol.r <= 0.05:
            return None
        k_chord = sol.r * rng.uniform(0.02, 0.05)
        params = [rng.uniform(0.3, 1.2)]
        for _ in range(2):
            params.append(next_circle_point(sol, params[-1], k_chord, +1))
        return _conic_window(RealizationId.SL3, [sol.point(t) for t in params], c, order)
    except DomainViolation:
        return None


def random_sl4_window(rng, order):
    """Equal-spacing window on the left branch of a random hyperbola as
    (scheme state, Newton guess) by _conic_window, or None when the draw
    leaves the domain.

    The hyperbola is fitted through a random point, but the window lies on
    its left branch wherever that point lies: on order-3 windows on the
    right branch of a hyperbola centred at x > 0, the step's turn pick and
    a Newton solve from the extrapolation can land on different roots.
    """
    try:
        c = rng.uniform(2.0, 6.0)
        a = rng.uniform(0.5, 1.5)
        fit = fit_hyperbola(Point2(rng.uniform(1.0, 3.0), rng.uniform(0.0, 5.0)), c, a)[0]
        sol = HyperbolaSolution(fit.cx, fit.cy, fit.r, -1.0)
        t0 = rng.uniform(-0.8, 0.8)
        k_inv = rng.uniform(0.02, 0.08)
        params = [t0]
        for _ in range(2):
            params.append(next_hyperbola_point(sol, params[-1], k_inv, +1))
        pts = [sol.point(t) for t in params]
        if min(p.x for p in pts) <= 0.05:
            return None
        return _conic_window(RealizationId.SL4, pts, c, order)
    except DomainViolation:
        return None


def _conic_window(realization, pts, c, order):
    """(state, Newton guess) from three equal-spacing points on a conic of
    invariant c.  At order 2 the window is the first two points, its side
    the sign of s_value at the third, and the guess that third point, next
    to the step's root: the linear guess sits halfway between the step's
    mirror roots, a coin flip for Newton.  At order 3 the window is all
    three, its side their turning side, and the guess the quadratic
    extrapolation through them."""
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    k = disc(pts[0], pts[1])
    if order == 2:
        spec = SchemeSpec(realization, 2, K=k, C=c)
        side = math.copysign(1.0, s_value(realization, *pts))
        return SchemeState(tuple(pts[:2]), spec, side=side), pts[2]
    tau = window_j1(realization, *pts)
    spec = SchemeSpec(realization, 3, K=k, F=square)
    state = SchemeState(tuple(pts), spec, last_j1=tau, side=turning_side(*pts))
    a, b, p = pts
    return state, Point2(a.x - 3 * b.x + 3 * p.x, a.y - 3 * b.y + 3 * p.y)


# The textbook J1 and J2 formulas on rounded pair invariants: an oracle for
# window_j1_from_pairs, which rebuilds J1 from the coordinates instead.


def _checked_sqrt(radicand: float, what: str) -> float:
    if radicand < 0.0:
        if radicand > -_RADICAND_SLACK:
            return 0.0
        raise DomainViolation(f"{what} has negative radicand", radicand)
    return math.sqrt(radicand)


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


# The CSV text through the csv module, one field at a time: an oracle for
# the harness's writer, which formats each line in one go.


def _fmt(v):
    return "" if v is None else f"{v:.17g}"


def _csv_rows(method, traj, seed):
    if method != "invariant":
        yield ("index", "x", "y")
        for i, p in enumerate(traj.points):
            yield (str(i), _fmt(p.x), _fmt(p.y))
        return
    yield ("index", "x", "y", "J1", "J2", "meshResidual")
    for i, p in enumerate(traj.points):
        diag = None
        if i >= seed and i - seed < len(traj.diagnostics):
            diag = traj.diagnostics[i - seed]
        yield (
            str(i), _fmt(p.x), _fmt(p.y),
            _fmt(diag.j1 if diag else None),
            _fmt(diag.j2 if diag else None),
            _fmt(diag.mesh_residual if diag else None),
        )


def csv_oracle_bytes(method, traj, seed) -> bytes:
    """The bytes csv.writer writes for a method's trajectory CSV."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(_csv_rows(method, traj, seed))
    return buf.getvalue().encode()


def all_singularities(traj) -> list:
    """Every flag of detect_singularity's scan, in order: each x-reversal
    (the vertical tangent a trajectory crossed) and, elsewhere, each secant
    blow-up (|dy/dx| > 1e4)."""
    xs, ys = traj.xs, traj.ys
    flags = []
    for j in range(len(xs) - 1):
        dx = xs[j + 1] - xs[j]
        if j >= 1 and (xs[j] - xs[j - 1]) * dx < 0.0:
            flags.append(SingularityFlag(xs[j], "tangent-crossing"))
        elif abs(ys[j + 1] - ys[j]) > 1e4 * abs(dx):
            flags.append(SingularityFlag(xs[j + 1], "blow-up"))
    return flags


# The order-2 equation of each realization written out on its own: an
# oracle for the sigma forms invariants._i1 and baselines._solved_ypp.


def i1_sl3(x: float, yp: float, ypp: float) -> float:
    """(y'(1+y'^2) - x y'') / (1+y'^2)^(3/2)."""
    if x <= 0.0:
        raise DomainViolation("jet needs x > 0", x)
    d = 1.0 + yp * yp
    return (yp * d - x * ypp) / d**1.5


def i1_sl4(x: float, yp: float, ypp: float) -> float:
    """(x y'' + y'(y'^2-1)) / (y'^2-1)^(3/2); needs |y'| > 1."""
    if x <= 0.0:
        raise DomainViolation("jet needs x > 0", x)
    e = yp * yp - 1.0
    if e <= 0.0:
        raise DomainViolation("sl4 first invariant needs |y'| > 1", yp)
    return (x * ypp + yp * e) / e**1.5


def solved_ypp(realization: RealizationId, c: float) -> Callable[[float, float], float]:
    """y'' of I1 = c solved for each realization on its own."""
    if realization is RealizationId.SL3:

        def ypp(x: float, yp: float) -> float:
            if x == 0.0:
                raise DomainViolation("second derivative undefined at x = 0", x)
            d = 1.0 + yp * yp
            return (yp * d - c * d**1.5) / x

    else:

        def ypp(x: float, yp: float) -> float:
            if x == 0.0:
                raise DomainViolation("second derivative undefined at x = 0", x)
            e = yp * yp - 1.0
            if e <= 0.0:
                raise DomainViolation("sl4 slope left |y'| > 1", yp)
            return (c * e**1.5 - yp * e) / x

    return ypp


# Any float, half of the draws from those where two forms of one formula
# could part: signed zeros, subnormals, the sl4 edge |y'| = 1, squares
# that overflow, infinities and NaN.
ANY_FLOAT = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1.0 + 2.0**-52, -1.0 - 2.0**-52,
    1e154, -1e154, 1e300, math.inf, -math.inf, math.nan,
]) | st.floats()


def outcome(fn, *args) -> tuple:
    """What fn(*args) returns or raises, comparable with ==: floats by
    repr, which tells signed zeros apart and lets NaN equal NaN, and a
    DomainViolation by its text and location."""
    try:
        return ("value", repr(fn(*args)))
    except DomainViolation as exc:
        return ("domainViolation", exc.detail, repr(exc.location))
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))


# The Dormand-Prince tableau as tuples, for the nested-loop trial below.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_ERR = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def dp_trial_oracle(rhs, x, y, h, rtol, atol):
    """One Dormand-Prince trial step of size h from (x, y), as nested loops
    over stages, tableau entries and components.

    Returns the fifth-order state and the RMS error norm scaled by
    atol + rtol * max(|y|, |y5|), or None when a stage raises one of
    baselines._STAGE_ERRORS or the new state is not finite.
    """
    n = len(y)
    k = []
    try:
        for i in range(7):
            xi = x + _DP_C[i] * h
            yi = y[:]
            for j, aij in enumerate(_DP_A[i]):
                if aij != 0.0:
                    kj = k[j]
                    for m in range(n):
                        yi[m] += h * aij * kj[m]
            k.append(rhs(xi, yi))
    except _STAGE_ERRORS:
        return None
    y5 = y[:]
    err2 = 0.0
    for m in range(n):
        acc5 = 0.0
        errm = 0.0
        for i in range(7):
            kim = k[i][m]
            acc5 += _DP_B5[i] * kim
            errm += _DP_ERR[i] * kim
        y5[m] += h * acc5
        if not math.isfinite(y5[m]):
            return None
        sc = atol + rtol * max(abs(y[m]), abs(y5[m]))
        e = h * errm / sc
        err2 += e * e
    return y5, math.sqrt(err2 / n)
