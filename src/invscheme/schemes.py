"""Symmetry-preserving difference steppers for the sl3 and sl4 realizations.

A step advances a window of mesh points by solving two equations for the
next point p: the mesh equation fixes the pair invariant of the newest
pair at the mesh constant K, and the scheme equation fixes the pair
invariant of the outer pair at a target M obtained by inverting the
three-point invariant relation (J1 = C for order 2, the J2 = F(J1) update
rule for order 3).  Each equation is a level set of a pair invariant,
which is a conic in the coordinates of p; subtracting one conic equation
from the other leaves a straight line, so every step reduces to a single
line/conic intersection.  A short Newton polish removes the intersection
roundoff; it is the step's only solver, and a polish that stops short of
the residual gate, leaves the invariant domain, or follows a degenerate
reduction ends the step.  newton_fallback_step, a damped 2-D Newton on the
pair-invariant equations that never sees the reduction, is the tests'
independent oracle for the step's point.

Root selection: the intersection quadratic has two roots, mirror images
across the line.  Away from tangency both lie forward of the motion, so
forward filtering alone cannot separate them; what distinguishes them is
the side the trajectory turns to.  The stepper therefore carries the
turning side (sign of the cross product of consecutive displacements) in
its state and keeps it continuous from step to step.

J1 is a principal (nonnegative) square root everywhere.  An order-3 step
whose J1 target comes out negative, or whose outer-pair target M is not
positive, is geometrically impossible at this mesh constant and raises
NoIntersection, which a runner records as the halting event.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .baselines import ode_rhs_library, rk45_integrate, square
from .core import (
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
    near_equal,
    validate_point,
)
from .exact import (
    fit_circle,
    fit_hyperbola,
    next_chord_point,
    param_of,
    point_at,
)
# Nothing here calls window_j2; bench/tracing.py counts its calls on this module.
from .invariants import (
    _j2, disc_i1_sl3, disc_i1_sl4, window_j1, window_j1_from_pairs, window_j2,
)

# Residual level (on the pair-invariant equations) beyond which a step is
# rejected as unreliable rather than appended to the trajectory.
_RESIDUAL_HALT = 5e-11

# Mesh precondition guard: window pairs must agree with K at least this
# well (bootstrap promises 1e-6, solved steps are near machine precision).
_MESH_GUARD = 1e-5


@dataclass(slots=True)
class SchemeState:
    """Stepper state: the sliding window plus continuation bookkeeping.

    window holds the points a step needs (2 for order 2, 3 for order 3),
    oldest first.  last_j1 is the update rule's J1 target (order 3 only):
    bootstrap starts it at the window's J1, tau, and advance_state carries
    the previous step's j1_next target.  side is the turning side carried
    for root selection: +1, -1, or 0 when not yet established.

    pairs holds the pair invariants of consecutive window points, oldest
    first, and j1_window the window's measured J1 (order 3 only).
    bootstrap and advance_state pass them; a state built without them
    evaluates them in window order, raising the first pair's error.
    mesh_checked is the mesh guard's state, set by advance_state on a
    state built from its step's hand-over (see _check_mesh).  A run builds
    one state per step, so the record is slotted and unfrozen, with the
    step's hand-over in a plain field; it is read-only by convention.
    """

    window: tuple[Point2, ...]
    spec: SchemeSpec
    last_j1: Optional[float] = None
    side: float = 0.0
    pairs: Optional[tuple[float, ...]] = field(default=None, compare=False, repr=False)
    j1_window: Optional[float] = field(default=None, compare=False, repr=False)
    mesh_checked: bool = field(default=False, compare=False, repr=False)
    _step: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.window) != self.spec.order:
            raise ValueError(
                f"order-{self.spec.order} scheme needs a window of "
                f"{self.spec.order} points, got {len(self.window)}"
            )
        if self.spec.order == 3 and self.last_j1 is None:
            raise ValueError("order-3 state needs last_j1")
        if self.pairs is None:
            disc = _pair_disc(self.spec.realization)
            self.pairs = tuple(disc(pa, pb) for pa, pb in zip(self.window, self.window[1:]))
        elif len(self.pairs) != self.spec.order - 1:
            raise ValueError("pairs needs one invariant per consecutive window pair")
        if self.spec.order == 3 and self.j1_window is None:
            self.j1_window = window_j1(self.spec.realization, *self.window)


def _pair_disc(realization: RealizationId) -> Callable[[Point2, Point2], float]:
    return disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4


def _invert_j1(realization: RealizationId, sum_pair: float, prod: float, t: float) -> float:
    """Outer-pair invariant M that makes the window's J1 equal t.

    Solves the J1 formula for the outer pair invariant: with s = i1n +
    i1n1 and q = i1n * i1n1, sl3 gives M = s + q*s*(1 - t^2)/8 and sl4
    gives M = s + q*s*(1 + t^2/2).
    """
    if realization is RealizationId.SL3:
        return sum_pair + prod * sum_pair * (1.0 - t * t) / 8.0
    return sum_pair + prod * sum_pair * (1.0 + t * t / 2.0)


def scheme_targets(state: SchemeState) -> tuple[float, Optional[float]]:
    """The step's targets (m, j1_next) from the current window: the outer
    pair's target M and, at order 3, the update rule's next J1, else None.

    Raises NoIntersection when the targets are geometrically impossible
    (negative J1 target on the principal branch, or nonpositive M).
    """
    spec = state.spec
    k = spec.K
    if spec.order == 2:
        (i1n,) = state.pairs
        m, j1_next = _invert_j1(spec.realization, i1n + k, i1n * k, spec.C), None
    else:
        i1n, i1n1 = state.pairs
        s3 = i1n + i1n1 + k
        tau = state.last_j1
        if spec.realization is RealizationId.SL3:
            j1_next = tau + s3 / 3.0 * spec.F(tau)
        else:
            j1_next = tau + s3 / 3.0 * (spec.F(tau) - 6.0 * tau * tau - 3.0)
        if j1_next < 0.0:
            raise NoIntersection(
                f"J1 target {j1_next:.3e} is negative on the principal branch",
                state.window[-1],
            )
        m = _invert_j1(spec.realization, i1n1 + k, i1n1 * k, j1_next)
    if m <= 0.0:
        raise NoIntersection(
            f"outer pair invariant target {m:.3e} is not positive",
            state.window[-1],
        )
    return m, j1_next


def _check_mesh(state: SchemeState) -> None:
    """Raise DomainViolation unless every window pair matches K to 1e-5.
    A state built from a step's hand-over skips it: its newest pair passed
    the 5e-11 residual gate and its older ones this check a step before."""
    for value, pb in zip(state.pairs, state.window[1:]):
        if not near_equal(value, state.spec.K, _MESH_GUARD):
            raise DomainViolation(
                f"window pair invariant {value:.6e} does not match "
                f"the mesh constant {state.spec.K:.6e}",
                pb,
            )


def _level_set(sigma: float, r: Point2, c: float) -> tuple[float, float, float]:
    """(qx, qy, q0) of sigma (x - r.x)^2 + (y - r.y)^2 = c r.x x expanded
    to sigma x^2 + y^2 + qx x + qy y + q0 = 0."""
    return -(2.0 * sigma + c) * r.x, -2.0 * r.y, sigma * r.x * r.x + r.y * r.y


def _line(
    realization: RealizationId, p_prev: Point2, p_last: Point2, k: float, m: float
) -> tuple[tuple[float, float, float], tuple[float, float, float, float]]:
    """Unit-normal line (a, b, d) of the step and its mesh conic as
    (sigma, qx, qy, q0); see reduce_to_line_conic.

    Both realizations' level sets {p : pair invariant of (r, p) = t} are
    _level_set's family, with (sigma, c_t) = (1, t^2) for sl3 and
    (-1, 4 t^2 / (1 + t^2)) for sl4.  The mesh conic is that of (p_last,
    K), the outer one that of (p_prev, M), and the line their difference.
    """
    if realization is RealizationId.SL3:
        sigma, c_k, c_m = 1.0, k * k, m * m
    else:
        sigma, c_k, c_m = -1.0, 4.0 * (k * k / (1.0 + k * k)), 4.0 * (m * m / (1.0 + m * m))
    qx, qy, q0 = _level_set(sigma, p_last, c_k)
    ox, oy, o0 = _level_set(sigma, p_prev, c_m)
    a, b, d = qx - ox, qy - oy, o0 - q0
    nrm = math.hypot(a, b)
    if nrm == 0.0:
        raise NoIntersection("the step's level sets are concentric, no line", p_last)
    return (a / nrm, b / nrm, d / nrm), (sigma, qx, qy, q0)


def reduce_to_line_conic(state: SchemeState) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Rewrite the step's two conic equations as a line plus one conic.

    The mesh equation is the conic around the newest window point with
    parameter K; the scheme equation is the conic around the previous
    point with parameter M.  Their quadratic parts are identical, so the
    difference is a line; (line, mesh conic) has exactly the same solution
    set as the original pair.  Returns floats: the unit-normal line
    a*x + b*y = d as (a, b, d), and the mesh conic as the coefficients
    (qxx, qxy, qyy, qx, qy, q0) = (sigma, 0.0, 1.0, qx, qy, q0) of _line.

    Raises NoIntersection when the difference degenerates (no line): the
    level sets then share their linear part too, so they are concentric,
    and disjoint unless p_prev == p_last, which the window's pairs reject.
    """
    line, (sigma, qx, qy, q0) = _line(
        state.spec.realization, state.window[-2], state.window[-1],
        state.spec.K, scheme_targets(state)[0],
    )
    return line, (sigma, 0.0, 1.0, qx, qy, q0)


def turning_side(p0: Point2, p1: Point2, p2: Point2, fallback: float = 0.0) -> float:
    """Sign of the cross product of displacements p0->p1 and p1->p2.

    Returns fallback when the three points are collinear to relative
    precision 1e-9, so an established side survives straight stretches.
    """
    vx, vy = p1.x - p0.x, p1.y - p0.y
    wx, wy = p2.x - p1.x, p2.y - p1.y
    cr = vx * wy - vy * wx
    if abs(cr) > 1e-9 * math.hypot(vx, vy) * math.hypot(wx, wy):
        return 1.0 if cr > 0.0 else -1.0
    return fallback


def _fast_step(
    realization: RealizationId, p_prev: Point2, p_last: Point2, k: float, m: float, side: float
) -> tuple[float, float, float, float, int]:
    """The step's fast path on plain floats: reduction, root pick, polish.

    The line, parametrized from the foot of the perpendicular dropped from
    p_last (which keeps the parameter small), meets the mesh conic
    sigma x^2 + y^2 + qx x + qy y + q0 = 0 of _line in a quadratic solved
    by the stable (sign-aware) formula; a discriminant within 1e-10 below
    zero counts as a tangency (double root).

    Of the roots forward of the last chord and in the half plane, prefer
    the one whose turn matches side (any turn matches side 0); among equals
    take the root nearest the linear extrapolation of the last chord.  The
    turn carries the pick at order 2 as well as at order 3: the mirror
    roots lie only O(K^2) apart, as close as the extrapolation's own
    O(K^2) miss, so nearness alone picks the other root on 6651 of the
    20000 steps of fig1 at h = 0.01.  Picking by
    forward distance instead can capture the mirror, whose displacement in
    the hyperbolic-rotation geometry grows without bound as chords approach
    slope +-1.

    Returns _polish's result for that root.  Raises NoIntersection when the
    reduction degenerates or no root is admissible, and DomainViolation
    when a polish iterate leaves the invariant domain.
    """
    (la, lb, ld), (sigma, qx, qy, q0) = _line(realization, p_prev, p_last, k, m)
    # A second normalization: dropping it moves the last bit of some roots,
    # and with them the written trajectories.
    nrm = math.hypot(la, lb)
    la, lb, ld = la / nrm, lb / nrm, ld / nrm
    ax, ay = p_last.x, p_last.y
    t0 = la * ax + lb * ay - ld
    bx, by = ax - t0 * la, ay - t0 * lb
    dx, dy = lb, -la
    alpha = sigma * dx * dx + dy * dy
    beta = 2.0 * sigma * bx * dx + 2.0 * by * dy + qx * dx + qy * dy
    gamma = sigma * bx * bx + by * by + qx * bx + qy * by + q0
    if abs(alpha) < 1e-13 * (abs(beta) + 1.0):
        if beta == 0.0:
            raise NoIntersection("line/conic system is degenerate", p_last)
        ts: tuple[float, ...] = (-gamma / beta,)
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
        key = ((pdx * ry - pdy * rx) * side >= 0.0, -math.hypot(x - gx, y - gy))
        if best is None or key > best[0]:
            best = key, x, y
    if best is None:
        raise NoIntersection("no admissible forward root", p_last)
    return _polish(realization, p_prev, p_last, k, m, best[1], best[2])


def _disc_grad_sl3(rx: float, ry: float, x: float, y: float) -> tuple[float, float, float]:
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


def _disc_grad_sl4(rx: float, ry: float, x: float, y: float) -> tuple[float, float, float]:
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


def _polish(
    realization: RealizationId, p_prev: Point2, p_last: Point2, k: float, m: float,
    x: float, y: float,
) -> tuple[float, float, float, float, int]:
    """Few analytic Newton corrections on the two pair-invariant equations.

    Returns (x, y, da, db, iterations), where da = I(p_last, p) and
    db = I(p_prev, p) are the pair invariants of the returned point p.
    _disc_grad_* form them with the operations of disc_i1_*, so they are
    the same bits.  Raises DomainViolation when an iterate leaves the
    invariant domain.
    """
    grad = _disc_grad_sl3 if realization is RealizationId.SL3 else _disc_grad_sl4
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


def newton_fallback_step(state: SchemeState, guess: Point2) -> Point2:
    """Damped 2-D Newton on the step's pair-invariant equations: the tests'
    oracle for the step's point, which the step itself never calls (the
    benchmark's tracer counts calls under this name).

    Independent of the line/conic reduction: finite-difference Jacobian
    (relative step 1e-7), at most 50 iterations, halving the update up to
    20 times whenever the residual norm fails to decrease.  Succeeds when
    both residuals are at most 1e-12; an already-exact guess returns
    immediately.  Raises NewtonDivergence otherwise.
    """
    disc = _pair_disc(state.spec.realization)
    p_last, p_prev = state.window[-1], state.window[-2]
    k, m = state.spec.K, scheme_targets(state)[0]

    def residuals(p: Point2) -> tuple[float, float]:
        if not validate_point(p):
            raise DomainViolation("iterate left the half plane", p)
        return disc(p_last, p) - k, disc(p_prev, p) - m

    def norm(r: tuple[float, float]) -> float:
        return max(abs(r[0]), abs(r[1]))

    p = guess
    try:
        r = residuals(p)
    except DomainViolation as exc:
        raise NewtonDivergence(f"guess outside domain: {exc.detail}", guess)
    for _ in range(50):
        if norm(r) <= 1e-12:
            return p
        hx = 1e-7 * max(abs(p.x), 1.0)
        hy = 1e-7 * max(abs(p.y), 1.0)
        try:
            rx = residuals(Point2(p.x + hx, p.y))
            ry = residuals(Point2(p.x, p.y + hy))
        except DomainViolation:
            raise NewtonDivergence("Jacobian probe left the domain", p)
        j11 = (rx[0] - r[0]) / hx
        j12 = (ry[0] - r[0]) / hy
        j21 = (rx[1] - r[1]) / hx
        j22 = (ry[1] - r[1]) / hy
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NewtonDivergence("singular Jacobian in fallback step", p)
        sx = (j22 * r[0] - j12 * r[1]) / det
        sy = (j11 * r[1] - j21 * r[0]) / det
        scale = 1.0
        for _ in range(20):
            cand = Point2(p.x - scale * sx, p.y - scale * sy)
            try:
                rc = residuals(cand)
            except DomainViolation:
                scale *= 0.5
                continue
            if norm(rc) < norm(r):
                p, r = cand, rc
                break
            scale *= 0.5
        else:
            raise NewtonDivergence("damping exhausted without progress", p)
    if norm(r) <= 1e-12:
        return p
    raise NewtonDivergence(f"no convergence, residual {norm(r):.3e}", p)


def step_with_diagnostics(state: SchemeState) -> tuple[Point2, StepDiagnostics]:
    """One scheme step: targets, line/conic fast path with its polish, and
    diagnostics.

    Each quantity is computed once.  The mesh guard (for a state not built
    from a hand-over) and the targets read the state's pair invariants.
    The polish, the step's only solver, returns the pair invariants
    da = I(p_last, p) and db = I(p_prev, p) of its point p; the residuals
    are |da - K| and |db - M|, and J1 is that of (p_prev, p_last, p) from
    the state's newest pair invariant, da and db.  At order 3, J2 of the
    window plus p comes from that J1, the window's J1 and the pair
    invariants, by window_j2's formula.  A residual above 5e-11, or not
    finite, raises NewtonDivergence naming it.  The step leaves p, da,
    (order 3) J1 and the next J1 target on the state for advance_state.
    """
    if not state.mesh_checked:
        _check_mesh(state)
    spec = state.spec
    m, j1_next = scheme_targets(state)
    realization, k = spec.realization, spec.K
    p_prev, p_last = state.window[-2], state.window[-1]
    x, y, da, db, iters = _fast_step(realization, p_prev, p_last, k, m, state.side)
    root = Point2(x, y)
    mesh_res, scheme_res = abs(da - k), abs(db - m)
    res = max(mesh_res, scheme_res)
    if not res <= _RESIDUAL_HALT:
        raise NewtonDivergence(f"step residual {res:.3e} did not converge", root)
    pairs = state.pairs
    j1 = window_j1_from_pairs(realization, p_prev, p_last, root, pairs[-1], da, db)
    j2 = None
    if spec.order == 3:
        j2 = _j2(realization, state.j1_window, j1, pairs[0] + pairs[1] + da)
    state._step = (root, da, j1 if spec.order == 3 else None, j1_next)
    return root, StepDiagnostics(j1, mesh_res, scheme_res, iters, j2)


def advance_state(state: SchemeState, p_next: Point2) -> SchemeState:
    """Slide the window over p_next and carry what the next step needs.

    The next state gets the turning side, at order 3 the J1 target of the
    update rule, and the pair invariants of its window: the carried ones
    plus the one for the pair that p_next closes.  When p_next is or
    equals the point of the state's last step, that pair invariant and
    (order 3) the window's J1 and the J1 target are the step's, and the
    next state skips the mesh guard; for any other point they are
    evaluated, the target by scheme_targets, and it does not.
    """
    spec, window = state.spec, state.window
    side = turning_side(window[-2], window[-1], p_next, fallback=state.side)
    step = state._step
    handed = step is not None and (step[0] is p_next or step[0] == p_next)
    if handed:
        _, newest, j1_window, last_j1 = step
    else:
        last_j1 = scheme_targets(state)[1] if spec.order == 3 else None
        newest, j1_window = _pair_disc(spec.realization)(window[-1], p_next), None
    pairs = state.pairs[1:] + (newest,)
    return SchemeState(window[1:] + (p_next,), spec, last_j1, side, pairs, j1_window, handed)


# -- bootstrap ----------------------------------------------------------------


def _pick_direction(sol, t0: float, h: float, branch: int) -> tuple[float, float]:
    """Walk direction on a conic, increasing y first and increasing x on
    ties, with the parameter of the chord point one h along it.  On a
    hyperbola y = cy + r sinh t rises with t, so the walk is +1 there; a
    circle is probed both ways."""
    if sol.sigma < 0.0:
        return 1.0, next_chord_point(sol, t0, h, 1.0, branch)
    p0 = point_at(sol, t0, branch)
    probes = {}
    for d in (1.0, -1.0):
        t1 = next_chord_point(sol, t0, h, d, branch)
        p1 = point_at(sol, t1, branch)
        probes[d] = (p1.y - p0.y, p1.x - p0.x), t1
    direction = max(probes, key=lambda d: probes[d][0])
    return direction, probes[direction][1]


class _ReferenceCurve:
    """Graph-form reference solution x -> (x, y(x)) at tight tolerance.

    Calling the curve integrates afresh from x0 to x, so a point that is
    written out does not depend on which points were asked for before.
    interp(x), for x >= x0, answers from one forward run instead: it keeps
    the accepted integrator nodes with their states (y, y', y''), continues
    from the last node when asked beyond it, and evaluates the quintic
    Hermite polynomial through the two nodes that enclose x.
    """

    def __init__(
        self,
        realization: RealizationId,
        ics: Mapping[str, float],
        f: Callable[[float], float],
    ):
        self._rhs = ode_rhs_library(realization, 3, F=f).rhs
        self._x0 = float(ics["x0"])
        self._state0 = [float(ics["y0"]), float(ics["yp0"]), float(ics["ypp0"])]
        self._xs = [self._x0]
        self._states = [self._state0]

    def _integrate(self, x_start: float, state: Sequence[float], x: float):
        result = rk45_integrate(self._rhs, x_start, state, x, rtol=1e-12, atol=1e-13)
        if result.status != "ok":
            raise NumericError(
                f"reference integration failed: {result.detail}", result.halt_x
            )
        return result

    def __call__(self, x: float) -> Point2:
        if x == self._x0:
            return Point2(self._x0, self._state0[0])
        result = self._integrate(self._x0, self._state0, x)
        return Point2(result.xs[-1], result.states[-1][0])

    def interp(self, x: float) -> Point2:
        xs, states = self._xs, self._states
        if x > xs[-1]:
            result = self._integrate(xs[-1], states[-1], x)
            xs.extend(result.xs[1:])
            states.extend(result.states[1:])
        # The last node may land an ulp short of the x it was asked for.
        i = min(max(bisect_left(xs, x), 1), len(xs) - 1)
        if x == xs[i]:
            return Point2(x, states[i][0])
        (ya, da, sa), (yb, db, sb) = states[i - 1], states[i]
        w = xs[i] - xs[i - 1]
        t = (x - xs[i - 1]) / w
        t2, t3 = t * t, t * t * t
        y = (
            ya * (1.0 - t3 * (10.0 - 15.0 * t + 6.0 * t2))
            + yb * t3 * (10.0 - 15.0 * t + 6.0 * t2)
            + w * da * t * (1.0 - t2 * (6.0 - 8.0 * t + 3.0 * t2))
            - w * db * t3 * (4.0 - 7.0 * t + 3.0 * t2)
            + 0.5 * w * w * sa * t2 * (1.0 - t) ** 3
            + 0.5 * w * w * sb * t3 * (1.0 - t) ** 2
        )
        return Point2(x, y)


def _bracket_and_bisect(
    gap: Callable[[float], float], x_start: float, hi: float, hi_limit: float
) -> float:
    """Abscissa where gap changes sign ahead of x_start.

    Doubles the offset hi until gap(x_start + hi) >= 0, then halves the
    bracket [x_start, x_start + hi] 80 times, moving its lower end while
    gap < 0 there.
    """
    while gap(x_start + hi) < 0.0:
        hi *= 2.0
        if hi > hi_limit:
            raise NumericError("reference search failed to bracket", x_start)
    lo_x, hi_x = x_start, x_start + hi
    for _ in range(80):
        mid = 0.5 * (lo_x + hi_x)
        if gap(mid) < 0.0:
            lo_x = mid
        else:
            hi_x = mid
    return 0.5 * (lo_x + hi_x)


def bootstrap(
    realization: RealizationId,
    order: int,
    ics: Mapping[str, float],
    h: float,
    f: Optional[Callable[[float], float]] = None,
) -> SchemeState:
    """Starting state from initial data, spaced by steps of length ~h.

    Order 2 needs x0, y0, C, a: the exact conic through (x0, y0) with
    invariant C and scale a supplies the second point one chord h along
    it, on the hyperbola branch that (x0, y0) lies on, walking toward
    increasing y first (increasing x on ties).  The turning side is read
    off the conic: the walk direction on a circle, and minus the branch
    times the direction on a hyperbola.  Order 3
    needs x0, y0, yp0, ypp0: the reference solution comes from the
    high-accuracy adaptive integrator at tolerance 1e-12, run forward once
    and grown on demand.  Two bisections on its quintic Hermite interpolant
    place the second point one chord h along it and the third where its
    pair invariant matches the first pair's; both points are then
    evaluated by a fresh integration from x0, and the second pair must
    match K within 1e-6.

    The mesh constant K is the measured pair invariant of the first pair.
    """
    x0, y0 = float(ics["x0"]), float(ics["y0"])
    p0 = Point2(x0, y0)
    if not validate_point(p0):
        raise DomainViolation("initial point outside the half plane", p0)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("bootstrap spacing h must be positive")
    disc = _pair_disc(realization)

    if order == 2:
        if "C" not in ics or "a" not in ics:
            raise ValueError("order-2 bootstrap needs C and a")
        c, a = float(ics["C"]), float(ics["a"])
        fit = fit_circle if realization is RealizationId.SL3 else fit_hyperbola
        sol = fit(p0, c, a)[0]
        # the hyperbola branch p0 lies on; circles ignore it
        branch = 1 if x0 > sol.cx else -1
        t0 = param_of(sol, p0)
        direction, t1 = _pick_direction(sol, t0, h, branch)
        p1 = point_at(sol, t1, branch)
        k = disc(p0, p1)
        side = direction if sol.sigma > 0.0 else -branch * direction
        spec = SchemeSpec(realization, 2, K=k, C=c)
        return SchemeState((p0, p1), spec, None, side, (k,))

    if order != 3:
        raise ValueError("order must be 2 or 3")
    if "yp0" not in ics or "ypp0" not in ics:
        raise ValueError("order-3 bootstrap needs yp0 and ypp0")
    rhs = f if f is not None else square
    curve = _ReferenceCurve(realization, ics, rhs)

    def chord_gap(x: float) -> float:
        p = curve.interp(x)
        return math.hypot(p.x - p0.x, p.y - p0.y) - h

    x1 = _bracket_and_bisect(chord_gap, x0, h, 1e3 * h)
    p1 = curve(x1)
    k = disc(p0, p1)

    def invariant_gap(x: float) -> float:
        try:
            return disc(p1, curve.interp(x)) - k
        except DomainViolation:
            return math.inf

    x2 = _bracket_and_bisect(invariant_gap, x1, 1e-4, 1e6)
    p2 = curve(x2)
    k2 = disc(p1, p2)
    if abs(k2 - k) > 1e-6:
        raise NumericError(f"second pair invariant {k2:.6e} missed K={k:.6e}", x2)
    tau = window_j1(realization, p0, p1, p2)
    side = turning_side(p0, p1, p2)
    spec = SchemeSpec(realization, 3, K=k, F=rhs)
    return SchemeState((p0, p1, p2), spec, tau, side, (k, k2), tau)


def run_scheme(
    state: SchemeState,
    max_steps: int,
    x_window: Optional[tuple[float, float]] = None,
) -> Trajectory:
    """Repeat the step until max steps, x-range exit, or a numeric halt.

    The trajectory starts with the window points and records per-step
    diagnostics and the wall seconds of every accepted step; whatever stops
    the run, in the step or in advancing the state past it, is stored in
    the halt record, so failures are data rather than exceptions.  A point
    that lands outside x_window is kept (it is the evidence of the exit).
    """
    traj = Trajectory([p.x for p in state.window], [p.y for p in state.window])
    if max_steps <= 0:
        traj.halt = HaltInfo("maxSteps", x=state.window[-1].x, detail="0 steps requested")
        return traj
    add_x, add_y, add_diag = traj.xs.append, traj.ys.append, traj.diagnostics.append
    add_seconds, clock = traj.step_seconds.append, time.perf_counter
    t0 = clock()
    for _ in range(max_steps):
        try:
            p_next, diag = step_with_diagnostics(state)
            state = advance_state(state, p_next)
        except NumericError as exc:
            traj.halt = HaltInfo(exc.kind, x=state.window[-1].x, detail=exc.detail)
            return traj
        add_x(p_next.x)
        add_y(p_next.y)
        add_diag(diag)
        t1 = clock()
        add_seconds(t1 - t0)
        t0 = t1
        if x_window is not None and not (x_window[0] <= p_next.x <= x_window[1]):
            traj.halt = HaltInfo(
                "xRangeExit", x=p_next.x,
                detail=f"left [{x_window[0]}, {x_window[1]}]",
            )
            return traj
    traj.halt = HaltInfo("maxSteps", x=traj.xs[-1], detail=f"{max_steps} steps")
    return traj
