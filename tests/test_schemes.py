"""Invariant-scheme steppers: exactness, conservation, oracles, guards.

Agreement with direct Newton on random windows, and the reduction's
cross-check against the pair equations, are acceptance criterion 08.
"""

import math
import random
import re
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invscheme import (
    CircleSolution,
    DomainViolation,
    HyperbolaSolution,
    NewtonDivergence,
    NoIntersection,
    NumericError,
    Point2,
    RealizationId,
    SchemeSpec,
    SchemeState,
    act,
    bootstrap,
    config_from_raw,
    disc_i1_sl3,
    disc_i1_sl4,
    fit_circle,
    fit_hyperbola,
    one_parameter,
    run_experiment,
    run_scheme,
    window_j1,
    window_j2,
)
from invscheme.schemes import (
    advance_state,
    newton_fallback_step,
    scheme_targets,
    square,
    step_with_diagnostics,
    turning_side,
)
from invscheme import schemes
from invscheme.invariants import _window_j1
from invscheme.baselines import rk45_integrate
from invscheme.exact import conic_distance, next_chord_point, param_of, point_at

from helpers import (
    ConicCoeffs,
    LineCoeffs,
    builtin,
    general_conic_line,
    general_conic_step,
    next_circle_point,
    next_hyperbola_point,
    random_sl3_window,
    random_sl4_window,
    reduced,
    solve_line_conic,
)

FIG1_ICS = {"x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0}
FIG2_ICS = {"x0": 1.0, "y0": 1.0, "yp0": 1.0, "ypp0": 3.0}
FIG3_ICS = {"x0": 2.0, "y0": 5.0, "C": 5.0, "a": 1.0}
FIG4_ICS = {"x0": 2.0, "y0": 1.0, "yp0": -1.5, "ypp0": -1.5}


def _run_points(state, n):
    return run_scheme(state, n).points


def _circumcircle(p0, p1, p2):
    """Circle through three points, by perpendicular-bisector solve."""
    ax, ay, bx, by, cx_, cy_ = p0.x, p0.y, p1.x, p1.y, p2.x, p2.y
    m = np.array([[bx - ax, by - ay], [cx_ - bx, cy_ - by]], dtype=float)
    rhs = 0.5 * np.array(
        [bx * bx - ax * ax + by * by - ay * ay,
         cx_ * cx_ - bx * bx + cy_ * cy_ - by * by]
    )
    center = np.linalg.solve(m, rhs)
    r = math.hypot(ax - center[0], ay - center[1])
    return CircleSolution(center[0], center[1], r)


def _circumhyperbola(p0, p1, p2):
    """Unit-eccentricity hyperbola (x-cx)^2-(y-cy)^2=r^2 through three points."""
    rows, rhs = [], []
    for p in (p0, p1, p2):
        rows.append([-2.0 * p.x, 2.0 * p.y, 1.0])
        rhs.append(p.y * p.y - p.x * p.x)
    cx, cy, s = np.linalg.solve(np.array(rows), np.array(rhs))
    r2 = cx * cx - cy * cy - s
    assert r2 > 0
    return HyperbolaSolution(cx, cy, math.sqrt(r2))


# -- exactness on conics (order 2) ----------------------------------------------


def test_order2_sl3_points_stay_on_a_circle():
    """The order-2 scheme's own solution is exactly a circle: every point
    lies on the circle through its first three points."""
    state = bootstrap(RealizationId.SL3, 2, FIG1_ICS, h=0.01)
    pts = _run_points(state, 600)
    assert len(pts) >= 600
    own = _circumcircle(pts[0], pts[1], pts[2])
    worst = max(abs(math.hypot(p.x - own.cx, p.y - own.cy) - own.r) for p in pts)
    assert worst < 1e-9


def test_order2_sl4_points_stay_on_a_hyperbola():
    """Same structural exactness for the hyperbolic family.

    The spacing balances two limits: coarse enough that the three-point
    fit is well conditioned, fine enough that the run collects a long
    trajectory before it reaches the edge of the half plane."""
    state = _sl4_order2_state(5.0, 1.0, k=0.02, t0=-1.6)
    pts = _run_points(state, 120)
    assert len(pts) >= 60
    own = _circumhyperbola(pts[0], pts[1], pts[2])
    worst = max(
        abs((p.x - own.cx) ** 2 - (p.y - own.cy) ** 2 - own.r**2)
        / (2.0 * math.hypot(p.x - own.cx, p.y - own.cy))
        for p in pts
    )
    assert worst < 1e-9


def test_order2_scheme_circle_approaches_exact_circle():
    """The scheme circle converges to the ODE circle as K shrinks."""
    exact = fit_circle(Point2(1.0, 8.0), 2.0, 1.0)[0]
    gaps = []
    for h in (0.04, 0.02, 0.01):
        state = bootstrap(RealizationId.SL3, 2, FIG1_ICS, h=h)
        pts = _run_points(state, 40)
        own = _circumcircle(pts[0], pts[len(pts) // 2], pts[-1])
        gaps.append(abs(own.r - exact.r) + math.hypot(own.cx - exact.cx, own.cy - exact.cy))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 1e-3


# -- conservation along trajectories --------------------------------------------


def _sl3_order2_state(c, a, k, theta0=2.0):
    sol = fit_circle(Point2(1.0, 8.0), c, a)[0]
    t0 = theta0
    t1 = next_circle_point(sol, t0, k, +1)
    p0, p1 = sol.point(t0), sol.point(t1)
    spec = SchemeSpec(RealizationId.SL3, 2, K=disc_i1_sl3(p0, p1), C=c)
    return SchemeState((p0, p1), spec)


def _sl4_order2_state(c, a, k, t0=-0.9):
    sol = fit_hyperbola(Point2(2.0, 5.0), c, a)[0]
    t1 = next_hyperbola_point(sol, t0, k, +1)
    p0, p1 = sol.point(t0), sol.point(t1)
    spec = SchemeSpec(RealizationId.SL4, 2, K=disc_i1_sl4(p0, p1), C=c)
    return SchemeState((p0, p1), spec)


def _sl3_order3_circle_state(k):
    """Order-3 window on an exact circle; with F = 0 the circle is an
    exact discrete solution (constant J1 means J2 = 0)."""
    sol = fit_circle(Point2(1.0, 8.0), 2.0, 1.0)[0]
    params = [2.0]
    for _ in range(2):
        params.append(next_circle_point(sol, params[-1], k, +1))
    pts = tuple(sol.point(t) for t in params)
    spec = SchemeSpec(
        RealizationId.SL3, 3, K=disc_i1_sl3(pts[0], pts[1]), F=lambda u: 0.0
    )
    tau = window_j1(RealizationId.SL3, *pts)
    return SchemeState(pts, spec, last_j1=tau, side=turning_side(*pts))


def _sl4_order3_state(k, f, c=5.0, t0=-0.9, branch=-1):
    """Order-3 window on an exact hyperbola, any right-hand side."""
    sol = fit_hyperbola(Point2(2.0, 5.0), c, 1.0)[0]
    params = [t0]
    for _ in range(2):
        params.append(next_hyperbola_point(sol, params[-1], k, +1, branch=branch))
    pts = tuple(sol.point(t, branch=branch) for t in params)
    spec = SchemeSpec(RealizationId.SL4, 3, K=disc_i1_sl4(pts[0], pts[1]), F=f)
    tau = window_j1(RealizationId.SL4, *pts)
    return SchemeState(pts, spec, last_j1=tau, side=turning_side(*pts))


def test_mesh_and_scheme_conservation_order2():
    """With a coarse mesh constant the run conserves disc I1 = K and
    J1 = C to 1e-10 (checked through the public invariants, not the
    stepper's own diagnostics)."""
    state = _sl3_order2_state(2.0, 1.0, k=0.08)
    pts = _run_points(state, 60)
    assert len(pts) >= 50
    k = state.spec.K
    for a, b in zip(pts, pts[1:]):
        assert abs(disc_i1_sl3(a, b) - k) < 1e-10 * (1 + k)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        assert abs(window_j1(RealizationId.SL3, a, b, c) - 2.0) < 1e-10


def test_mesh_and_scheme_conservation_order3_sl3():
    """F = square run started from the captioned third-order data.

    The mesh constant is kept coarse: the independent J2 re-evaluation
    below amplifies point rounding like 1/K^3, so very fine meshes bury
    the conserved value under evaluation noise even though the stepper
    enforced it."""
    state = bootstrap(RealizationId.SL3, 3, FIG2_ICS, h=0.12, f=square)
    traj = run_scheme(state, 20)
    pts = traj.points
    assert len(pts) >= 12
    k = state.spec.K
    for a, b in zip(pts, pts[1:]):
        assert abs(disc_i1_sl3(a, b) - k) < 1e-10 * (1 + k)
    for a, b, c, d in zip(pts, pts[1:], pts[2:], pts[3:]):
        j1 = window_j1(RealizationId.SL3, a, b, c)
        j2 = window_j2(RealizationId.SL3, a, b, c, d)
        assert abs(j2 - square(j1)) < 1e-10 * (1 + j2)


def test_mesh_and_scheme_conservation_order3_sl3_zero_rhs():
    """With F = 0 an exact circle is a discrete solution: J1 stays at its
    seeded value and J2 stays at zero along the whole run."""
    state = _sl3_order3_circle_state(k=0.14)
    pts = _run_points(state, 40)
    assert len(pts) >= 30
    k = state.spec.K
    for a, b in zip(pts, pts[1:]):
        assert abs(disc_i1_sl3(a, b) - k) < 1e-10 * (1 + k)
    for a, b, c, d in zip(pts, pts[1:], pts[2:], pts[3:]):
        assert abs(window_j2(RealizationId.SL3, a, b, c, d)) < 1e-10
        assert abs(window_j1(RealizationId.SL3, a, b, c) - state.last_j1) < 1e-10


def test_mesh_and_scheme_conservation_order3_sl4():
    """F(u) = 6u^2 + 3 makes an exact hyperbola a discrete solution (the
    counterpart of F = 0 for circles): J1 holds its seeded value, so J2
    holds 6 J1^2 + 3.  The run is kept short of the half-plane edge where
    the chord differences behind the re-evaluated J2 lose precision."""
    f = lambda u: 6.0 * u * u + 3.0
    state = _sl4_order3_state(k=0.05, f=f)
    pts = _run_points(state, 18)
    assert len(pts) == 21
    k = state.spec.K
    for a, b in zip(pts, pts[1:]):
        assert abs(disc_i1_sl4(a, b) - k) < 1e-10 * (1 + k)
    for a, b, c, d in zip(pts, pts[1:], pts[2:], pts[3:]):
        j1 = window_j1(RealizationId.SL4, a, b, c)
        j2 = window_j2(RealizationId.SL4, a, b, c, d)
        assert abs(j2 - f(j1)) < 1e-10 * (1 + abs(j2))


def test_order3_sl4_square_rhs_collapses_j1():
    """With F = square the recurrence drains J1 by roughly K(5 J1^2 + 3)
    per step, so the run ends in a clean no-intersection halt; every step
    taken on the way satisfies both pair equations to near round-off."""
    state = _sl4_order3_state(k=0.01, f=square, c=1.0, t0=-0.5, branch=+1)
    n = 0
    with pytest.raises(NoIntersection):
        for _ in range(200):
            p, diag = step_with_diagnostics(state)
            assert diag.mesh_residual < 1e-12
            assert diag.scheme_residual < 1e-12
            state = advance_state(state, p)
            n += 1
    assert n >= 15


# -- reduction shapes ----------------------------------------------------------


def _first_reducible(make, rng, order):
    while True:
        state = make(rng, order)
        if state is None:
            continue
        try:
            return state, reduced(state)
        except NoIntersection:
            continue


def test_reduction_shapes():
    """Sl3 windows reduce to circle-type conics, Sl4 to hyperbola-type."""
    rng = random.Random(77)
    _, (_, conic3) = _first_reducible(random_sl3_window, rng, 3)
    assert abs(conic3.qxx - conic3.qyy) < 1e-12 * max(abs(conic3.qxx), 1.0)
    assert conic3.qxy == 0.0
    _, (_, conic4) = _first_reducible(random_sl4_window, rng, 3)
    assert conic4.qxx * conic4.qyy < 0.0  # opposite signs: hyperbola type


# -- solve_line_conic contract ---------------------------------------------------


UNIT_CIRCLE = ConicCoeffs(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def test_solve_line_conic_direction_selection():
    line = LineCoeffs(0.0, 1.0, 0.0)  # y = 0
    p = solve_line_conic(line, UNIT_CIRCLE, Point2(-1.0, 0.0), (1.0, 0.0))
    assert abs(p.x - 1.0) < 1e-12 and abs(p.y) < 1e-12


def test_solve_line_conic_tangency():
    line = LineCoeffs(1.0, 0.0, 1.0)  # x = 1
    p = solve_line_conic(line, UNIT_CIRCLE, Point2(1.0, -0.5), (0.0, 1.0))
    assert abs(p.x - 1.0) < 1e-10 and abs(p.y) < 1e-6


def test_solve_line_conic_miss():
    line = LineCoeffs(0.0, 1.0, 2.0)  # y = 2
    with pytest.raises(NoIntersection):
        solve_line_conic(line, UNIT_CIRCLE, Point2(0.0, 2.0), (1.0, 0.0))


def test_solve_line_conic_farther_tie_break():
    """Both roots forward: picks the one farther from prev."""
    line = LineCoeffs(0.0, 1.0, 0.0)
    p = solve_line_conic(line, UNIT_CIRCLE, Point2(-2.0, 0.0), (1.0, 0.0))
    assert abs(p.x - 1.0) < 1e-12


# -- newton fallback contract ----------------------------------------------------


def test_newton_exact_guess_returned():
    state = _sl3_order2_state(2.0, 1.0, k=0.05)
    p, _ = step_with_diagnostics(state)
    q = newton_fallback_step(state, p)
    assert abs(q.x - p.x) < 1e-12 and abs(q.y - p.y) < 1e-12


def test_newton_far_guess_diverges():
    state = _sl3_order2_state(2.0, 1.0, k=0.05)
    with pytest.raises((NewtonDivergence, NoIntersection)):
        newton_fallback_step(state, Point2(-5.0, -50.0))


# -- step guard rails -------------------------------------------------------------


def test_mesh_precondition_guard():
    p0, p1 = Point2(1.0, 0.0), Point2(1.0, 1.0)  # disc = 1
    spec = SchemeSpec(RealizationId.SL3, 2, K=0.3, C=2.0)  # wrong K
    with pytest.raises(DomainViolation):
        step_with_diagnostics(SchemeState((p0, p1), spec))


def _builtin_start(name):
    cfg = builtin(name)
    return cfg, bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)


def _off_mesh(state, anchor, p):
    """p moved along the chord from anchor, by bisection on the chord's
    scale, until the pair invariant of (anchor, p) misses K by 1e-4
    relative in near_equal's measure: ten times the mesh guard."""
    r, k = state.spec.realization, state.spec.K
    disc = disc_i1_sl3 if r is RealizationId.SL3 else disc_i1_sl4
    target = k + 1e-4 * (1.0 + k)

    def at(s):
        return Point2(anchor.x + s * (p.x - anchor.x), anchor.y + s * (p.y - anchor.y))

    lo, hi = 1.0, 2.0
    assert disc(anchor, at(lo)) < target < disc(anchor, at(hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if disc(anchor, at(mid)) < target else (lo, mid)
    q = at(hi)
    assert abs(disc(anchor, q) - target) < 1e-9
    return q


@pytest.mark.parametrize("name", ["fig1", "fig4"])
def test_mesh_guard_rejects_a_hand_built_window_off_the_mesh(name):
    """A hand-built state whose newest pair misses K is rejected by its
    first step, and a run from it halts there with no new point."""
    cfg, state = _builtin_start(name)
    w = state.window
    off = SchemeState(
        w[:-1] + (_off_mesh(state, w[-2], w[-1]),), state.spec, state.last_j1, state.side
    )
    with pytest.raises(DomainViolation, match="does not match the mesh constant"):
        step_with_diagnostics(off)
    traj = run_scheme(off, 50, cfg.x_window)
    assert traj.halt.reason == "domainViolation"
    assert "does not match the mesh constant" in traj.halt.detail
    assert traj.halt.x == off.window[-1].x
    assert traj.points == list(off.window) and traj.diagnostics == []


@pytest.mark.parametrize("name", ["fig1", "fig4"])
def test_mesh_guard_checks_a_state_advanced_over_another_point(name):
    """advance_state over a point other than its step's evaluates that
    pair invariant, and the next step checks it against K; over the
    step's own point the run goes on."""
    _, state = _builtin_start(name)
    p, _ = step_with_diagnostics(state)
    q = _off_mesh(state, state.window[-1], p)
    with pytest.raises(DomainViolation, match="does not match the mesh constant"):
        step_with_diagnostics(advance_state(state, q))
    step_with_diagnostics(advance_state(state, p))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_mesh_guard_checks_each_pair_once(name, monkeypatch):
    """Along a run from bootstrap only the first state meets the mesh
    guard: every later state is built from its step's hand-over, whose
    newest pair passed the residual gate and whose older pairs were
    checked a step before."""
    cfg, state = _builtin_start(name)
    checked = []
    check = schemes._check_mesh

    def counting(s):
        checked.append(s)
        return check(s)

    monkeypatch.setattr(schemes, "_check_mesh", counting)
    traj = run_scheme(state, 50, cfg.x_window)
    assert len(traj.diagnostics) == 50
    assert len(checked) == 1 and checked[0] is state


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_run_scheme_steps_through_the_module_seams(name, monkeypatch):
    """run_scheme looks step_with_diagnostics and advance_state up on the
    module for every step, so wrappers patched there (as the benchmark's
    tracer patches them) see each accepted step once."""
    cfg, state = _builtin_start(name)
    calls = Counter()
    for fn in ("step_with_diagnostics", "advance_state"):
        original = getattr(schemes, fn)

        def counting(*args, fn=fn, original=original):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(schemes, fn, counting)
    traj = run_scheme(state, 50, cfg.x_window)
    assert len(traj.diagnostics) == 50
    assert calls == {"step_with_diagnostics": 50, "advance_state": 50}


def test_run_scheme_reads_no_clock(monkeypatch):
    """The stepping loop is untimed; the harness driver times the call."""
    cfg, state = _builtin_start("fig1")
    calls = []
    clock = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: calls.append(1) or clock())
    traj = run_scheme(state, 200, cfg.x_window)
    monkeypatch.undo()
    assert len(traj.diagnostics) == 200
    assert calls == []


def test_degenerate_window_rejected():
    p = Point2(1.0, 1.0)
    spec = SchemeSpec(RealizationId.SL3, 3, K=0.1, F=square)
    with pytest.raises((DomainViolation, ValueError)):
        step_with_diagnostics(SchemeState((p, p, p), spec, last_j1=0.0))


def test_scheme_targets_no_intersection():
    """A mesh constant far too coarse for the curvature target leaves the
    two loci disjoint; the step reports it instead of inventing a point."""
    p0, p1 = Point2(1.0, 0.0), Point2(1.0, 2.0)  # disc = 2
    spec = SchemeSpec(RealizationId.SL3, 2, K=2.0, C=3.0)
    with pytest.raises(NoIntersection):
        scheme_targets(SchemeState((p0, p1), spec))


def test_run_scheme_zero_budget():
    state = _sl3_order2_state(2.0, 1.0, k=0.05)
    traj = run_scheme(state, 0)
    assert len(traj.points) == 2
    assert traj.halt.reason == "maxSteps"


def test_run_scheme_x_window_exit():
    state = _sl3_order2_state(2.0, 1.0, k=0.05)
    traj = run_scheme(state, 500, x_window=(0.0, 2.6))
    assert traj.halt.reason == "xRangeExit"
    assert traj.points[-1].x > 2.6


def test_run_scheme_records_numeric_halt():
    """A run that loses the intersection reports it in the trajectory, and
    so does fig4 at h = 0.01, whose polish leaves the sl4 invariant domain:
    its halt names that domain instead of a Newton solve started from
    outside it."""
    sl4_domain = "pair outside the sl4 invariant domain"
    cases = [
        (RealizationId.SL3, FIG2_ICS, ("noIntersection", "newtonDivergence"), None),
        (RealizationId.SL4, FIG4_ICS, ("domainViolation",), sl4_domain),
    ]
    for realization, ics, reasons, detail in cases:
        state = bootstrap(realization, 3, ics, h=0.01, f=square)
        traj = run_scheme(state, 5000)
        assert traj.halt.reason in reasons
        assert detail in (None, traj.halt.detail)
        assert traj.halt.x == traj.points[-1].x


def test_polish_residual_above_the_gate_halts_without_a_second_solver(monkeypatch):
    """fig3 at h = 0.01 ends on a polish residual above the 5e-11 gate, at
    the x where it ended while the damped Newton fallback still took such
    a step over (and failed there); the halt names the residual, and no
    step calls newton_fallback_step."""
    cfg, state = _builtin_start("fig3")
    assert cfg.h == 0.01
    calls = []
    original = schemes.newton_fallback_step

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schemes, "newton_fallback_step", counting)
    traj = run_scheme(state, 20000, cfg.x_window)
    assert traj.halt.reason == "newtonDivergence"
    assert traj.halt.x == 0.0375353976880267
    residual = re.fullmatch(r"step residual (\S+) did not converge", traj.halt.detail)
    assert residual and 5e-11 < float(residual.group(1)) < math.inf
    assert calls == []


@pytest.mark.parametrize(
    "realization,m",
    [(RealizationId.SL3, 2.0), (RealizationId.SL4, 1.0)],
    ids=["sl3", "sl4"],
)
def test_concentric_level_sets_have_no_intersection(realization, m):
    """Level sets that share their quadratic and linear parts leave no
    line to intersect; the step reports it instead of searching for a
    root that is not isolated."""
    with pytest.raises(NoIntersection):
        schemes._fast_step(realization, Point2(1.0, 0.0), Point2(2.0, 0.0), 1.0, m, 0.0)


def _outcome_repr(fn, *args):
    try:
        return repr(fn(*args))
    except (NumericError, ArithmeticError, ValueError) as exc:
        return repr(exc)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(
    realization=st.sampled_from([RealizationId.SL3, RealizationId.SL4]),
    px=st.floats(0.05, 5.0),
    py=st.floats(-5.0, 5.0),
    angle=st.floats(-math.pi, math.pi),
    chord=st.floats(1e-3, 0.5),
    ratio=st.floats(1.0, 2.5),
    side=st.sampled_from([-1.0, 0.0, 1.0]),
)
def test_fast_step_keeps_every_bit_of_the_general_conic_step(
    realization, px, py, angle, chord, ratio, side
):
    """The (sigma, c_t) level sets, the quadratic without its zero xy terms
    and the one-pass polish give the general-conic reduction's line and
    conic and the same step, bit for bit, errors included: the point, its
    pair invariants, the polish's iterations, J1 from the window fraction
    (against window_j1_from_pairs, with K as the window's pair invariant)
    and the next turning side (against turning_side).  The mesh constant
    is the window's own pair invariant (the chord where the pair has none),
    and M a multiple of it, so about a third of the windows reach the
    polish and the rest halt in the reduction or the root pick."""
    p_prev = Point2(px, py)
    p_last = Point2(px + chord * math.cos(angle), py + chord * math.sin(angle))
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    try:
        k = disc(p_prev, p_last)
    except DomainViolation:
        k = chord
    args = (realization, p_prev, p_last, k, ratio * k)

    def line(*a):
        (la, lb, ld), (sigma, qx, qy, q0) = schemes._line(*a)
        return (la, lb, ld), (sigma, 0.0, 1.0, qx, qy, q0)

    assert _outcome_repr(line, *args) == _outcome_repr(general_conic_line, *args)
    fused = _outcome_repr(_fused_step, *args, side)
    assert fused == _outcome_repr(general_conic_step, *args, side)


def _fused_step(realization, p_prev, p_last, k, m, side):
    """_fast_step's result in general_conic_step's form: J1 through the
    shared J1 core from the window fraction, with k as the window's pair
    invariant (its DomainViolation in its place)."""
    x, y, da, db, iters, num, den, side_next = schemes._fast_step(
        realization, p_prev, p_last, k, m, side
    )
    try:
        j1 = _window_j1(realization, num, den, k, da, db, p_last)
    except DomainViolation as exc:
        j1 = exc
    return x, y, da, db, iters, j1, side_next


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_fast_step_keeps_every_bit_along_the_builtin_runs(name, monkeypatch):
    """The same comparison on every state of the builtin runs at h = 0.005,
    whose polish corrections near sl4's x = 0 are large enough to show the
    last bit of a gradient.  A run's last state may halt in its targets."""
    states = _fig_run_states(name, 0.005, monkeypatch)
    for s in states:
        try:
            m = scheme_targets(s)[0]
        except NoIntersection:
            assert s is states[-1]
            continue
        args = (s.spec.realization, s.window[-2], s.window[-1], s.spec.K, m, s.side)
        assert _outcome_repr(_fused_step, *args) == _outcome_repr(general_conic_step, *args)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_step_and_advance_make_few_python_calls(name):
    """A step plus advance_state on a carried state is one pass: at most 11
    Python-level calls at order 2 and 13 at order 3 (the update rule's F
    and J2 on top).  The bootstrap state's first step adds the mesh guard."""
    cfg, state = _builtin_start(name)
    state = advance_state(state, step_with_diagnostics(state)[0])
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for _ in range(20):
        calls.clear()
        sys.setprofile(profile)
        try:
            p, _ = step_with_diagnostics(state)
            state = advance_state(state, p)
        finally:
            sys.setprofile(None)
        assert len(calls) <= (11 if cfg.order == 2 else 13), calls


def _dilated_run(name, scale):
    """The run of fig name from its bootstrap state with every coordinate,
    and the x-window, multiplied by scale."""
    cfg, state = _builtin_start(name)
    window = tuple(Point2(scale * p.x, scale * p.y) for p in state.window)
    state = SchemeState(window, state.spec, state.last_j1, state.side)
    lo, hi = cfg.x_window
    return run_scheme(state, cfg.max_steps, (scale * lo, scale * hi))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_dilation_changes_no_bit_of_a_run(name):
    """The dilation X2 = x d_x + y d_y lies in both realizations, and a power
    of two scales a float exactly, so a window scaled by 2^e steps to the
    scaled points with the same J1 and J2, bit for bit, and halts after
    the same point; a linear-root switch that adds a length to a number,
    as |alpha| < 1e-13 (|beta| + 1) does, breaks this from 2^50.  The
    halt's reason is not compared: the discriminant's tangency slack,
    1e-10, is an absolute area, so fig4's last step halts outside the sl4
    domain up to 2^6 and on a negative discriminant from 2^8 on."""
    ref = _dilated_run(name, 1.0)
    assert len(ref.xs) > 100
    j_ref = [(d.j1, d.j2) for d in ref.diagnostics]
    for e in (-100, -60, -40, 40, 60, 100):
        scale = 2.0**e
        run = _dilated_run(name, scale)
        assert run.xs == [scale * x for x in ref.xs], e
        assert run.ys == [scale * y for y in ref.ys], e
        assert [(d.j1, d.j2) for d in run.diagnostics] == j_ref, e
        assert run.halt.x == scale * ref.halt.x, e


# -- carried pair invariants ------------------------------------------------------


def _fig_run_states(name, h, monkeypatch):
    """Every state run_scheme steps from along a builtin invariant run."""
    cfg = builtin(name)
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, h, f=cfg.f)
    states = []
    step = schemes.step_with_diagnostics

    def recording(s):
        states.append(s)
        return step(s)

    monkeypatch.setattr(schemes, "step_with_diagnostics", recording)
    run_scheme(state, cfg.max_steps, cfg.x_window)
    monkeypatch.undo()
    return states


def _step_outcome(state):
    try:
        p, diag = step_with_diagnostics(state)
    except NumericError as exc:
        return type(exc), exc.detail
    return p, diag.j1, diag.j2, diag.mesh_residual, diag.scheme_residual, diag.iterations


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
@pytest.mark.parametrize("h", [0.01, 0.005])
def test_carried_values_change_no_bit(name, h, monkeypatch):
    """A carried state steps exactly as the same state built by hand, which
    evaluates its pair invariants and (order 3) its window's J1 on
    construction; the carried pairs are the pair invariants of the window,
    the carried J1 the window's J1, the step's residuals those of its point
    and its J2 that of window_j2, bit for bit."""
    states = _fig_run_states(name, h, monkeypatch)
    assert len(states) > 200
    r = states[0].spec.realization
    disc = disc_i1_sl3 if r is RealizationId.SL3 else disc_i1_sl4
    for s in states:
        assert s.pairs == tuple(disc(a, b) for a, b in zip(s.window, s.window[1:]))
        fresh = SchemeState(s.window, s.spec, s.last_j1, s.side)
        assert fresh.pairs == s.pairs
        if s.spec.order == 3:
            assert s.j1_window == window_j1(r, *s.window)
            assert fresh.j1_window == s.j1_window
        else:
            assert s.j1_window is None and fresh.j1_window is None
        outcome = _step_outcome(s)
        assert outcome == _step_outcome(fresh)
        if isinstance(outcome[0], Point2):
            p, j1, j2, mesh_res, scheme_res, _ = outcome
            assert j1 == window_j1(r, s.window[-2], s.window[-1], p)
            assert mesh_res == abs(disc(s.window[-1], p) - s.spec.K)
            assert scheme_res == abs(disc(s.window[-2], p) - scheme_targets(s)[0])
            if s.spec.order == 3:
                assert j2 == window_j2(r, *s.window, p)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_carried_step_evaluates_no_pair_invariant(name, monkeypatch):
    """One step plus advance_state on a carried state evaluates no pair
    invariant: the step's polish returns the one its point closes, and
    advance_state takes it from the step."""
    cfg = builtin(name)
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)
    calls = []
    for fn in ("disc_i1_sl3", "disc_i1_sl4"):
        original = getattr(schemes, fn)

        def counting(pa, pb, original=original):
            calls.append((pa, pb))
            return original(pa, pb)

        monkeypatch.setattr(schemes, fn, counting)
    for _ in range(3):
        calls.clear()
        p, _ = step_with_diagnostics(state)
        state = advance_state(state, p)
        assert calls == []


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_step_reuses_pairs_and_targets(name, monkeypatch):
    """One step plus advance_state takes J1 and J2 from the pair invariants
    and the window J1 it holds: no window_j1 or window_j2 call, and one
    targets computation per state."""
    cfg = builtin(name)
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)
    calls = Counter()
    for fn in ("window_j1", "window_j2", "scheme_targets"):
        original = getattr(schemes, fn)

        def counting(*args, fn=fn, original=original):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(schemes, fn, counting)
    for _ in range(3):
        calls.clear()
        p, _ = step_with_diagnostics(state)
        nxt = advance_state(state, p)
        assert calls["window_j1"] == 0
        assert calls["window_j2"] == 0
        assert calls["scheme_targets"] == 1
        state = nxt


@pytest.mark.parametrize("name", ["fig1", "fig4"])
def test_advance_state_hands_over_by_point_equality(name, monkeypatch):
    """advance_state takes the step's values for any point equal to the
    step's, not only for the same object, and evaluates them for another
    point; either way the next state is the one a hand-built window has."""
    cfg = builtin(name)
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)
    p, _ = step_with_diagnostics(state)
    step_p, _ = step_with_diagnostics(state)
    assert step_p == p and step_p is not p
    calls = Counter()
    for fn in ("disc_i1_sl3", "disc_i1_sl4"):
        original = getattr(schemes, fn)

        def counting(pa, pb, original=original):
            calls["disc"] += 1
            return original(pa, pb)

        monkeypatch.setattr(schemes, fn, counting)
    advanced = []
    for q, evaluations in ((p, 0), (Point2(p.x, p.y + 1e-9), 1)):
        calls.clear()
        advanced.append((q, advance_state(state, q)))
        assert calls["disc"] == evaluations
    monkeypatch.undo()
    for q, nxt in advanced:
        fresh = SchemeState(state.window[1:] + (q,), state.spec, nxt.last_j1, nxt.side)
        assert (nxt.pairs, nxt.j1_window) == (fresh.pairs, fresh.j1_window)


# -- bootstrap -------------------------------------------------------------------


def test_bootstrap_order2_seeds_on_circle():
    state = bootstrap(RealizationId.SL3, 2, FIG1_ICS, h=0.01)
    sol = fit_circle(Point2(1.0, 8.0), 2.0, 1.0)[0]
    for p in state.window:
        assert abs(math.hypot(p.x - sol.cx, p.y - sol.cy) - sol.r) < 1e-10
    assert abs(disc_i1_sl3(*state.window) - state.spec.K) < 1e-12


def test_bootstrap_order2_walks_the_branch_of_the_start(tmp_path):
    """A start right of the fitted hyperbola's centre seeds on the right
    branch, where it lies, instead of on the left branch at x < 0."""
    cfg = config_from_raw({
        "name": "rb", "realization": "sl4", "order": "Second",
        "x0": 5, "y0": 5, "C": 5, "a": 1, "h": 0.01, "maxSteps": 2000,
        "xWindow": [0, 20], "methods": ["invariant"],
    })
    sol = fit_hyperbola(Point2(5.0, 5.0), 5.0, 1.0)[0]
    assert sol.cx < 5.0
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h)
    for p in state.window:
        assert conic_distance(sol, p.x, p.y) < 1e-12
        assert p.x > sol.cx
    entry = run_experiment(cfg, out_dir=str(tmp_path)).entries["invariant"]
    assert entry.error is None and entry.new_points > 0
    assert len((tmp_path / "rb_invariant.csv").read_text().splitlines()) == entry.points + 1


def test_bootstrap_order2_side_matches_three_chord_points():
    """The order-2 bootstrap reads its turning side off the conic.  Oracle:
    the turning side of the seed pair and a third point one more chord h
    along the walk.  Circles are walked both ways (with the angle up the
    right half, against it up the left half); a hyperbola is walked with
    its parameter, along which y grows, on either branch."""
    rng = random.Random(19)
    seen = set()
    for _ in range(400):
        realization = rng.choice((RealizationId.SL3, RealizationId.SL4))
        ics = {
            "x0": rng.uniform(0.05, 5.0), "y0": rng.uniform(-5.0, 5.0),
            "C": rng.uniform(0.0, 6.0), "a": rng.choice((-1, 1)) * rng.uniform(0.2, 3.0),
        }
        h = rng.uniform(1e-3, 0.05)
        try:
            state = bootstrap(realization, 2, ics, h)
        except DomainViolation:
            continue
        fit = fit_circle if realization is RealizationId.SL3 else fit_hyperbola
        sol = fit(state.window[0], ics["C"], ics["a"])[0]
        branch = 1 if ics["x0"] > sol.cx else -1
        direction, t1 = schemes._pick_direction(sol, param_of(sol, state.window[0]), h, branch)
        p2 = point_at(sol, next_chord_point(sol, t1, h, direction, branch), branch)
        assert state.side == turning_side(*state.window, p2) != 0.0
        seen.add((sol.sigma, branch if sol.sigma < 0.0 else 0, direction))
    assert seen == {(1.0, 0, 1.0), (1.0, 0, -1.0), (-1.0, 1, 1.0), (-1.0, -1, 1.0)}


@pytest.mark.parametrize(
    "realization, ics, solves",
    [
        (RealizationId.SL3, FIG1_ICS, 2),
        (RealizationId.SL4, FIG3_ICS, 1),
        (RealizationId.SL4, {"x0": 5.0, "y0": 5.0, "C": 5.0, "a": 1.0}, 1),
    ],
    ids=["circle", "hyperbola-left", "hyperbola-right"],
)
def test_bootstrap_order2_chord_solves(monkeypatch, realization, ics, solves):
    """A hyperbola's y = cy + r sinh t rises with t, so the order-2
    bootstrap walks it with one chord solve, in direction +1; a circle is
    probed both ways.  The second point is the +1 chord point, bit for bit."""
    calls = []

    def counting(*args):
        calls.append(args)
        return next_chord_point(*args)

    monkeypatch.setattr(schemes, "next_chord_point", counting)
    state = bootstrap(realization, 2, ics, 0.01)
    assert len(calls) == solves
    if realization is RealizationId.SL4:
        p0 = Point2(ics["x0"], ics["y0"])
        sol = fit_hyperbola(p0, ics["C"], ics["a"])[0]
        branch = 1 if p0.x > sol.cx else -1
        t1 = next_chord_point(sol, param_of(sol, p0), 0.01, 1.0, branch)
        assert state.window[1] == point_at(sol, t1, branch)


def test_bootstrap_k_shrinks_with_h():
    ks = [
        bootstrap(RealizationId.SL3, 2, FIG1_ICS, h=h).spec.K
        for h in (0.04, 0.02, 0.01)
    ]
    assert ks[0] > ks[1] > ks[2] > 0


def test_bootstrap_order3_equal_pair_invariants():
    state = bootstrap(RealizationId.SL3, 3, FIG2_ICS, h=0.01, f=square)
    p0, p1, p2 = state.window
    assert abs(disc_i1_sl3(p0, p1) - disc_i1_sl3(p1, p2)) < 1e-6
    assert state.last_j1 is not None and state.last_j1 >= 0.0


def _restart_bootstrap3(realization, ics, h):
    """Oracle for the order-3 bootstrap window: the same two searches, with
    every probe integrated afresh from x0 instead of read off one run."""
    curve = schemes._ReferenceCurve(realization, ics, square)
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4

    def advance(gap, x_start, hi):
        while gap(x_start + hi) < 0.0:
            hi *= 2.0
        lo_x, hi_x = x_start, x_start + hi
        for _ in range(80):
            mid = 0.5 * (lo_x + hi_x)
            lo_x, hi_x = (mid, hi_x) if gap(mid) < 0.0 else (lo_x, mid)
        return 0.5 * (lo_x + hi_x)

    def chord_gap(x):
        p = curve(x)
        return math.hypot(p.x - p0.x, p.y - p0.y) - h

    def invariant_gap(x):
        try:
            return disc(p1, curve(x)) - k
        except DomainViolation:
            return math.inf

    p0 = curve(ics["x0"])
    x1 = advance(chord_gap, p0.x, h)
    p1 = curve(x1)
    k = disc(p0, p1)
    return p0, p1, curve(advance(invariant_gap, x1, 1e-4))


@pytest.mark.parametrize(
    "realization,ics,h",
    [
        (RealizationId.SL3, FIG2_ICS, 0.01),
        (RealizationId.SL3, FIG2_ICS, 0.005),
        (RealizationId.SL4, FIG4_ICS, 0.01),
        (RealizationId.SL4, FIG4_ICS, 0.005),
        (RealizationId.SL3, dict(FIG2_ICS, yp0=1.01), 0.01),
    ],
)
def test_bootstrap_order3_matches_restart_oracle(realization, ics, h, monkeypatch):
    """One reference integration grown on demand gives the oracle's window,
    in a handful of integrator calls instead of one per search probe."""
    expected = _restart_bootstrap3(realization, ics, h)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])  # where the integration starts
        return rk45_integrate(*args, **kwargs)

    monkeypatch.setattr(schemes, "rk45_integrate", counting)
    state = bootstrap(realization, 3, ics, h=h, f=square)
    assert len(calls) <= 10
    for p, q in zip(state.window, expected):
        assert abs(p.x - q.x) <= 1e-11 and abs(p.y - q.y) <= 1e-11
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    p0, p1, p2 = state.window
    assert abs(disc(p1, p2) - disc(p0, p1)) <= 1e-6


def test_bootstrap_rejects_bad_input():
    with pytest.raises(DomainViolation):
        bootstrap(RealizationId.SL3, 2, {"x0": -1.0, "y0": 8.0, "C": 2.0, "a": 1.0}, h=0.01)
    with pytest.raises(ValueError):
        bootstrap(RealizationId.SL3, 2, {"x0": 1.0, "y0": 8.0}, h=0.01)
    with pytest.raises(ValueError):
        bootstrap(RealizationId.SL3, 2, FIG1_ICS, h=-0.01)


# -- equivariance -----------------------------------------------------------------


def _transform_state(state, g, realization):
    window = tuple(act(g, p, realization) for p in state.window)
    k = (disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4)(
        window[0], window[1]
    )
    spec = SchemeSpec(
        realization, state.spec.order, K=k, C=state.spec.C, F=state.spec.F
    )
    return SchemeState(window, spec, last_j1=state.last_j1, side=state.side)


@pytest.mark.parametrize(
    "realization,order,ics,h",
    [
        (RealizationId.SL3, 2, FIG1_ICS, 0.02),
        (RealizationId.SL3, 3, FIG2_ICS, 0.02),
        (RealizationId.SL4, 3, FIG4_ICS, 0.02),
    ],
)
def test_equivariance(realization, order, ics, h):
    """Transforming the initial window by a group element and re-running
    reproduces the transformed trajectory point-by-point."""
    state = bootstrap(realization, order, ics, h=h, f=square)
    g = one_parameter(3, 0.02)
    mapped = _transform_state(state, g, realization)
    n = 25
    base = run_scheme(state, n).points
    moved = run_scheme(mapped, n).points
    assert len(base) == len(moved)
    for p, q in zip(base, moved):
        img = act(g, p, realization)
        assert abs(img.x - q.x) < 1e-8 * (1 + abs(img.x))
        assert abs(img.y - q.y) < 1e-8 * (1 + abs(img.y))


# -- time reversal ------------------------------------------------------------


def _reversal_misses(state, steps=300):
    """Run up to steps steps from state; after each, step the reversed
    window (p_{n+1}, p_n) of the state whose window is (p_n, p_{n+1}), with
    that state's turning side negated and (order 3) its window's J1 as the
    target, and measure the distance of the point it gives from p_{n-1}
    over 1 + |p_{n-1}|.  A reversed step that halts counts as inf."""
    misses = []
    for _ in range(steps):
        try:
            p, _ = step_with_diagnostics(state)
            nxt = advance_state(state, p)
        except NumericError:
            break
        back = SchemeState(nxt.window[::-1], nxt.spec, nxt.j1_window, -nxt.side)
        target = state.window[0]
        try:
            q, _ = step_with_diagnostics(back)
        except NumericError:
            misses.append(math.inf)
        else:
            misses.append(
                math.hypot(q.x - target.x, q.y - target.y) / (1.0 + math.hypot(target.x, target.y))
            )
        state = nxt
    return misses


def _seeded_order2_start(realization, seed):
    """Bootstrap state of the first admissible order-2 config drawn from seed."""
    rng = random.Random(seed)
    c_range = (0.5, 3.0) if realization is RealizationId.SL3 else (2.0, 6.0)
    while True:
        ics = {
            "x0": rng.uniform(1.0, 3.0), "y0": rng.uniform(0.0, 6.0),
            "C": rng.uniform(*c_range), "a": rng.uniform(0.5, 1.5),
        }
        try:
            return bootstrap(realization, 2, ics, rng.choice([0.01, 0.005]))
        except DomainViolation:
            continue


_REVERSAL_CASES = [("fig1", 0.01), ("fig1", 0.0025), ("fig3", 0.01), ("fig3", 0.0025)]
_REVERSAL_CASES += [(r, seed) for r in ("sl3", "sl4") for seed in range(6)]


@pytest.mark.parametrize("case,arg", _REVERSAL_CASES, ids=[f"{c}-{a}" for c, a in _REVERSAL_CASES])
def test_order2_step_reverses(case, arg):
    """The order-2 scheme is reversible: the reversed window with the
    opposite turning side steps back to the point before it, to 1e-9
    relative, over 300 steps.  The misses measured are 3.7e-13 and 1.2e-14
    on fig1 (h = 0.01, 0.0025), 8.9e-12 and 1.3e-11 on fig3, and at most
    7e-12 on the seeded sl3 configs and 2.2e-11 on the sl4 ones.  The sl4
    worst comes where neither the step nor its reversal takes a polish
    iteration: it is the roundoff of the line/conic reduction in absolute
    coordinates, so the bound sits above it rather than near 1e-12."""
    if case.startswith("fig"):
        cfg = builtin(case)
        state = bootstrap(cfg.realization, 2, cfg.ics, arg)
    else:
        state = _seeded_order2_start(RealizationId(case), arg)
    misses = _reversal_misses(state)
    print(f"{case} {arg}: {len(misses)} steps, worst reversal miss {max(misses):.2e}")
    assert len(misses) == 300
    assert max(misses) <= 1e-9


@pytest.mark.parametrize("name", ["fig2", "fig4"])
def test_order3_reversal_miss_is_reported(name):
    """At order 3 the update rule J1 += s F(J1) / 3 reverses only for an
    even F, and then only to the rule's own order, so the miss is printed
    and not asserted."""
    cfg, state = _builtin_start(name)
    misses = _reversal_misses(state)
    finite = [m for m in misses if math.isfinite(m)]
    print(
        f"{name}: {len(misses)} steps, {len(misses) - len(finite)} reversed steps halted, "
        f"worst finite miss {max(finite, default=math.nan):.2e}"
    )
