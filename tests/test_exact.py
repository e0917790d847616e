"""Exact conic solutions: fitting, slopes, distances, chord walking."""

import math
import random

import pytest

from invscheme import (
    CircleSolution,
    DomainViolation,
    HyperbolaSolution,
    JetPoint,
    Point2,
    cont_i1_sl3,
    cont_i1_sl4,
    fit_circle,
    fit_hyperbola,
)
from invscheme.exact import (
    conic_distance,
    next_chord_point,
    param_of,
    point_at,
    slope_at,
)

SQRT2 = math.sqrt(2.0)


def test_fit_circle_center_2_8():
    sols = fit_circle(Point2(1.0, 8.0), 2.0, 1.0)
    assert any(
        abs(s.cx - 2.0) < 1e-12 and abs(s.cy - 8.0) < 1e-12 and abs(s.r - 1.0) < 1e-12
        for s in sols
    )
    # the branch with center on the other side has no real center height
    assert all(s.cx != -2.0 or abs(s.cy - 8.0) > 1.0 for s in sols)


def test_fit_circle_zero_curvature_constant():
    sols = fit_circle(Point2(1.0, 5.0), 0.0, 1.0)
    assert any(abs(s.cx) < 1e-12 and abs(s.cy - 5.0) < 1e-12 for s in sols)


def test_fit_circle_rejects_zero_a():
    with pytest.raises(DomainViolation):
        fit_circle(Point2(1.0, 8.0), 2.0, 0.0)


def test_fit_circle_passes_through_point():
    rng = random.Random(13)
    for _ in range(50):
        p = Point2(rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0))
        c = rng.uniform(0.0, 3.0)
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        try:
            sols = fit_circle(p, c, a)
        except DomainViolation:
            continue
        for s in sols:
            assert abs(math.hypot(p.x - s.cx, p.y - s.cy) - s.r) < 1e-12


def test_fit_hyperbola_fig_sized_data():
    sols = fit_hyperbola(Point2(2.0, 5.0), 5.0, 1.0)
    want = {(5.0, 5.0 + 2.0 * SQRT2), (5.0, 5.0 - 2.0 * SQRT2)}
    got = {(round(s.cx, 10), round(s.cy, 10)) for s in sols}
    assert {(round(cx, 10), round(cy, 10)) for cx, cy in want} <= got
    assert all(abs(s.r - 1.0) < 1e-12 for s in sols)
    # candidates are ordered: larger center height first
    assert sols[0].cy > sols[1].cy


def test_fit_hyperbola_centered():
    sols = fit_hyperbola(Point2(1.0, 0.0), 0.0, 1.0)
    assert any(abs(s.cx) < 1e-12 and abs(s.cy) < 1e-12 for s in sols)


def test_fit_hyperbola_rejects_zero_a():
    with pytest.raises(DomainViolation):
        fit_hyperbola(Point2(2.0, 5.0), 5.0, 0.0)


@pytest.mark.parametrize("fit", [fit_circle, fit_hyperbola], ids=["circle", "hyperbola"])
@pytest.mark.parametrize("c,a", [(2.0, 1e-300), (1e300, 1.0)], ids=["tiny-a", "huge-C"])
def test_fit_rejects_overflow(fit, c, a):
    """A radius or centre abscissa near 1e300 overflows (x0 - cx) ** 2; the
    fit reports it as a DomainViolation, which every method records."""
    with pytest.raises(DomainViolation, match="overflows"):
        fit(Point2(1.0, 8.0), c, a)


def test_fit_hyperbola_passes_through_point():
    for s in fit_hyperbola(Point2(2.0, 5.0), 5.0, 1.0):
        assert abs((2.0 - s.cx) ** 2 - (5.0 - s.cy) ** 2 - s.r**2) < 1e-12


def test_conic_distance_circle():
    sol = CircleSolution(2.0, 8.0, 1.0)
    assert conic_distance(sol, 3.0, 8.0) == 0.0
    assert abs(conic_distance(sol, 2.0, 8.0) - 1.0) < 1e-15
    assert conic_distance(sol, 2.0, 9.5) > 0.0


def test_conic_distance_hyperbola():
    sol = HyperbolaSolution(5.0, 5.0 + 2.0 * SQRT2, 1.0)
    on = sol.point(0.7)
    assert conic_distance(sol, on.x, on.y) < 1e-12
    assert conic_distance(sol, on.x + 0.05, on.y) > 1e-3


def test_slope_at_matches_implicit_derivative():
    sol = CircleSolution(2.0, 8.0, 1.0)
    p = sol.point(0.6)
    got = slope_at(sol, p)
    want = -(p.x - 2.0) / (p.y - 8.0)
    assert abs(got - want) < 1e-12


def test_cont_i1_constant_along_circle():
    """|I1| equals |C| at 100 points of any fitted circle."""
    sol = fit_circle(Point2(1.0, 8.0), 2.0, 1.0)[0]
    for k in range(100):
        theta = 0.02 + k * (math.pi - 0.04) / 99  # upper branch, no tangent
        p = sol.point(theta)
        dy = p.y - sol.cy
        jet = JetPoint(x=p.x, yp=-(p.x - sol.cx) / dy, ypp=-sol.r**2 / dy**3)
        assert abs(abs(cont_i1_sl3(jet)) - 2.0) < 1e-9


def test_cont_i1_constant_along_hyperbola():
    sol = fit_hyperbola(Point2(2.0, 5.0), 5.0, 1.0)[0]
    for k in range(100):
        t = -2.0 + k * 1.8 / 99  # stays at x > 0 on the left branch
        p = sol.point(t)
        dy = p.y - sol.cy
        yp = (p.x - sol.cx) / dy
        ypp = (1.0 - yp * yp) / dy
        jet = JetPoint(x=p.x, yp=yp, ypp=ypp)
        assert abs(abs(cont_i1_sl4(jet)) - 5.0) < 1e-9


def test_param_round_trip():
    circ = CircleSolution(2.0, 8.0, 1.0)
    p = circ.point(1.234)
    assert abs(param_of(circ, p) - 1.234) < 1e-12
    hyp = HyperbolaSolution(5.0, 7.0, 1.0)
    q = hyp.point(-0.8)
    t = param_of(hyp, q)
    back = point_at(hyp, t)
    assert abs(back.x - q.x) < 1e-9 and abs(back.y - q.y) < 1e-9


def test_next_chord_point_circle():
    sol = CircleSolution(2.0, 8.0, 1.0)
    t0 = 0.3
    chord = 0.01
    t1 = next_chord_point(sol, t0, chord, +1)
    p0, p1 = sol.point(t0), sol.point(t1)
    assert abs(math.hypot(p1.x - p0.x, p1.y - p0.y) - chord) < 1e-12
    with pytest.raises(DomainViolation):
        next_chord_point(sol, t0, 2.5, +1)  # longer than the diameter


def test_next_chord_point_hyperbola():
    sol = HyperbolaSolution(5.0, 7.0, 1.0)
    t1 = next_chord_point(sol, 0.2, 0.05, -1)
    p0, p1 = sol.point(0.2), sol.point(t1)
    assert abs(math.hypot(p1.x - p0.x, p1.y - p0.y) - 0.05) < 1e-9
    assert t1 < 0.2
