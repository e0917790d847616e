"""Continuous and discrete invariants, and the J combinations.

Frozen oracle values come from closed-form geometry (implicit
differentiation of circles and hyperbolas) or direct substitution into
the invariant formulas.
"""

import math
import random

import pytest
import sympy as sp
from hypothesis import given, settings

from invscheme import (
    DomainViolation,
    JetPoint,
    Point2,
    RealizationId,
    cont_i1_sl3,
    cont_i1_sl4,
    cont_i2_sl3,
    cont_i2_sl4,
    disc_i1_sl3,
    disc_i1_sl4,
    ode_rhs_library,
    window_j1,
    window_j2,
)
from invscheme import invariants

from helpers import ANY_FLOAT, i1_sl3, i1_sl4, j1_sl3, j1_sl4, j2_sl3, j2_sl4, outcome

SQRT2 = math.sqrt(2.0)


# -- continuous invariants -----------------------------------------------------


def test_cont_i1_sl3_flat_jet():
    assert cont_i1_sl3(JetPoint(x=1.0, yp=0.0, ypp=0.0)) == 0.0


def test_cont_i1_sl3_unit_circle_jet():
    """Jet of x^2+y^2=1 at (0.6, 0.8): a zero-curvature-constant circle."""
    assert abs(cont_i1_sl3(JetPoint(x=0.6, yp=-0.75, ypp=-1.953125))) < 1e-14


def _circle_jet_sl3(cx, cy, r, x, branch):
    """Implicit-differentiation jet of (x-cx)^2+(y-cy)^2=r^2."""
    dy = branch * math.sqrt(r * r - (x - cx) ** 2)
    yp = -(x - cx) / dy
    ypp = -r * r / dy**3
    return JetPoint(x=x, yp=yp, ypp=ypp)


def test_cont_i1_sl3_circle_value():
    """On the circle center (2,8) radius 1, I1 is +-2 by branch.

    The sign convention: the branch above the center carries I1 = +C,
    the branch below carries -C.
    """
    for x in (1.7, 2.0, 2.4, 2.9):
        assert abs(cont_i1_sl3(_circle_jet_sl3(2.0, 8.0, 1.0, x, +1)) - 2.0) < 1e-9
        assert abs(cont_i1_sl3(_circle_jet_sl3(2.0, 8.0, 1.0, x, -1)) + 2.0) < 1e-9


def test_cont_i2_sl3_values():
    assert cont_i2_sl3(JetPoint(x=1.0, yp=0.0, ypp=0.0, yppp=0.0)) == 0.0
    # 3*x^2*yp*ypp^2/(1+yp^2)^3 with yppp=0: 3*4/8
    jet = JetPoint(x=2.0, yp=1.0, ypp=1.0, yppp=0.0)
    assert abs(cont_i2_sl3(jet) - 1.5) < 1e-15


def test_cont_i2_sl3_on_solved_jets():
    """Jets satisfying the solved 3rd-order equation have I2 = I1^2."""
    problem = ode_rhs_library(RealizationId.SL3, 3, F=lambda u: u * u)
    rng = random.Random(7)
    for _ in range(50):
        x = rng.uniform(0.3, 3.0)
        yp = rng.uniform(-2.0, 2.0)
        ypp = rng.uniform(-2.0, 2.0)
        yppp = problem.rhs(x, [0.0, yp, ypp])[2]
        jet = JetPoint(x=x, yp=yp, ypp=ypp, yppp=yppp)
        i1 = cont_i1_sl3(jet)
        assert abs(cont_i2_sl3(jet) - i1 * i1) < 1e-9 * (1.0 + i1 * i1)


def test_cont_i1_sl4_values():
    # center-on-x-axis hyperbola x^2-(y-y0)^2=r^2 fitted to the jet
    assert abs(cont_i1_sl4(JetPoint(x=3.0, yp=-1.5, ypp=0.625))) < 1e-14
    assert abs(cont_i1_sl4(JetPoint(x=1.0, yp=SQRT2, ypp=0.0)) - SQRT2) < 1e-15


def test_cont_i1_sl4_rejects_unit_slope():
    with pytest.raises(DomainViolation):
        cont_i1_sl4(JetPoint(x=1.0, yp=1.0, ypp=1.0))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(x=ANY_FLOAT, yp=ANY_FLOAT, ypp=ANY_FLOAT)
def test_sigma_i1_has_the_bits_of_each_realizations_formula(x, yp, ypp):
    """The one sigma form of I1 returns the bits of the sl3 and the sl4
    formula written out on its own, and raises the same error text at the
    same location, on every float including +-0, subnormals, +-inf and NaN."""
    assert outcome(invariants._i1, 1.0, x, yp, ypp) == outcome(i1_sl3, x, yp, ypp)
    assert outcome(invariants._i1, -1.0, x, yp, ypp) == outcome(i1_sl4, x, yp, ypp)


def test_cont_i2_sl4_values():
    # only the (yp-1)(yp+1)^2(3yp^2-1) term survives at yp=ypp=yppp=0
    assert abs(cont_i2_sl4(JetPoint(x=1.0, yp=0.0, ypp=0.0, yppp=0.0)) - 3.0) < 1e-15


def test_cont_i2_sl4_on_solved_jets():
    problem = ode_rhs_library(RealizationId.SL4, 3, F=lambda u: u * u)
    rng = random.Random(11)
    count = 0
    while count < 50:
        x = rng.uniform(0.3, 3.0)
        yp = rng.uniform(1.1, 3.0) * rng.choice((-1.0, 1.0))
        ypp = rng.uniform(-2.0, 2.0)
        yppp = problem.rhs(x, [0.0, yp, ypp])[2]
        jet = JetPoint(x=x, yp=yp, ypp=ypp, yppp=yppp)
        i1 = cont_i1_sl4(jet)
        assert abs(cont_i2_sl4(jet) - i1 * i1) < 1e-9 * (1.0 + i1 * i1)
        count += 1


def test_cont_i2_sl4_fig_sized_jet():
    """At the third-order initial jet (2, -1.5, -1.5), I2 = I1^2 holds
    once y''' is taken from the solved equation."""
    problem = ode_rhs_library(RealizationId.SL4, 3, F=lambda u: u * u)
    yppp = problem.rhs(2.0, [1.0, -1.5, -1.5])[2]
    jet = JetPoint(x=2.0, yp=-1.5, ypp=-1.5, yppp=yppp)
    i1 = cont_i1_sl4(jet)
    assert abs(cont_i2_sl4(jet) - i1 * i1) < 1e-10


# -- symmetry of the continuous invariants ------------------------------------------

_X, _Y = sp.symbols("x y", positive=True)
_U, _V, _W = sp.symbols("u v w", real=True)  # first, second and third derivative of y


def _total_derivative(f):
    """D_x on functions of (x, y, u, v), where u = y' and v = y''."""
    return (
        sp.diff(f, _X) + _U * sp.diff(f, _Y) + _V * sp.diff(f, _U) + _W * sp.diff(f, _V)
    )


def _prolonged(xi, eta, f):
    """Third prolongation of xi d/dx + eta d/dy applied to f(x, y, u, v, w)."""
    eta1 = _total_derivative(eta) - _U * _total_derivative(xi)
    eta2 = _total_derivative(eta1) - _V * _total_derivative(xi)
    eta3 = _total_derivative(eta2) - _W * _total_derivative(xi)
    return (
        xi * sp.diff(f, _X) + eta * sp.diff(f, _Y) + eta1 * sp.diff(f, _U)
        + eta2 * sp.diff(f, _V) + eta3 * sp.diff(f, _W)
    )


def _symbolic_invariants(realization):
    """Generators (xi, eta), I1 and I2 as written in the docstrings of
    group_action and invariants."""
    if realization is RealizationId.SL3:
        d = 1 + _U**2
        return (
            [(0, 1), (_X, _Y), (2 * _X * _Y, _Y**2 - _X**2)],
            (_U * d - _X * _V) / d ** sp.Rational(3, 2),
            (3 * _X**2 * _U * _V**2 - _X**2 * _W * d) / d**3,
        )
    e = _U**2 - 1
    return (
        [(0, 1), (_X, _Y), (2 * _X * _Y, _X**2 + _Y**2)],
        (_X * _V + _U * e) / e ** sp.Rational(3, 2),
        (
            2 * _X**2 * (_U + 1) * _W
            + 3 * (
                (_U - 1) * (_U + 1) ** 2 * (3 * _U**2 - 1)
                + 4 * _X * _U * (_U + 1) * _V
                - 2 * _X**2 * _V**2
            )
        ) / ((_U - 1) ** 2 * (_U + 1) ** 3),
    )


@pytest.mark.parametrize(
    "realization, cont_i1, cont_i2",
    [
        (RealizationId.SL3, cont_i1_sl3, cont_i2_sl3),
        (RealizationId.SL4, cont_i1_sl4, cont_i2_sl4),
    ],
)
def test_prolonged_generators_annihilate_the_invariants(realization, cont_i1, cont_i2):
    """Every generator, prolonged to third order, annihilates I1 and I2,
    and the symbolic I1 and I2 are the ones cont_i1_* and cont_i2_* compute."""
    gens, i1, i2 = _symbolic_invariants(realization)
    for xi, eta in gens:
        for inv in (i1, i2):
            assert sp.simplify(_prolonged(sp.sympify(xi), sp.sympify(eta), inv)) == 0
    f1 = sp.lambdify((_X, _U, _V), i1, "math")
    f2 = sp.lambdify((_X, _U, _V, _W), i2, "math")
    rng = random.Random(5)
    for _ in range(50):
        x = rng.uniform(0.2, 3.0)
        if realization is RealizationId.SL3:
            u = rng.uniform(-3.0, 3.0)
        else:
            u = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 3.0)
        v, w = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        jet = JetPoint(x, u, v, w)
        assert cont_i1(jet) == pytest.approx(f1(x, u, v), rel=1e-12, abs=1e-12)
        assert cont_i2(jet) == pytest.approx(f2(x, u, v, w), rel=1e-12, abs=1e-12)


# -- discrete invariants -------------------------------------------------------


def test_disc_i1_sl3_values():
    assert disc_i1_sl3(Point2(1, 0), Point2(1, 1)) == 1.0
    assert disc_i1_sl3(Point2(2, 3), Point2(2, 3)) == 0.0
    assert abs(disc_i1_sl3(Point2(1, 0), Point2(2, 1)) - 1.0) < 1e-15


def test_disc_i2_sl3_values():
    assert disc_i1_sl3(Point2(1, 0), Point2(1, 2)) == 2.0
    assert abs(disc_i1_sl3(Point2(1, 0), Point2(4, 0)) - 1.5) < 1e-15


def test_disc_sl3_domain():
    with pytest.raises(DomainViolation):
        disc_i1_sl3(Point2(-1, 0), Point2(1, 1))


def test_disc_i1_sl4_values():
    with pytest.raises(DomainViolation):
        disc_i1_sl4(Point2(1, 0), Point2(1, 2))  # denominator zero
    assert abs(disc_i1_sl4(Point2(1, 0), Point2(1, 1)) - 1 / math.sqrt(3)) < 1e-15
    assert disc_i1_sl4(Point2(2, 5), Point2(2, 5)) == 0.0


def test_disc_i2_sl4_values():
    assert abs(disc_i1_sl4(Point2(1, 0), Point2(1, 1)) - 1 / math.sqrt(3)) < 1e-15
    assert abs(disc_i1_sl4(Point2(1, 0), Point2(2, 2)) - math.sqrt(3 / 5)) < 1e-15


def test_disc_i1_sl4_spacelike_pair_rejected():
    with pytest.raises(DomainViolation):
        disc_i1_sl4(Point2(1, 0), Point2(2, 0))  # dy^2 < dx^2


def test_discrete_symmetry():
    rng = random.Random(3)
    for _ in range(200):
        pa = Point2(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        pb = Point2(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        assert disc_i1_sl3(pa, pb) == disc_i1_sl3(pb, pa)
        e = (pb.y - pa.y) ** 2 - (pb.x - pa.x) ** 2
        if e >= 0 and 4 * pa.x * pb.x - e > 0:
            assert disc_i1_sl4(pa, pb) == disc_i1_sl4(pb, pa)


def test_discrete_nonnegative():
    rng = random.Random(5)
    for _ in range(200):
        pa = Point2(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        pb = Point2(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        assert disc_i1_sl3(pa, pb) >= 0.0


# -- J combinations ------------------------------------------------------------


def test_j1_sl3_values():
    assert j1_sl3(0.7, 1.3, 2.0) == 1.0  # i2 = i1n + i1n1
    assert j1_sl3(1.0, 1.0, 2.25) == 0.0  # radicand exactly zero
    with pytest.raises(DomainViolation):
        j1_sl3(1.0, 1.0, 4.0)  # radicand negative


def test_j2_sl3_values():
    assert j2_sl3(1.0, 2.0, 3.0, 0.4, 0.4) == 0.0
    assert abs(j2_sl3(1.0, 1.0, 1.0, 0.5, 0.8) - 0.3) < 1e-15


def test_j1_sl4_values():
    assert j1_sl4(1.0, 1.0, 4.0) == 0.0
    assert abs(j1_sl4(1.0, 1.0, 6.0) - SQRT2) < 1e-15
    with pytest.raises(DomainViolation):
        j1_sl4(1.0, 1.0, 3.0)


def test_j2_sl4_values():
    assert j2_sl4(1.0, 1.0, 1.0, 0.0, 0.0) == 3.0
    assert abs(j2_sl4(1.0, 1.0, 1.0, 1.0, 1.0) - 9.0) < 1e-15


def test_j1_nonnegative_windows():
    rng = random.Random(9)
    hits = 0
    while hits < 100:
        pa = Point2(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        pb = Point2(pa.x + rng.uniform(-0.2, 0.2), pa.y + rng.uniform(-0.2, 0.2))
        pc = Point2(pb.x + rng.uniform(-0.2, 0.2), pb.y + rng.uniform(-0.2, 0.2))
        try:
            j1 = window_j1(RealizationId.SL3, pa, pb, pc)
        except DomainViolation:
            continue
        assert j1 >= 0.0
        hits += 1


# -- continuous limits on exact conics -----------------------------------------


def _circle_points(theta, delta):
    return [
        Point2(2.0 + math.cos(t), 8.0 + math.sin(t))
        for t in (theta - delta, theta, theta + delta)
    ]


def test_j1_sl3_circle_limit():
    """J1 on shrinking windows of the center-(2,8) circle tends to 2."""
    errs = []
    for delta in (4e-3, 2e-3, 1e-3):
        j1 = window_j1(RealizationId.SL3, *_circle_points(0.7, delta))
        errs.append(abs(j1 - 2.0))
    assert errs[-1] < 1e-5
    assert errs[0] > errs[-1]


def _hyperbola_points(t0, delta):
    cy = 5.0 + 2.0 * SQRT2
    return [
        Point2(5.0 - math.cosh(t), cy + math.sinh(t))
        for t in (t0 - delta, t0, t0 + delta)
    ]


def test_j1_sl4_hyperbola_limit():
    """J1 on shrinking windows of the fitted hyperbola tends to C=5."""
    errs = []
    for delta in (4e-3, 2e-3, 1e-3):
        j1 = window_j1(RealizationId.SL4, *_hyperbola_points(-1.0, delta))
        errs.append(abs(j1 - 5.0))
    assert errs[-1] < 1e-4
    assert errs[0] > errs[-1]


def _count_pairs(monkeypatch):
    """Record every pair invariant the invariants module evaluates."""
    pairs = []
    for name in ("disc_i1_sl3", "disc_i1_sl4"):
        original = getattr(invariants, name)

        def counting(pa, pb, original=original):
            pairs.append((pa, pb))
            return original(pa, pb)

        monkeypatch.setattr(invariants, name, counting)
    return pairs


def test_window_invariants_consistency(monkeypatch):
    """window_j1 evaluates the window's three pair invariants once each and
    agrees with the textbook J1 on them."""
    pa, pb, pc = _circle_points(0.4, 1e-2)
    pairs = _count_pairs(monkeypatch)
    j1 = window_j1(RealizationId.SL3, pa, pb, pc)
    assert pairs == [(pa, pb), (pb, pc), (pa, pc)]
    monkeypatch.undo()
    i1n, i1n1, i2n1 = disc_i1_sl3(pa, pb), disc_i1_sl3(pb, pc), disc_i1_sl3(pa, pc)
    assert abs(j1 - j1_sl3(i1n, i1n1, i2n1)) < 1e-9


@pytest.mark.parametrize(
    "realization,curve",
    [
        (RealizationId.SL3, lambda x: math.sin(3.0 * x)),
        (RealizationId.SL4, lambda x: 2.0 * x * x + 3.0 * x),
    ],
    ids=["sl3", "sl4"],
)
@pytest.mark.parametrize("dx", [0.05, 0.01])
def test_window_j2_evaluates_five_pairs(realization, curve, dx, monkeypatch):
    """window_j2 evaluates each of its five pair invariants once, the pair
    (pb, pc) its two 3-point windows share included, and agrees with the
    textbook J2 on the textbook J1s of those windows."""
    pa, pb, pc, pd = (Point2(x, curve(x)) for x in (1.0, 1.0 + dx, 1.0 + 2 * dx, 1.0 + 3 * dx))
    pairs = _count_pairs(monkeypatch)
    j2 = window_j2(realization, pa, pb, pc, pd)
    assert len(pairs) == 5
    assert set(pairs) == {(pa, pb), (pb, pc), (pa, pc), (pc, pd), (pb, pd)}
    monkeypatch.undo()
    if realization is RealizationId.SL3:
        disc, j1, j2_oracle = disc_i1_sl3, j1_sl3, j2_sl3
    else:
        disc, j1, j2_oracle = disc_i1_sl4, j1_sl4, j2_sl4
    i_ab, i_bc, i_cd = disc(pa, pb), disc(pb, pc), disc(pc, pd)
    expected = j2_oracle(
        i_ab, i_bc, i_cd, j1(i_ab, i_bc, disc(pa, pc)), j1(i_bc, i_cd, disc(pb, pd))
    )
    assert abs(j2 - expected) < 1e-9 * abs(expected)
