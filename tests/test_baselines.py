"""Finite-difference stencils, the scalar Newton step, RK5(4), ODE forms."""

import math
import random

import pytest

from invscheme import (
    DomainViolation,
    JetPoint,
    NewtonDivergence,
    RealizationId,
    cont_i1_sl3,
    cont_i1_sl4,
    cont_i2_sl3,
    cont_i2_sl4,
    ode_rhs_library,
    rk45_integrate,
)
from invscheme.baselines import (
    square,
    standard_fd_step,
    stencil_d1_4pt,
    stencil_d2_4pt,
    stencil_d3_4pt,
)


def _nodes(xmid, h):
    return [xmid - 1.5 * h, xmid - 0.5 * h, xmid + 0.5 * h, xmid + 1.5 * h]


def _sample(fn, xmid, h):
    return [fn(x) for x in _nodes(xmid, h)]


# -- stencils ------------------------------------------------------------------


def test_stencil_d1_design_exactness():
    """First-derivative stencil is exact through degree 4 at the midpoint."""
    h = 0.1
    for xmid in (0.0, 0.7, -1.3):
        for p in range(5):
            got = stencil_d1_4pt(_sample(lambda x: x**p, xmid, h), h)
            want = 0.0 if p == 0 else p * xmid ** (p - 1)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_stencil_d1_quintic_truncation():
    # on x^5 the midpoint-0 error is exactly -9h^4/16
    h = 0.1
    got = stencil_d1_4pt(_sample(lambda x: x**5, 0.0, h), h)
    assert abs(got - (-9.0 * h**4 / 16.0)) < 1e-15


def test_stencil_d2_design_exactness():
    """Second-derivative stencil is exact through degree 3."""
    h = 0.05
    for xmid in (0.0, 1.1):
        for p in range(4):
            got = stencil_d2_4pt(_sample(lambda x: x**p, xmid, h), h)
            want = 0.0 if p < 2 else p * (p - 1) * xmid ** (p - 2)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_stencil_d2_quartic_truncation():
    # on x^4 the midpoint-0 value is exactly 5h^2 against a true 0
    h = 0.05
    got = stencil_d2_4pt(_sample(lambda x: x**4, 0.0, h), h)
    assert abs(got - 5.0 * h * h) < 1e-13


def test_stencil_d3_design_exactness():
    """Third-derivative stencil is exact through degree 4 at the midpoint."""
    h = 0.1
    for xmid in (0.0, -0.4):
        for p in range(5):
            got = stencil_d3_4pt(_sample(lambda x: x**p, xmid, h), h)
            want = 0.0 if p < 3 else p * (p - 1) * (p - 2) * xmid ** (p - 3)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_stencil_d3_sine():
    h = 1e-2
    xmid = 0.5
    got = stencil_d3_4pt(_sample(math.sin, xmid, h), h)
    assert abs(got - (-math.cos(xmid))) < 5e-5


def test_stencil_values_from_captioned_combinations():
    # y = x: (27h - 3h)/24h = 1
    assert stencil_d1_4pt([-0.15, -0.05, 0.05, 0.15], 0.1) == 1.0
    # y = x^2 on (+-h/2, +-3h/2): (9/4 - 1/4 - 1/4 + 9/4) h^2 / (2h^2) = 2
    h = 0.3
    assert abs(stencil_d2_4pt([2.25 * h * h, 0.25 * h * h, 0.25 * h * h, 2.25 * h * h], h) - 2.0) < 1e-14
    # y = x^3: (27/8 - 3/8 - 3/8 + 27/8) = 6
    vals = [(-1.5 * h) ** 3, (-0.5 * h) ** 3, (0.5 * h) ** 3, (1.5 * h) ** 3]
    assert abs(stencil_d3_4pt(vals, h) - 6.0) < 1e-12


# -- scalar Newton step --------------------------------------------------------


def test_standard_fd_step_linear_ode():
    """y'' = 0 from two samples of a line extends collinearly."""
    residual = lambda x, yp, ypp: ypp
    y2 = standard_fd_step(residual, [1.0, 1.3], 0.1, 0.1, guess=1.7)
    assert abs(y2 - 1.6) < 1e-12


def test_standard_fd_step_cubic_ode():
    """y''' = 0 on the 4-point stencil extends any quadratic exactly."""
    poly = lambda x: 2.0 + 0.5 * x - 0.75 * x * x
    residual = lambda x, yp, ypp, yppp: yppp
    ys = [poly(1.0 + i * 0.2) for i in range(3)]
    y3 = standard_fd_step(residual, ys, 1.0 + 0.2, 0.2, guess=ys[-1])
    assert abs(y3 - poly(1.0 + 3 * 0.2)) < 1e-11


def test_standard_fd_step_divergence():
    # residual with no root in y_next
    residual = lambda x, yp, ypp: 1.0 + ypp * ypp
    with pytest.raises(NewtonDivergence):
        standard_fd_step(residual, [1.0, 1.0], 1.01, 0.01, guess=1.0)


# -- RK5(4) --------------------------------------------------------------------


def test_rk45_exponential():
    sys_exp = lambda x, s: [s[0]]
    result = rk45_integrate(sys_exp, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12)
    assert result.status == "ok"
    assert abs(result.states[-1][0] - math.e) <= 1e-8


def test_rk45_tolerance_scaling():
    """Tightening the tolerance tightens the global error on y' = y."""
    sys_exp = lambda x, s: [s[0]]
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        result = rk45_integrate(sys_exp, 0.0, [1.0], 1.0, rtol=tol, atol=tol * 1e-2)
        errs.append(abs(result.states[-1][0] - math.e))
    assert errs[0] > errs[2]
    assert errs[2] < 1e-8


def test_rk45_oscillator_energy():
    sys_osc = lambda x, s: [s[1], -s[0]]
    result = rk45_integrate(sys_osc, 0.0, [1.0, 0.0], 2.0 * math.pi, rtol=1e-8, atol=1e-10)
    assert result.status == "ok"
    for state in result.states:
        energy = state[0] ** 2 + state[1] ** 2
        assert abs(energy - 1.0) < 1e-6


def test_rk45_halts_on_derivative_blowup():
    """The solved third-order equation from the jet (1, 1, 1, 3) stops
    with a structured halt inside [1.23, 1.33]."""
    problem = ode_rhs_library(RealizationId.SL3, 3, F=square)
    result = rk45_integrate(problem.rhs, 1.0, [1.0, 1.0, 3.0], 6.0, rtol=1e-8, atol=1e-10)
    assert result.status in ("singularity", "stepUnderflow")
    assert 1.23 <= result.halt_x <= 1.33


def test_rk45_max_steps():
    sys_exp = lambda x, s: [s[0]]
    result = rk45_integrate(sys_exp, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12, max_steps=3)
    assert result.status == "maxSteps"


# -- ODE library ---------------------------------------------------------------


def test_order2_residual_is_invariant_minus_constant():
    problem = ode_rhs_library(RealizationId.SL3, 2, C=2.0)
    jet = JetPoint(x=2.3, yp=0.5, ypp=-1.0)
    want = cont_i1_sl3(jet) - 2.0
    assert abs(problem.residual(2.3, 0.5, -1.0) - want) < 1e-14


def test_order3_solved_form_consistency_sl3():
    """Plugging the solved y''' back into the residual gives ~0."""
    problem = ode_rhs_library(RealizationId.SL3, 3, F=square)
    rng = random.Random(21)
    for _ in range(100):
        x = rng.uniform(0.3, 3.0)
        yp = rng.uniform(-2.0, 2.0)
        ypp = rng.uniform(-2.0, 2.0)
        yppp = problem.rhs(x, [0.0, yp, ypp])[2]
        assert abs(problem.residual(x, yp, ypp, yppp)) < 1e-10 * (1 + abs(yppp))


def test_order3_solved_form_consistency_sl4():
    problem = ode_rhs_library(RealizationId.SL4, 3, F=square)
    rng = random.Random(22)
    for _ in range(100):
        x = rng.uniform(0.3, 3.0)
        yp = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 3.0)
        ypp = rng.uniform(-2.0, 2.0)
        yppp = problem.rhs(x, [0.0, yp, ypp])[2]
        assert abs(problem.residual(x, yp, ypp, yppp)) < 1e-9 * (1 + abs(yppp))


def test_expanded_equation_iff_invariant_relation_sl3():
    """The expanded third-order equation vanishes exactly when
    I2 = I1^2, on random jets."""
    problem = ode_rhs_library(RealizationId.SL3, 3, F=square)
    rng = random.Random(33)
    for _ in range(100):
        x = rng.uniform(0.3, 3.0)
        yp = rng.uniform(-2.0, 2.0)
        ypp = rng.uniform(-2.0, 2.0)
        solved = problem.rhs(x, [0.0, yp, ypp])[2]
        for yppp in (solved, solved + rng.uniform(0.5, 2.0)):
            jet = JetPoint(x, yp, ypp, yppp)
            i1 = cont_i1_sl3(jet)
            gap = abs(cont_i2_sl3(jet) - i1 * i1)
            resid = abs(problem.residual(x, yp, ypp, yppp))
            if gap <= 1e-9:
                assert resid <= 1e-6  # cleared denominators scale the zero set
            if resid <= 1e-9:
                assert gap <= 1e-6
            if yppp is not solved:
                assert gap > 1e-9 and resid > 1e-9


def test_expanded_equation_iff_invariant_relation_sl4():
    problem = ode_rhs_library(RealizationId.SL4, 3, F=square)
    rng = random.Random(34)
    for _ in range(100):
        x = rng.uniform(0.3, 3.0)
        yp = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 3.0)
        ypp = rng.uniform(-2.0, 2.0)
        solved = problem.rhs(x, [0.0, yp, ypp])[2]
        for yppp in (solved, solved + rng.uniform(0.5, 2.0)):
            jet = JetPoint(x, yp, ypp, yppp)
            i1 = cont_i1_sl4(jet)
            gap = abs(cont_i2_sl4(jet) - i1 * i1)
            resid = abs(problem.residual(x, yp, ypp, yppp))
            if gap <= 1e-9:
                assert resid <= 1e-6
            if resid <= 1e-9:
                assert gap <= 1e-6
            if yppp is not solved:
                assert gap > 1e-9 and resid > 1e-9


def test_solved_form_rejects_unit_slope_sl4():
    problem = ode_rhs_library(RealizationId.SL4, 3, F=square)
    with pytest.raises(DomainViolation):
        problem.rhs(1.0, [0.0, 1.0, 0.5])


def test_captioned_jet_satisfies_solved_form():
    """The order-3 starting jet (1, 1, 3) closes the residual by construction."""
    problem = ode_rhs_library(RealizationId.SL3, 3, F=square)
    yppp = problem.rhs(1.0, [1.0, 1.0, 3.0])[2]
    assert abs(problem.residual(1.0, 1.0, 3.0, yppp)) < 1e-10
