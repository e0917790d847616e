"""Finite-difference stencils, the scalar Newton step, RK5(4), ODE forms.

The stencils' design exactness and RK5(4) on y' = y are acceptance
criterion 09.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from invscheme import baselines
from invscheme.baselines import (
    _trial,
    _trial2,
    square,
    standard_fd_step,
    stencil_d1_4pt,
    stencil_d2_4pt,
    stencil_d3_4pt,
)

from helpers import ANY_FLOAT, dp_trial_oracle, outcome, solved_ypp


def _nodes(xmid, h):
    return [xmid - 1.5 * h, xmid - 0.5 * h, xmid + 0.5 * h, xmid + 1.5 * h]


def _sample(fn, xmid, h):
    return [fn(x) for x in _nodes(xmid, h)]


# -- stencils ------------------------------------------------------------------


def test_stencil_d1_quintic_truncation():
    # on x^5 the midpoint-0 error is exactly -9h^4/16
    h = 0.1
    got = stencil_d1_4pt(_sample(lambda x: x**5, 0.0, h), h)
    assert abs(got - (-9.0 * h**4 / 16.0)) < 1e-15


def test_stencil_d2_quartic_truncation():
    # on x^4 the midpoint-0 value is exactly 5h^2 against a true 0
    h = 0.05
    got = stencil_d2_4pt(_sample(lambda x: x**4, 0.0, h), h)
    assert abs(got - 5.0 * h * h) < 1e-13


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


def _faulty(f, fault):
    """top(x, y') or rhs(x, state) with a call log and a fault at one stage
    of a trial, or none.

    ("raise", i) raises DomainViolation on the i-th call; ("inf", i),
    ("nan", i) and ("zero", i) return inf, nan or +0.0 from it, in
    component i mod n of a state's derivative.
    """
    calls = []

    def wrapped(x, arg):
        calls.append((x, arg))
        out = f(x, arg)
        if fault is not None and fault[1] == len(calls) - 1:
            if fault[0] == "raise":
                raise DomainViolation("stage fault", x)
            bad = {"inf": math.inf, "nan": math.nan, "zero": 0.0}[fault[0]]
            if isinstance(out, list):
                out[fault[1] % len(out)] = bad
            else:
                out = bad
        return out

    return wrapped, calls


_STAGE_FAULTS = [None] + [
    (kind, i) for i in range(7) for kind in ("raise", "inf", "nan", "zero")
]

@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(c=ANY_FLOAT, x=ANY_FLOAT, yp=ANY_FLOAT)
def test_sigma_solved_ypp_has_the_bits_of_each_realizations_formula(c, x, yp):
    """The order-2 systems' one sigma form of y'' returns the bits of the
    sl3 and the sl4 solution written out on its own, and raises the same
    error text at the same location, on every float including +-0,
    subnormals, +-inf and NaN."""
    for realization in RealizationId:
        top = ode_rhs_library(realization, 2, C=c).rhs.top
        assert outcome(top, x, yp) == outcome(solved_ypp(realization, c), x, yp)


_ORDER2_TOPS = {
    "sl3": lambda c: ode_rhs_library(RealizationId.SL3, 2, C=c).rhs.top,
    "sl4": lambda c: ode_rhs_library(RealizationId.SL4, 2, C=c).rhs.top,
    # Constant, so that a stage fault stays in its stage.  Its -0.0, with
    # one stage's +0.0 from a "zero" fault, makes every term of a weighted
    # sum -0.0, so a sum that drops its leading 0.0 shows in the sign.
    "still": lambda c: lambda x, yp: -0.0,
}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    c=st.floats(0.1, 6.0),
    x=st.floats(1e-3, 10.0),
    y=st.tuples(st.floats(-20.0, 20.0) | st.just(-0.0), st.floats(-6.0, 6.0) | st.just(-0.0)),
    h_sign=st.sampled_from([1.0, -1.0]),
    h_exp=st.floats(-7.0, 0.3),
    tols=st.sampled_from([(1e-8, 1e-10), (1e-12, 1e-13)]),
)
def test_trial2_returns_the_bits_of_the_generic_trial(c, x, y, h_sign, h_exp, tols):
    """For both realizations' order-2 library systems and every stage
    fault, the y-free trial step _trial2(rhs.top, ...) calls top at the
    same stage points as the generic _trial(rhs, ...) and returns the same
    bits, None for a failed stage included.  repr tells signed zeros apart
    and lets NaN equal NaN."""
    h = h_sign * 10.0**h_exp
    rtol, atol = tols
    for system, make in _ORDER2_TOPS.items():
        for fault in _STAGE_FAULTS:
            top, generic_calls = _faulty(make(c), fault)
            generic = _trial(baselines.SolvedOrder2(top), x, list(y), h, rtol, atol)
            top, calls = _faulty(make(c), fault)
            unrolled = _trial2(top, x, list(y), h, rtol, atol)
            assert repr((unrolled, calls)) == repr((generic, generic_calls)), (system, fault)


def _coupled(x, s):
    """A y-dependent rhs whose components all meet each other and x."""
    n = len(s)
    return [s[(m + 1) % n] - 0.3 * x * s[m] + 0.1 * s[m] * s[m - 1] for m in range(n)]


_SYSTEMS = {
    "coupled": lambda n: _coupled,
    # Constant, like "still" above: a faulted stage changes only the call
    # log and the weighted sums that read it.
    "still": lambda n: lambda x, s: [-0.0] * n,
    "sl3 order 3": lambda n: ode_rhs_library(RealizationId.SL3, 3, F=square).rhs,
    "sl4 order 3": lambda n: ode_rhs_library(RealizationId.SL4, 3, F=square).rhs,
}


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    x=st.floats(1e-3, 10.0) | st.just(-0.0),
    y=st.lists(st.floats(-6.0, 6.0) | st.just(-0.0) | st.just(0.0), min_size=4, max_size=4),
    h_sign=st.sampled_from([1.0, -1.0]),
    h_exp=st.floats(-7.0, 0.3),
    tols=st.sampled_from([(1e-8, 1e-10), (1e-12, 1e-13)]),
)
def test_trial_returns_the_bits_of_the_nested_loop_trial(n, x, y, h_sign, h_exp, tols):
    """The stage-by-stage _trial calls rhs at the stage points of the
    nested-loop Dormand-Prince trial in tests/helpers.py and returns its
    bits, None for a failed stage included, for y-dependent systems of 1 to
    4 components, both realizations' order-3 library systems and every
    stage fault.  repr tells signed zeros apart and lets NaN equal NaN."""
    h = h_sign * 10.0**h_exp
    rtol, atol = tols
    for system, make in _SYSTEMS.items():
        m = 3 if system.endswith("order 3") else n
        for fault in _STAGE_FAULTS:
            rhs, oracle_calls = _faulty(make(m), fault)
            oracle = dp_trial_oracle(rhs, x, y[:m], h, rtol, atol)
            rhs, calls = _faulty(make(m), fault)
            staged = _trial(rhs, x, y[:m], h, rtol, atol)
            assert repr((staged, calls)) == repr((oracle, oracle_calls)), (system, m, fault)


@pytest.mark.parametrize(
    "state0, used",
    [([1.0, 0.0], "_trial"), ([8.0, 1.5], "_trial2"), ([1.0, 0.0, 0.5], "_trial")],
)
def test_rk45_picks_the_trial_by_state_size(monkeypatch, state0, used):
    """Order-2 library systems, whose y'' never reads y, take every trial
    step from the y-free _trial2; any other rhs takes _trial, a
    y-dependent two-component one included."""
    calls = []
    for name in ("_trial", "_trial2"):
        fn = getattr(baselines, name)
        monkeypatch.setattr(baselines, name, lambda *a, _n=name, _f=fn: calls.append(_n) or _f(*a))
    n = len(state0)
    if used == "_trial2":
        systems = [ode_rhs_library(r, 2, C=1.0).rhs for r in RealizationId]
    else:
        systems = [lambda x, s: [s[(m + 1) % n] for m in range(n)]]
    for rhs in systems:
        calls.clear()
        result = rk45_integrate(rhs, 1.0, state0, 1.5)
        assert result.status == "ok"
        assert set(calls) == {used}
        assert len(calls) >= len(result.xs) - 1 > 0


# -- ODE library ---------------------------------------------------------------


def test_order2_residual_is_invariant_minus_constant():
    problem = ode_rhs_library(RealizationId.SL3, 2, C=2.0)
    jet = JetPoint(x=2.3, yp=0.5, ypp=-1.0)
    want = cont_i1_sl3(jet) - 2.0
    assert abs(problem.residual(2.3, 0.5, -1.0) - want) < 1e-14


@pytest.mark.parametrize("realization", list(RealizationId), ids=lambda r: r.value)
def test_order2_residual_is_the_jet_invariant_to_the_bit(realization):
    """The order-2 residual takes I1 on plain floats and equals
    cont_i1(JetPoint(x, y', y'')) - C to the bit; outside the domain
    (x <= 0, and |y'| <= 1 for sl4) both raise the same DomainViolation."""
    cont_i1 = cont_i1_sl3 if realization is RealizationId.SL3 else cont_i1_sl4
    c = 1.75
    residual = ode_rhs_library(realization, 2, C=c).residual
    rng = random.Random(41)
    jets = [
        (rng.uniform(-1.0, 4.0), rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        for _ in range(400)
    ]
    jets += [(0.0, 2.0, 1.0), (-0.0, 2.0, 1.0), (-1.0, 2.0, 1.0), (1.0, 1.0, 0.5),
             (1.0, -1.0, 0.5), (1.0, 0.0, 0.0), (1.0, -0.0, -0.0), (1e-300, 3.0, 1e300)]

    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except DomainViolation as exc:
            return ("DomainViolation", str(exc), repr(exc.location))

    kinds = set()
    for x, yp, ypp in jets:
        want = outcome(lambda: cont_i1(JetPoint(x, yp, ypp)) - c)
        assert outcome(residual, x, yp, ypp) == want, (x, yp, ypp)
        kinds.add(want[1] if isinstance(want, tuple) else "value")
    assert kinds == {"value", "jet needs x > 0"} | (
        {"sl4 first invariant needs |y'| > 1"} if realization is RealizationId.SL4 else set()
    )


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
