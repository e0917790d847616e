"""Non-invariant reference methods: finite differences and adaptive RK5(4).

These are the comparison baselines for the invariant schemes: 3-point and
4-point finite-difference discretizations on a uniform x mesh, and an
embedded Dormand-Prince 5(4) pair with elementary step control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core import (
    DomainViolation,
    NewtonDivergence,
    NumericError,
    RealizationId,
)
from .invariants import (
    JetPoint, _i1, cont_i1_sl3, cont_i1_sl4, cont_i2_sl3, cont_i2_sl4,
)


# -- midpoint stencils for the 4-point scheme --------------------------------
#
# yvals = (y_{n-1}, y_n, y_{n+1}, y_{n+2}); all three stencils approximate
# derivatives at the midpoint x_{n+1/2} = (x_n + x_{n+1}) / 2.


def stencil_d1_4pt(yvals: Sequence[float], h: float) -> float:
    """(27(y_{n+1} - y_n) - (y_{n+2} - y_{n-1})) / (24h); exact through x^4."""
    return (27.0 * (yvals[2] - yvals[1]) - (yvals[3] - yvals[0])) / (24.0 * h)


def stencil_d2_4pt(yvals: Sequence[float], h: float) -> float:
    """(y_{n+2} - y_{n+1} - y_n + y_{n-1}) / (2h^2); exact through x^3."""
    return (yvals[3] - yvals[2] - yvals[1] + yvals[0]) / (2.0 * h * h)


def stencil_d3_4pt(yvals: Sequence[float], h: float) -> float:
    """(y_{n+2} - 3y_{n+1} + 3y_n - y_{n-1}) / h^3; exact through x^4."""
    return (yvals[3] - 3.0 * yvals[2] + 3.0 * yvals[1] - yvals[0]) / h**3


def stencil_c1(yvals: Sequence[float], h: float) -> float:
    """Central first derivative at x_n from (y_{n-1}, y_n, y_{n+1})."""
    return (yvals[2] - yvals[0]) / (2.0 * h)


def stencil_c2(yvals: Sequence[float], h: float) -> float:
    """Central second derivative at x_n from (y_{n-1}, y_n, y_{n+1})."""
    return (yvals[2] - 2.0 * yvals[1] + yvals[0]) / (h * h)


# -- ODE library -------------------------------------------------------------


def square(u: float) -> float:
    """Default order-3 right-hand side F(J1) = J1^2."""
    return u * u


@dataclass(frozen=True)
class OdeProblem:
    """One ODE in residual form plus its solved first-order system.

    residual takes (x, yp, ypp) for order 2 and (x, yp, ypp, yppp) for
    order 3; rhs(x, state) takes states (y, yp) resp. (y, yp, ypp).
    """

    residual: Callable[..., float]
    rhs: Callable[[float, Sequence[float]], list[float]]


def _solved_ypp(sigma: float, c: float) -> Callable[[float, float], float]:
    """y'' of I1 = c solved with _i1's q = y'^2 + sigma:
    sigma (y' q - c q^(3/2)) / x, where sl4 (sigma = -1) needs q > 0."""

    def ypp(x: float, yp: float) -> float:
        if x == 0.0:
            raise DomainViolation("second derivative undefined at x = 0", x)
        q = yp * yp + sigma
        if q <= 0.0:
            raise DomainViolation("sl4 slope left |y'| > 1", yp)
        return (sigma * (yp * q) - sigma * (c * q**1.5)) / x

    return ypp


@dataclass(frozen=True)
class SolvedOrder2:
    """rhs(x, (y, y')) = [y', top(x, y')] of an order-2 library system.

    Both realizations contain X1 = d_y, so y'' = top(x, y') never reads y;
    rk45_integrate uses that to skip y in its trial stages.
    """

    top: Callable[[float, float], float]

    def __call__(self, x: float, s: Sequence[float]) -> list[float]:
        yp = s[1]
        return [yp, self.top(x, yp)]


def expanded_residual_sl3(x: float, yp: float, ypp: float, yppp: float) -> float:
    """Third-order sl3 equation with F(u) = u^2, cleared of denominators:
    x^2(1+y'^2)y''' - x^2(3y'-1)y''^2 - 2xy'(1+y'^2)y'' + y'^2(1+y'^2)^2."""
    d = 1.0 + yp * yp
    x2 = x * x
    return (
        x2 * d * yppp
        - x2 * (3.0 * yp - 1.0) * ypp * ypp
        - 2.0 * x * yp * d * ypp
        + yp * yp * d * d
    )


def expanded_residual_sl4(x: float, yp: float, ypp: float, yppp: float) -> float:
    """Third-order sl4 equation with F(u) = u^2, cleared of denominators:
    2x^2(y'^2-1)y''' + (y'^2-1)^2(8y'^2-3) + 10xy'y''(y'^2-1) - x^2y''^2(6y'-5)."""
    e = yp * yp - 1.0
    x2 = x * x
    return (
        2.0 * x2 * e * yppp
        + e * e * (8.0 * yp * yp - 3.0)
        + 10.0 * x * yp * ypp * e
        - x2 * ypp * ypp * (6.0 * yp - 5.0)
    )


def _solved_yppp(
    realization: RealizationId, f: Callable[[float], float]
) -> Callable[[float, float, float], float]:
    if realization is RealizationId.SL3:

        def yppp(x: float, yp: float, ypp: float) -> float:
            if x == 0.0:
                raise DomainViolation("third derivative undefined at x = 0", x)
            d = 1.0 + yp * yp
            i1 = cont_i1_sl3(JetPoint(x, yp, ypp))
            return 3.0 * yp * ypp * ypp / d - f(i1) * d * d / (x * x)

    else:

        def yppp(x: float, yp: float, ypp: float) -> float:
            if x == 0.0:
                raise DomainViolation("third derivative undefined at x = 0", x)
            e = yp * yp - 1.0
            if e <= 0.0:
                raise DomainViolation("sl4 slope left |y'| > 1", yp)
            i1 = cont_i1_sl4(JetPoint(x, yp, ypp))
            rest = 3.0 * (
                (yp - 1.0) * (yp + 1.0) ** 2 * (3.0 * yp * yp - 1.0)
                + 4.0 * x * yp * (yp + 1.0) * ypp
                - 2.0 * x * x * ypp * ypp
            )
            return (f(i1) * (yp - 1.0) ** 2 * (yp + 1.0) ** 3 - rest) / (
                2.0 * x * x * (yp + 1.0)
            )

    return yppp


def ode_rhs_library(
    realization: RealizationId,
    order: int,
    *,
    C: Optional[float] = None,
    F: Optional[Callable[[float], float]] = None,
) -> OdeProblem:
    """Residual form and solved first-order system for one scheme's ODE.

    Order 2 uses the first-invariant equation I1 = C.  Order 3 uses
    I2 = F(I1); F = square gets the denominator-cleared polynomial
    residual, any other callable gets I2 - F(I1).
    """
    if order == 2:
        if C is None:
            raise ValueError("order-2 ODE needs C")
        sigma = 1.0 if realization is RealizationId.SL3 else -1.0

        def residual2(x: float, yp: float, ypp: float) -> float:
            return _i1(sigma, x, yp, ypp) - C

        return OdeProblem(residual2, SolvedOrder2(_solved_ypp(sigma, C)))

    if order == 3:
        if F is None:
            raise ValueError("order-3 ODE needs F")
        if F is square:
            residual3 = (
                expanded_residual_sl3
                if realization is RealizationId.SL3
                else expanded_residual_sl4
            )
        else:
            cont_i1 = cont_i1_sl3 if realization is RealizationId.SL3 else cont_i1_sl4
            cont_i2 = cont_i2_sl3 if realization is RealizationId.SL3 else cont_i2_sl4

            def residual3(x: float, yp: float, ypp: float, yppp: float) -> float:
                jet = JetPoint(x, yp, ypp, yppp)
                return cont_i2(jet) - F(cont_i1(jet))

        solved3 = _solved_yppp(realization, F)

        def rhs3(x: float, s: Sequence[float]) -> list[float]:
            return [s[1], s[2], solved3(x, s[1], s[2])]

        return OdeProblem(residual3, rhs3)

    raise ValueError("order must be 2 or 3")


# -- scalar Newton step for the finite-difference schemes ---------------------

# Newton acceptance level on |residual|, and the iteration limit.
_FD_TOL = 1e-12
_FD_MAX_ITER = 50


def standard_fd_step(
    residual: Callable[..., float], ys: Sequence[float], x1: float, h: float, guess: float
) -> float:
    """Solve one uniform-mesh step of spacing h for the next y value.

    ys holds the known values: 2 of them for the 3-point (order-2) scheme,
    3 for the 4-point (order-3) scheme.  x1 is the abscissa of ys[1].
    Raises NewtonDivergence if the iteration does not settle.
    """
    if len(ys) == 2:
        def f(ynext: float) -> float:
            vals = (ys[0], ys[1], ynext)
            return residual(x1, stencil_c1(vals, h), stencil_c2(vals, h))

    elif len(ys) == 3:
        xc = x1 + 0.5 * h

        def f(ynext: float) -> float:
            vals = (ys[0], ys[1], ys[2], ynext)
            return residual(
                xc, stencil_d1_4pt(vals, h), stencil_d2_4pt(vals, h), stencil_d3_4pt(vals, h)
            )

    else:
        raise ValueError("ys must hold 2 or 3 known values")

    y = guess
    for _ in range(_FD_MAX_ITER):
        try:
            fy = f(y)
        except NumericError as err:
            raise NewtonDivergence(f"residual left its domain: {err.detail}", y)
        if not math.isfinite(fy):
            raise NewtonDivergence("residual is not finite", y)
        if abs(fy) <= _FD_TOL:
            return y
        dy_step = 1e-7 * (1.0 + abs(y))
        try:
            f_hi = f(y + dy_step)
            f_lo = f(y - dy_step)
        except NumericError as err:
            raise NewtonDivergence(f"derivative left its domain: {err.detail}", y)
        deriv = (f_hi - f_lo) / (2.0 * dy_step)
        if deriv == 0.0 or not math.isfinite(deriv):
            raise NewtonDivergence("flat or invalid residual derivative", y)
        delta = fy / deriv
        y -= delta
        if abs(delta) <= 1e-13 * (1.0 + abs(y)):
            fy = f(y)
            if abs(fy) <= max(_FD_TOL, 1e-9 * (1.0 + abs(fy))):
                return y
    raise NewtonDivergence(f"no convergence in {_FD_MAX_ITER} iterations", y)


# -- Dormand-Prince 5(4) ------------------------------------------------------

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_BLOWUP = 1e8

# Right-hand-side failures that reject a trial step instead of raising.
_STAGE_ERRORS = (NumericError, ValueError, OverflowError, ZeroDivisionError)

_C2, _C3, _C4, _C5 = _DP_C[1:5]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _DP_A[1:]
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = _DP_B5
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_ERR


def _trial(
    rhs: Callable[[float, Sequence[float]], list[float]],
    x: float,
    y: list[float],
    h: float,
    rtol: float,
    atol: float,
) -> Optional[tuple[list[float], float]]:
    """One Dormand-Prince trial step of size h from (x, y).

    Returns the fifth-order state and the RMS error norm scaled by
    atol + rtol * max(|y|, |y5|), or None when a stage raises one of
    _STAGE_ERRORS or the new state is not finite.
    """
    n = len(y)
    k: list[list[float]] = []
    try:
        for i in range(7):
            xi = x + _DP_C[i] * h
            yi = y[:]
            ai = _DP_A[i]
            for j, aij in enumerate(ai):
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


def _trial2(
    top: Callable[[float, float], float],
    x: float,
    y: list[float],
    h: float,
    rtol: float,
    atol: float,
) -> Optional[tuple[list[float], float]]:
    """_trial for the system (y, y')' = (y', top(x, y')), unrolled into floats.

    The derivative of y at a stage is that stage's y', so u_i, component 0
    of stage i's derivative, is the stage sum of y' and the stage sums of y
    are never formed.  Everything else is _trial's floating-point
    operations in _trial's order, so both return the same bits: h * a_ij is
    formed before it meets k_j, stage sums run left to right from y' and
    skip the zero a_72, and the weighted sums start at 0.0 and keep their
    zero-weight terms.  v_i is top's value at stage i.
    """
    y0 = y[0]
    u1 = y[1]
    try:
        v1 = top(x + 0.0 * h, u1)
        u2 = u1 + h * _A21 * v1
        v2 = top(x + _C2 * h, u2)
        u3 = u1 + h * _A31 * v1 + h * _A32 * v2
        v3 = top(x + _C3 * h, u3)
        u4 = u1 + h * _A41 * v1 + h * _A42 * v2 + h * _A43 * v3
        v4 = top(x + _C4 * h, u4)
        u5 = u1 + h * _A51 * v1 + h * _A52 * v2 + h * _A53 * v3 + h * _A54 * v4
        v5 = top(x + _C5 * h, u5)
        u6 = u1 + h * _A61 * v1 + h * _A62 * v2 + h * _A63 * v3 + h * _A64 * v4 + h * _A65 * v5
        v6 = top(x + 1.0 * h, u6)
        u7 = u1 + h * _A71 * v1 + h * _A73 * v3 + h * _A74 * v4 + h * _A75 * v5 + h * _A76 * v6
        v7 = top(x + 1.0 * h, u7)
    except _STAGE_ERRORS:
        return None
    y5_0 = y0 + h * (
        0.0 + _B1 * u1 + _B2 * u2 + _B3 * u3 + _B4 * u4 + _B5 * u5 + _B6 * u6 + _B7 * u7
    )
    if not math.isfinite(y5_0):
        return None
    e0 = h * (
        0.0 + _E1 * u1 + _E2 * u2 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7
    ) / (atol + rtol * max(abs(y0), abs(y5_0)))
    y5_1 = u1 + h * (
        0.0 + _B1 * v1 + _B2 * v2 + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6 + _B7 * v7
    )
    if not math.isfinite(y5_1):
        return None
    e1 = h * (
        0.0 + _E1 * v1 + _E2 * v2 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7
    ) / (atol + rtol * max(abs(u1), abs(y5_1)))
    return [y5_0, y5_1], math.sqrt((0.0 + e0 * e0 + e1 * e1) / 2)


@dataclass
class RkResult:
    xs: list[float] = field(default_factory=list)
    states: list[list[float]] = field(default_factory=list)
    status: str = "ok"
    detail: str = ""

    @property
    def halt_x(self) -> float:
        return self.xs[-1]


def rk45_integrate(
    rhs: Callable[[float, Sequence[float]], list[float]],
    x0: float,
    state0: Sequence[float],
    x_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_steps: int = 1_000_000,
) -> RkResult:
    """Adaptive embedded RK5(4) for state' = rhs(x, state) from x0 to x_end.

    Halts early with status "stepUnderflow" when the step drops below
    1e-14 * |x|, or "singularity" when the solution component passes 1e8.
    Derivative components are allowed to grow without tripping the guard:
    at a first-derivative blow-up the solution itself stays finite, and
    halting on the state norm would stop integration while the trajectory
    slope is still of order (1e8)^(1/3), hiding the very behavior the
    trajectory-level detectors look for.  Right-hand-side domain failures
    shrink the step like a rejected one, so blow-ups end in one of those
    two statuses instead of raising.

    One step-size controller serves every rhs.  An order-2 library system
    (a SolvedOrder2) takes its trial steps from _trial2, which never forms
    y at the stages and returns the same bits as the generic _trial that
    serves every other rhs.
    """
    res = RkResult(xs=[x0], states=[list(state0)])
    if x_end == x0:
        return res
    direction = 1.0 if x_end > x0 else -1.0
    x = x0
    y = list(state0)
    trial, f = (_trial2, rhs.top) if isinstance(rhs, SolvedOrder2) else (_trial, rhs)
    h = direction * min(abs(x_end - x0) * 1e-2, 0.1)
    for _ in range(max_steps):
        if (x + h - x_end) * direction > 0.0:
            h = x_end - x
        attempt = trial(f, x, y, h, rtol, atol)
        if attempt is None:
            err_norm = math.inf
        else:
            y5, err_norm = attempt
        if err_norm <= 1.0:
            x += h
            y = y5
            res.xs.append(x)
            res.states.append(y[:])
            if abs(y[0]) > _BLOWUP:
                res.status = "singularity"
                res.detail = f"solution magnitude passed {_BLOWUP:g}"
                return res
            if (x - x_end) * direction >= 0.0:
                return res
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
            )
        else:
            factor = (
                _MIN_FACTOR
                if not math.isfinite(err_norm)
                else min(1.0, max(_MIN_FACTOR, _SAFETY * err_norm**-0.2))
            )
        h *= factor
        if abs(h) < 1e-14 * abs(x) or abs(h) < 1e-300:
            res.status = "stepUnderflow"
            res.detail = f"step size fell to {h:.3e} at x = {x:.6f}"
            return res
    res.status = "maxSteps"
    res.detail = f"budget of {max_steps} steps exhausted"
    return res
