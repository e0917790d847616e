"""Independent reference solutions of the order-3 equations I2 = F(I1).

Run as a child process so that scipy never enters the measured process:

    python3 bench/reference.py < problems.json > solutions.json

Input: {"problems": [{"id", "realization", "x0", "y0", "yp0", "ypp0",
"F", "xs"}]}.  Output: {id: {"x_blowup": x, "y": {repr(x): y(x)}}}.
The equation is written here from the invariants' definitions; I2 is affine
in y''', so y''' follows from two evaluations of I2.  scipy's DOP853 at
rtol 1e-12 integrates the graph y(x) up to a steep slope, and the
first-derivative blow-up is extrapolated from there.
"""

from __future__ import annotations

import json
import sys

from scipy.integrate import solve_ivp

from oracles import F_BY_NAME

# Dense output, checked against the program, runs at rtol 1e-12 while the
# slope stays below STEEP.  Past it the right-hand side loses digits to
# cancellation and DOP853 at 1e-12 stalls on the noise, so the blow-up is
# located at rtol 1e-10 from the slopes SLOPE_1 and SLOPE_2, through the
# law of a slope blow-up at a vertical tangent, y'^2 ~ 1 / (x* - x).
STEEP = 8.0
SLOPE_1, SLOPE_2 = 10.0, 20.0


def invariants(realization: str, x: float, u: float, v: float, w: float):
    """(I1, I2) at the jet (x, y' = u, y'' = v, y''' = w)."""
    if realization == "sl3":
        d = 1.0 + u * u
        i1 = (u * d - x * v) / d**1.5
        i2 = (3.0 * x * x * u * v * v - x * x * w * d) / d**3
        return i1, i2
    e = u * u - 1.0
    i1 = (x * v + u * e) / e**1.5
    num = 2.0 * x * x * (u + 1.0) * w + 3.0 * (
        (u - 1.0) * (u + 1.0) ** 2 * (3.0 * u * u - 1.0)
        + 4.0 * x * u * (u + 1.0) * v
        - 2.0 * x * x * v * v
    )
    return i1, num / ((u - 1.0) ** 2 * (u + 1.0) ** 3)


def solve(problem: dict) -> dict:
    real = problem["realization"]
    f = F_BY_NAME[problem.get("F", "square")]

    def rhs(x, s):
        _, u, v = s
        i1, i2_at_0 = invariants(real, x, u, v, 0.0)
        _, i2_at_1 = invariants(real, x, u, v, 1.0)
        return [u, v, (f(i1) - i2_at_0) / (i2_at_1 - i2_at_0)]

    def at_slope(level: float, terminal: bool):
        def event(x, s):
            return abs(s[1]) - level

        event.terminal = terminal
        return event

    x0 = problem["x0"]
    near = solve_ivp(
        rhs, (x0, x0 + 10.0), [problem["y0"], problem["yp0"], problem["ypp0"]],
        method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        events=at_slope(STEEP, True),
    )
    x_steep = float(near.t[-1])
    far = solve_ivp(
        rhs, (x_steep, x_steep + 1.0), near.y[:, -1], method="DOP853",
        rtol=1e-10, atol=1e-14, events=[at_slope(SLOPE_1, False), at_slope(SLOPE_2, True)],
    )
    (x1,), (x2,) = far.t_events
    u1, u2 = far.y_events[0][0][1], far.y_events[1][0][1]
    x_blow = float((x2 * u2 * u2 - x1 * u1 * u1) / (u2 * u2 - u1 * u1))
    ys = {repr(x): float(near.sol(x)[0]) for x in problem["xs"] if x <= x_steep}
    return {"x_blowup": x_blow, "y": ys}


def main() -> int:
    problems = json.load(sys.stdin)["problems"]
    json.dump({p["id"]: solve(p) for p in problems}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
