"""Checks of the program's outputs, written apart from the program.

Nothing here imports invscheme.  Every check recomputes what it needs from
the CSV rows and the report JSON the program wrote: the exact conics come in
closed form from (x0, y0, C, a), the pair invariants and J1/J2 from the
definitions in the package README, and the order-3 reference curve from
an independent integrator (`reference.py`).  A check returns a list of
problems; an empty list means the experiment passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# -- closed forms ------------------------------------------------------------


@dataclass(frozen=True)
class Conic:
    """(x-cx)^2 + (y-cy)^2 = r^2 (circle) or (x-cx)^2 - (y-cy)^2 = r^2,
    left branch (hyperbola)."""

    kind: str  # "circle" or "hyperbola"
    cx: float
    cy: float
    r: float

    @property
    def tangent_x(self) -> float:
        """Abscissa of the vertical tangent a graph y(x) runs into from the
        left: the circle's rightmost point, the left branch's vertex."""
        return self.cx + self.r if self.kind == "circle" else self.cx - self.r

    def distance(self, x: float, y: float) -> float:
        dx, dy = x - self.cx, y - self.cy
        if self.kind == "circle":
            return abs(math.hypot(dx, dy) - self.r)
        # Horizontal offset from the branch at the same y, projected on the
        # branch normal (dx_on, -dy): first-order exact near the curve.
        dx_on = -math.sqrt(self.r * self.r + dy * dy)
        return abs(dx - dx_on) * abs(dx_on) / math.hypot(dx_on, dy)


def conic_through(realization: str, x0: float, y0: float, c: float, a: float) -> Conic:
    """The solution of I1 = C at scale a through (x0, y0) that the package
    documents as its fit: radius or semi-axis 1/|a|, centre abscissa C/|a|,
    and (x0, y0) below the centre."""
    r = 1.0 / abs(a)
    cx = c / abs(a)
    if realization == "sl3":
        rad = r * r - (x0 - cx) ** 2
        kind = "circle"
    else:
        rad = (x0 - cx) ** 2 - r * r
        kind = "hyperbola"
    if rad < -1e-12 * r * r:
        raise ValueError(f"({x0}, {y0}) is not on a {kind} centred at x = {cx}")
    return Conic(kind, cx, y0 + math.sqrt(max(rad, 0.0)), r)


# -- invariants from coordinates --------------------------------------------


def pair_invariant(realization: str, xa: float, ya: float, xb: float, yb: float) -> float:
    dx, dy = xb - xa, yb - ya
    if realization == "sl3":
        return math.sqrt((dx * dx + dy * dy) / (xa * xb))
    e = dy * dy - dx * dx
    return math.sqrt(e / (4.0 * xa * xb - e))


F_BY_NAME: dict[str, Callable[[float], float]] = {
    "square": lambda u: u * u,
    "identity": lambda u: u,
    "zero": lambda u: 0.0,
}

# -- reading what the program wrote -----------------------------------------


@dataclass
class Output:
    report: dict
    rows: dict[str, list[dict[str, float]]]  # method -> CSV rows

    def xs(self, method: str) -> list[float]:
        return [r["x"] for r in self.rows[method]]

    def ys(self, method: str) -> list[float]:
        return [r["y"] for r in self.rows[method]]


def read_output(out_dir: Path, name: str) -> Output:
    report = json.loads((out_dir / f"{name}_report.json").read_text())
    rows = {}
    for method, entry in report["methods"].items():
        if entry.get("file"):
            with open(out_dir / entry["file"], newline="") as fh:
                rows[method] = [
                    {k: float(v) for k, v in rec.items() if v not in ("", None)}
                    for rec in csv.DictReader(fh)
                ]
    return Output(report, rows)


# -- checks ------------------------------------------------------------------


def check_report(out: Output, raw: dict) -> list[str]:
    """The report names every requested method, and each CSV has as many
    rows as the report says points."""
    problems = []
    for method in raw["methods"]:
        entry = out.report["methods"].get(method)
        if entry is None:
            problems.append(f"report does not name method {method}")
        elif entry.get("error"):
            problems.append(f"{method} reported an error: {entry['error']}")
        elif len(out.rows.get(method, [])) != entry["points"]:
            problems.append(
                f"{method}: {len(out.rows.get(method, []))} CSV rows but "
                f"{entry['points']} points reported"
            )
    return problems


# Every accepted step solves its pair invariants to a residual of at most
# 5e-11 (the package's step gate).
K_TOL = 5e-11

# J1 and J2 are ratios of O(K^3) differences of O(K) pair invariants, so the
# rounding of the 17-digit coordinates alone moves them by far more than
# the rounding of the arithmetic does.  The checks bound that propagated
# error and allow this many times it.
SAFETY = 64.0
EPS = 2.0**-52


def _pair_error(xs, ys, i: int, j: int, inv: float) -> float:
    """Bound on how far rounding the coordinates of points i, j moves their
    pair invariant: eps * |coordinate| times the gradient, whose size is
    about (|dx| + |dy|) / (I x^2) for both realizations."""
    s = max(abs(xs[i]), abs(ys[i]), abs(xs[j]), abs(ys[j]))
    return EPS * s * (abs(xs[j] - xs[i]) + abs(ys[j] - ys[i])) / (inv * min(xs[i], xs[j]) ** 2)


def j1_windows(realization: str, xs, ys) -> tuple[list[tuple[float, float]], list[float]]:
    """(J1, error bound) of every window (i, i+1, i+2), and the pair
    invariant of every consecutive pair.  sl3 J1^2 = 1 - 8q and sl4
    J1^2 = 2(q - 1), with q = (I2 - I1n - I1n1) / (I1n I1n1 (I1n + I1n1))."""
    pairs = [pair_invariant(realization, xs[i], ys[i], xs[i + 1], ys[i + 1]) for i in range(len(xs) - 1)]
    out = []
    for i in range(len(xs) - 2):
        i1n, i1n1 = pairs[i], pairs[i + 1]
        i2 = pair_invariant(realization, xs[i], ys[i], xs[i + 2], ys[i + 2])
        den = i1n * i1n1 * (i1n + i1n1)
        q = (i2 - i1n - i1n1) / den
        dq = (
            _pair_error(xs, ys, i, i + 1, i1n)
            + _pair_error(xs, ys, i + 1, i + 2, i1n1)
            + _pair_error(xs, ys, i, i + 2, i2)
        ) / den
        rad, drad = (1.0 - 8.0 * q, 8.0 * dq) if realization == "sl3" else (2.0 * (q - 1.0), 2.0 * dq)
        j1 = math.sqrt(max(rad, 0.0))
        out.append((j1, drad / (2.0 * j1) if j1 * j1 > drad else math.sqrt(drad)))
    return out, pairs


def check_invariant_csv(out: Output, raw: dict) -> list[str]:
    """Constant pair invariant K, J1 = C (order 2) or J2 = F(J1) (order 3),
    and J1/J2 columns equal to the values recomputed from x and y."""
    real = raw["realization"]
    rows = out.rows["invariant"]
    xs, ys = out.xs("invariant"), out.ys("invariant")
    if len(rows) < 5:
        return [f"invariant run has only {len(rows)} points"]
    j1, pairs = j1_windows(real, xs, ys)
    for i, ki in enumerate(pairs):
        if abs(ki - pairs[0]) > K_TOL:
            return [f"pair {i}..{i + 1}: invariant {ki:.17g} != K {pairs[0]:.17g}"]
    order = 2 if raw["order"] == "Second" else 3
    f = F_BY_NAME[raw.get("F", "square")]
    for i in range(order, len(rows)):
        j1_here, err = j1[i - 2]
        tol = SAFETY * err
        col = rows[i].get("J1")
        if col is None or not abs(col - j1_here) <= tol:
            return [f"row {i}: J1 column {col} != recomputed {j1_here:.17g} (tol {tol:.1e})"]
        if order == 2:
            if not abs(j1_here - raw["C"]) <= tol:
                return [f"row {i}: J1 {j1_here:.17g} != C {raw['C']} (tol {tol:.1e})"]
            continue
        (j1a, erra), s = j1[i - 3], sum(pairs[i - 3:i])
        j2 = 3.0 * (j1_here - j1a) / s
        err2 = 3.0 * (err + erra) / s
        if real == "sl4":
            j2 += 6.0 * j1a * j1a + 3.0
            err2 += 12.0 * j1a * erra
        target = f(j1a)
        slope = abs(f(j1a + erra) - target) + abs(f(j1a - erra) - target)
        tol2 = SAFETY * (err2 + slope)
        if not abs(j2 - target) <= tol2:
            return [f"row {i}: J2 {j2:.17g} != F(J1) {target:.17g} (tol {tol2:.1e})"]
        col2 = rows[i].get("J2")
        if col2 is None or not abs(col2 - j2) <= SAFETY * err2:
            return [f"row {i}: J2 column {col2} != recomputed {j2:.17g}"]
    return []


def conic_tolerance(h: float) -> float:
    """Largest distance an order-2 invariant point may sit off its conic.

    The scheme's global error grows like h^2; the measured maximum after
    the longest runs here is about 0.3 h^2 (2.8e-5 at h = 0.01).
    """
    return h * h


def _on_conic(conic: Conic, xs, ys, tol: float, method: str) -> list[str]:
    for i, (x, y) in enumerate(zip(xs, ys)):
        d = conic.distance(x, y)
        if not d <= tol:
            return [f"{method} point {i} ({x:.17g}, {y:.17g}) is {d:.3e} off the conic (tol {tol:.1e})"]
    return []


def winding(conic: Conic, xs, ys) -> float:
    """Signed number of turns of the points around the conic's centre."""
    total = 0.0
    prev = math.atan2(ys[0] - conic.cy, xs[0] - conic.cx)
    for x, y in zip(xs[1:], ys[1:]):
        ang = math.atan2(y - conic.cy, x - conic.cx)
        d = ang - prev
        d -= 2.0 * math.pi * round(d / (2.0 * math.pi))
        total += d
        prev = ang
    return total / (2.0 * math.pi)


# An sl4 run that reverses at the vertex must then follow the branch down to
# this share of the vertex abscissa; the exact branch reaches x = 0.
BRANCH_END_SHARE = 0.1


def check_orbit(out: Output, raw: dict) -> list[str]:
    conic = conic_through(raw["realization"], raw["x0"], raw["y0"], raw["C"], raw["a"])
    xs, ys = out.xs("invariant"), out.ys("invariant")
    problems = _on_conic(conic, xs, ys, conic_tolerance(raw["h"]), "invariant")
    if conic.kind == "circle":
        turns = abs(winding(conic, xs, ys))
        if turns < 1.0:
            problems.append(f"orbit winds {turns:.3f} < 1 times around the centre")
        return problems
    top = max(range(len(xs)), key=xs.__getitem__)
    vertex = conic.tangent_x
    if abs(xs[top] - vertex) > 1e-3:
        problems.append(f"largest x {xs[top]:.6f} is not the vertex x = {vertex:.6f}")
    if any(b < a for a, b in zip(xs[:top], xs[1:top + 1])) or any(
        b > a for a, b in zip(xs[top:], xs[top + 1:])
    ):
        problems.append("x does not rise to the vertex and then fall")
    if xs[-1] > BRANCH_END_SHARE * vertex:
        problems.append(
            f"run stops at x = {xs[-1]:.4f} after the vertex, short of "
            f"{BRANCH_END_SHARE} * {vertex:.4f} on the branch towards x = 0"
        )
    return problems


# rk45 runs at rtol 1e-8 and holds a conic to about 1e-8 from a regular
# start.  From a start on a vertical tangent (the circles here, like fig1)
# the package nudges x0 by 1e-6 and the integrator leaves the steep start
# about 1.4e-3 off the circle, which it then carries along.
RK45_TOL = 1e-6
RK45_TOL_TANGENT_START = 5e-3
TANGENT_TOL = 1e-4


def check_sweep(out: Output, raw: dict) -> list[str]:
    conic = conic_through(raw["realization"], raw["x0"], raw["y0"], raw["C"], raw["a"])
    problems = _on_conic(
        conic, out.xs("invariant"), out.ys("invariant"), conic_tolerance(raw["h"]), "invariant"
    )
    xs, ys = out.xs("rk45"), out.ys("rk45")
    on_tangent = abs(raw["y0"] - conic.cy) <= 1e-12 * (1.0 + abs(conic.cy))
    problems += _on_conic(conic, xs, ys, RK45_TOL_TANGENT_START if on_tangent else RK45_TOL, "rk45")
    tangent = conic.tangent_x
    if abs(xs[-1] - tangent) > TANGENT_TOL:
        problems.append(f"rk45 halts at x = {xs[-1]:.9f}, not at the tangent x = {tangent:.6f}")
    fd_x = out.xs("standardFD")
    if fd_x[-1] >= tangent:
        problems.append(f"standardFD reaches x = {fd_x[-1]:.6f}, past the tangent {tangent:.6f}")
    return problems


# The invariant run must reach this far beyond every baseline halt: the
# paper's continuation claim.
CONTINUATION = 0.05


def baseline_halt(out: Output, method: str) -> float:
    entry = out.report["methods"][method]
    xs = out.xs(method)
    return max(xs[-1], entry["haltX"] if entry["haltX"] is not None else -math.inf)


def check_blowup(out: Output, raw: dict) -> list[str]:
    x_inv = max(out.xs("invariant"))
    problems = []
    for method in ("standardFD", "rk45"):
        halt = baseline_halt(out, method)
        if x_inv < halt + CONTINUATION:
            problems.append(
                f"invariant run reaches x = {x_inv:.4f}, not {CONTINUATION} past "
                f"the {method} halt at {halt:.4f}"
            )
    return problems


# -- checks against the order-3 reference curve --------------------------------

BOOTSTRAP_TOL = 1e-8


def blowup_tolerance(h: float) -> float:
    """Before the blow-up a first-order scheme stays within about h of the
    reference curve."""
    return h


# Points closer than this to the reference blow-up are not compared: the
# graph y(x) is too steep there for a vertical comparison to mean anything.
BLOWUP_GAP = 0.05
BLOWUP_TOL = 1e-3


@dataclass(frozen=True)
class ReferenceCase:
    """What the checks against the reference curve need from one output:
    the rk45 halt and the rising stretch of the invariant run, before its
    first reversal of x."""

    rk45_halt: float
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    h: float
    whole_run: bool


def reference_case(out: Output, raw: dict, whole_run: bool) -> ReferenceCase:
    xs, ys = out.xs("invariant"), out.ys("invariant")
    end = 1
    while end < len(xs) and xs[end] > xs[end - 1]:
        end += 1
    return ReferenceCase(out.xs("rk45")[-1], tuple(xs[:end]), tuple(ys[:end]), raw["h"], whole_run)


def check_against_reference(case: ReferenceCase, ref: dict) -> list[str]:
    """rk45 halts where the reference slope blows up; the bootstrap points
    lie on the reference curve, and with whole_run so does the run up to
    BLOWUP_GAP before the blow-up.  ref holds x_blowup and y(x) at the
    queried abscissae."""
    problems = []
    x_blow = ref["x_blowup"]
    if abs(case.rk45_halt - x_blow) > BLOWUP_TOL:
        problems.append(f"rk45 halts at {case.rk45_halt:.6f}, reference slope blows up at {x_blow:.6f}")
    n = len(case.xs) if case.whole_run else 3
    for i, (x, y) in enumerate(zip(case.xs[:n], case.ys[:n])):
        if x > x_blow - BLOWUP_GAP:
            break
        y_ref = ref["y"].get(repr(x))
        tol = BOOTSTRAP_TOL if i < 3 else blowup_tolerance(case.h)
        if y_ref is None or not abs(y - y_ref) <= tol:
            problems.append(f"invariant point {i} at x = {x:.9f}: y = {y:.12g}, reference {y_ref} (tol {tol:.0e})")
            break
    return problems


CHECKS = {"orbit": check_orbit, "sweep": check_sweep, "blowup": check_blowup}


def check_output(out: Output, raw: dict, kind: str) -> list[str]:
    problems = check_report(out, raw)
    if problems:
        return problems
    try:
        return check_invariant_csv(out, raw) + CHECKS[kind](out, raw)
    except (ArithmeticError, ValueError, KeyError, IndexError) as exc:
        return [f"output could not be checked: {exc!r}"]
