"""Seeded inputs of the benchmark's three workloads.

A workload is a list of experiments.  Each experiment is a flat config,
exactly what `invscheme.config_from_raw` accepts, plus the check that its
output must pass.  The same seed gives the same configs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALL_METHODS = ["invariant", "standardFD", "rk45"]


@dataclass(frozen=True)
class Experiment:
    raw: dict
    kind: str  # which check applies: "orbit", "blowup" or "sweep"
    known_fault: bool = False  # fails its check every time today
    whole_run_on_reference: bool = False  # order 3: compare the run, not only its bootstrap

    @property
    def name(self) -> str:
        return self.raw["name"]


def _circle(rng: random.Random, leftmost: bool) -> dict:
    """A circle solution of I1 = C around fig1's (centre (2, 8), r = 1)."""
    c = rng.uniform(1.7, 2.3)
    a = rng.uniform(0.9, 1.1)
    cx, r, cy = c / a, 1.0 / a, rng.uniform(6.0, 10.0)
    if leftmost:
        # Exactly on the vertical tangent in the fit's own arithmetic, so
        # that rounding cannot put the start on the lower half.
        x0 = cx - r
        while r * r - (x0 - cx) ** 2 > 0.0:
            x0 = math.nextafter(x0, -math.inf)
        return {"realization": "sl3", "order": "Second", "C": c, "a": a, "x0": x0, "y0": cy}
    # On the lower half, which is where the package's fit puts (x0, y0).
    theta = rng.uniform(math.pi, 1.25 * math.pi)
    return {
        "realization": "sl3", "order": "Second", "C": c, "a": a,
        "x0": cx + r * math.cos(theta), "y0": cy + r * math.sin(theta),
    }


def _hyperbola(rng: random.Random, spread: float = 1.0) -> dict:
    """A left-branch hyperbola solution of I1 = C around fig3's (vertex
    x = 4).  Its run ends near x = 0 after a number of steps that moves
    with the data, so orbit2 draws from half the range to keep its step
    count steady."""
    return {
        "realization": "sl4", "order": "Second",
        "C": 5.0 + spread * rng.uniform(-0.4, 0.4), "a": 1.0 + spread * rng.uniform(-0.1, 0.1),
        "x0": 2.0 + spread * rng.uniform(-0.4, 0.4), "y0": rng.uniform(3.0, 7.0),
    }


# Steps once around a circle: the chord at abscissa x is about K x with
# K ~ h / x0, so a turn takes 2 pi r x0 / (h sqrt(cx^2 - r^2)) steps, which
# over the ranges above is at most 5.0 / h.  The step budgets below give
# every seed at least the turns named, and a run that never halts always
# takes exactly its budget.
ORBIT_LADDER = ((0.01, 2000), (0.005, 2000), (0.0025, 2600))  # >= 4, 2, 1.3 turns


FIG3 = {"realization": "sl4", "order": "Second", "x0": 2.0, "y0": 5.0, "C": 5.0, "a": 1.0}
FIG2 = {"realization": "sl3", "order": "Third", "x0": 1.0, "y0": 1.0, "yp0": 1.0, "ypp0": 3.0}
FIG4 = {"realization": "sl4", "order": "Third", "x0": 2.0, "y0": 1.0, "yp0": -1.5, "ypp0": -1.5}


def orbit2(seed: int) -> list[Experiment]:
    """Long order-2 invariant runs: circles that wind around their centre
    and hyperbolas that cross their vertex, over a mesh ladder."""
    rng = random.Random(f"orbit2:{seed}")
    exps = []
    for h, steps in ORBIT_LADDER:
        ic = _circle(rng, leftmost=False)
        exps.append(Experiment(dict(ic, h=h, maxSteps=steps, methods=["invariant"]), "orbit"))
    for h in (0.01, 0.005):
        ic = _hyperbola(rng, spread=0.5)
        exps.append(Experiment(dict(ic, h=h, maxSteps=20000, methods=["invariant"]), "orbit"))
    # fig3 itself on the finer meshes, where the run halts short of x = 0.
    for h in (0.0025, 0.002):
        exps.append(Experiment(
            dict(FIG3, h=h, maxSteps=20000, methods=["invariant"]), "orbit", known_fault=True,
        ))
    return _named("orbit2", exps)


# Perturbed runs stop at this budget, well past both baseline halts and
# before their own halts (which move with the data), so the step count of
# a pass does not depend on the seed.
PERTURBED_STEPS = 160


def blowup3(seed: int) -> list[Experiment]:
    """Order-3 runs through the first-derivative blow-up, all three methods.

    The perturbations stay narrow: farther from fig2/fig4 some initial
    data turn back before the rk45 halt (yp0 = 0.7207, ypp0 = 2.7427 on
    fig2's curve does, at x = 1.258), and the continuation check would
    then fail for a reason that is not a fault.  The whole run before the
    blow-up is compared with the reference on the fixed fig2/fig4 data;
    on fig2 it strays about 0.11 from it at both meshes today.
    """
    rng = random.Random(f"blowup3:{seed}")
    exps = []
    for fig in (FIG2, FIG4):
        for h in (0.01, 0.005):
            exps.append(Experiment(
                dict(fig, h=h, methods=ALL_METHODS), "blowup",
                known_fault=fig is FIG2, whole_run_on_reference=True,
            ))
        for _ in range(2):
            ic = dict(fig)
            ic["yp0"] *= 1.0 + rng.uniform(-0.02, 0.02)
            ic["ypp0"] *= 1.0 + rng.uniform(-0.04, 0.04)
            exps.append(Experiment(
                dict(ic, h=0.01, maxSteps=PERTURBED_STEPS, methods=ALL_METHODS), "blowup",
            ))
    return _named("blowup3", exps)


SWEEP_SIZE = 32
SWEEP_STEPS = 40


def sweep2(seed: int) -> list[Experiment]:
    """Many short order-2 experiments with all three methods.

    Circles start at their leftmost point, like fig1: elsewhere the
    package's fit and the baselines' equation I1 = +C disagree on the
    branch, and rk45 leaves the fitted circle.
    """
    rng = random.Random(f"sweep2:{seed}")
    exps = []
    for i in range(SWEEP_SIZE):
        ic = _circle(rng, leftmost=True) if i % 2 == 0 else _hyperbola(rng)
        tangent = (ic["C"] + (1.0 if i % 2 == 0 else -1.0)) / ic["a"]
        exps.append(Experiment(dict(
            ic, h=0.01, maxSteps=SWEEP_STEPS, xWindow=[0.0, tangent + 1.0], methods=ALL_METHODS,
        ), "sweep"))
    return _named("sweep2", exps)


def _named(workload: str, exps: list[Experiment]) -> list[Experiment]:
    for i, e in enumerate(exps):
        e.raw["name"] = f"{workload}-{i:02d}"
    return exps


WORKLOADS = {"orbit2": orbit2, "blowup3": blowup3, "sweep2": sweep2}
