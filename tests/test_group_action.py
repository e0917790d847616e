"""Group actions: closed forms vs the flow oracle and exact rationals.

The grid comparison with the flow and the invariance of the pair
invariants are acceptance criterion 06.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from invscheme import (
    DomainViolation,
    GroupElement,
    Point2,
    RealizationId,
    act,
    one_parameter,
)
from helpers import IDENTITY, compose, flow_oracle, random_group_element

SL3, SL4 = RealizationId.SL3, RealizationId.SL4


def test_identity_action():
    p = Point2(1.3, -0.7)
    assert act(IDENTITY, p, SL3) == p
    assert act(IDENTITY, p, SL4) == p


def test_translation_action():
    g = GroupElement(1.0, 0.25, 0.0, 1.0)
    for realization in (SL3, SL4):
        q = act(g, Point2(2.0, 5.0), realization)
        assert abs(q.x - 2.0) < 1e-15
        assert abs(q.y - 5.25) < 1e-15


def test_scaling_action():
    lam = 1.3
    g = GroupElement(lam, 0.0, 0.0, 1.0 / lam)
    q = act(g, Point2(1.0, 1.0), SL3)
    assert abs(q.x - lam * lam) < 1e-12
    assert abs(q.y - lam * lam) < 1e-12
    q = act(g, Point2(1.0, 2.0), SL4)
    assert abs(q.x - lam * lam) < 1e-12
    assert abs(q.y - 2.0 * lam * lam) < 1e-12


def test_scaling_matches_flow():
    """exp(t X2) with t = 2 ln(lambda) is the scaling map."""
    lam = 1.2
    t = 2.0 * math.log(lam)
    q = flow_oracle(RealizationId.SL3, 2, t, Point2(1.0, 1.0))
    assert abs(q.x - lam * lam) < 1e-10
    assert abs(q.y - lam * lam) < 1e-10


def test_x3_lower_triangular_parameter():
    """exp(t X3) corresponds to the (1,0,-t,1) matrix."""
    p = Point2(1.0, 0.0)
    for t in (0.05, -0.12, 0.3):
        q_flow = flow_oracle(RealizationId.SL3, 3, t, p)
        q_mat = act(one_parameter(3, t), p, SL3)
        assert abs(q_flow.x - q_mat.x) < 1e-8
        assert abs(q_flow.y - q_mat.y) < 1e-8


def test_flow_zero_time():
    p = Point2(1.7, 2.2)
    q = flow_oracle(RealizationId.SL4, 3, 0.0, p)
    assert abs(q.x - p.x) < 1e-12 and abs(q.y - p.y) < 1e-12


def test_flow_x1_translation():
    q = flow_oracle(RealizationId.SL3, 1, 0.4, Point2(1.0, 1.0))
    assert abs(q.x - 1.0) < 1e-10
    assert abs(q.y - 1.4) < 1e-10


def test_homomorphism():
    rng = np.random.default_rng(42)
    p0 = Point2(1.5, 0.5)
    checked = 0
    while checked < 50:
        g1 = random_group_element(rng, scale=0.2)
        g2 = random_group_element(rng, scale=0.2)
        for realization in (RealizationId.SL3, RealizationId.SL4):
            try:
                lhs = act(g1, act(g2, p0, realization), realization)
                rhs = act(compose(g1, g2), p0, realization)
            except DomainViolation:
                continue
            assert abs(lhs.x - rhs.x) < 1e-10 * (1 + abs(rhs.x))
            assert abs(lhs.y - rhs.y) < 1e-10 * (1 + abs(rhs.y))
            checked += 1


def test_random_group_element_determinism():
    a = random_group_element(np.random.default_rng(7), scale=0.5)
    b = random_group_element(np.random.default_rng(7), scale=0.5)
    assert (a.a, a.b, a.c, a.d) == (b.a, b.b, b.c, b.d)


def test_random_group_element_determinant():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        g = random_group_element(rng, scale=0.8)
        assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12


def _exact_image(g, p, sigma):
    """The Moebius image in exact rationals of the float inputs: x' = x (ad -
    bc) / N and y' = ((ay + b)(cy + d) + sigma (ax)(cx)) / N, or None off
    the domain (N <= 0)."""
    a, b, c, d = (Fraction(v) for v in (g.a, g.b, g.c, g.d))
    x, y = Fraction(p.x), Fraction(p.y)
    n = (c * y + d) ** 2 + sigma * (c * x) ** 2
    if n <= 0:
        return None
    return x * (a * d - b * c) / n, ((a * y + b) * (c * y + d) + sigma * (a * x) * (c * x)) / n


@pytest.mark.parametrize("realization", [SL3, SL4])
def test_action_matches_exact_rational_moebius_map(realization):
    """act is the sigma Moebius map to 1e-12 relative, with x drawn from
    1e-6 to 10: the x' numerator (ax)(cy + d) - (ay + b)(cx) is x itself
    in exact arithmetic, and its roundoff stays at 2e-14 on these draws
    (3.6e-13 over 20000 of them).  Computed in the light-cone coordinates
    y + x and y - x, sl4's x' loses up to 1.8e-8 here, as x cancels in
    their difference."""
    rng = np.random.default_rng(20260)
    worst_x = worst_y = 0.0
    checked = 0
    for _ in range(3000):
        g = random_group_element(rng, scale=0.3)
        p = Point2(10.0 ** rng.uniform(-6.0, 1.0), rng.uniform(-20.0, 20.0))
        exact = _exact_image(g, p, int(realization.sigma))
        try:
            q = act(g, p, realization)
        except DomainViolation:
            assert exact is None
            continue
        assert exact is not None
        worst_x = max(worst_x, float(abs(Fraction(q.x) - exact[0]) / exact[0]))
        worst_y = max(worst_y, float(abs(Fraction(q.y) - exact[1]) / (1 + abs(exact[1]))))
        checked += 1
    print(f"{realization.value}: {checked} draws, worst x {worst_x:.2e}, worst y {worst_y:.2e}")
    assert checked > 2500
    assert worst_x <= 1e-12 and worst_y <= 1e-12
