"""Group actions: closed forms vs the flow oracle, and invariance transfer."""

import math

import numpy as np
import pytest

from invscheme import (
    DomainViolation,
    GroupElement,
    Point2,
    RealizationId,
    act,
    disc_i1_sl3,
    disc_i1_sl4,
    flow_oracle,
    one_parameter,
)
from invscheme.group_action import IDENTITY, act_sl3, act_sl4, compose

from helpers import random_group_element


def test_identity_action():
    p = Point2(1.3, -0.7)
    assert act_sl3(IDENTITY, p) == p
    assert act_sl4(IDENTITY, p) == p


def test_translation_action():
    g = GroupElement(1.0, 0.25, 0.0, 1.0)
    for action in (act_sl3, act_sl4):
        q = action(g, Point2(2.0, 5.0))
        assert abs(q.x - 2.0) < 1e-15
        assert abs(q.y - 5.25) < 1e-15


def test_scaling_action():
    lam = 1.3
    g = GroupElement(lam, 0.0, 0.0, 1.0 / lam)
    q = act_sl3(g, Point2(1.0, 1.0))
    assert abs(q.x - lam * lam) < 1e-12
    assert abs(q.y - lam * lam) < 1e-12
    q = act_sl4(g, Point2(1.0, 2.0))
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
        q_mat = act_sl3(one_parameter(3, t), p)
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


@pytest.mark.parametrize("realization", [RealizationId.SL3, RealizationId.SL4])
@pytest.mark.parametrize("index", [1, 2, 3])
def test_closed_form_matches_flow_on_grid(realization, index):
    """One-parameter closed forms agree with flow integration to 1e-8
    on a 20-point grid per generator."""
    base = [
        Point2(0.5 + 0.35 * i, -1.5 + 0.45 * j)
        for i in range(5)
        for j in range(4)
    ]
    assert len(base) == 20
    for p in base:
        for t in (-0.3, 0.17):
            g = one_parameter(index, t)
            try:
                q_flow = flow_oracle(realization, index, t, p)
            except DomainViolation:
                continue
            q_mat = act(g, p, realization)
            assert abs(q_mat.x - q_flow.x) < 1e-8
            assert abs(q_mat.y - q_flow.y) < 1e-8


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


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def test_discrete_invariance_under_group():
    """All four discrete invariants survive 1000 random in-domain group
    actions to relative 1e-10."""
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 1000:
        g = random_group_element(rng, scale=0.25)
        xa, ya = rng.uniform(0.6, 2.5), rng.uniform(-1.5, 1.5)
        pa = Point2(xa, ya)
        pb = Point2(xa + rng.uniform(0.01, 0.3), ya + rng.uniform(0.01, 0.3))
        # steep secant keeps the sl4 radicand positive
        pc = Point2(pb.x + rng.uniform(0.01, 0.1), pb.y + rng.uniform(0.2, 0.5))
        try:
            qa3, qb3, qc3 = (act_sl3(g, p) for p in (pa, pb, pc))
            qa4, qb4, qc4 = (act_sl4(g, p) for p in (pa, pb, pc))
            vals = [
                (disc_i1_sl3(pa, pb), disc_i1_sl3(qa3, qb3)),
                (disc_i1_sl3(pa, pc), disc_i1_sl3(qa3, qc3)),
                (disc_i1_sl4(pb, pc), disc_i1_sl4(qb4, qc4)),
            ]
        except DomainViolation:
            continue
        for before, after in vals:
            assert _rel_close(before, after, 1e-10)
        trials += 1
