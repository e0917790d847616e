"""Test-only helpers shared by several test modules."""

import math

import numpy as np

from invscheme.group_action import GroupElement


def random_group_element(rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    """Random element near the identity, normalized to determinant one."""
    for _ in range(1000):
        a, b, c, d = (np.eye(2) + scale * rng.normal(size=(2, 2))).ravel()
        det = a * d - b * c
        if det > 0.01:
            s = 1.0 / math.sqrt(det)
            return GroupElement(float(a * s), float(b * s), float(c * s), float(d * s))
    raise RuntimeError("could not sample a positive-determinant element")
