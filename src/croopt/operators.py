"""Structure operators used inside elementary reactions.

All operators are pure: they never mutate their input vectors and draw
randomness only from the generator they are handed, so callers own the
random stream.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch


class BoundaryRule(Enum):
    """How out-of-bounds elements are repaired."""

    BP = "BP"  # re-sample the violating element uniformly inside the box
    HP = "HP"  # 50% clamp to the violated bound, 50% uniform re-sample


class SynthesisRule(Enum):
    """Which crossover a synthesis reaction applies."""

    PROBABILISTIC_SELECT = "probabilistic-select"
    BLX05 = "blx-0.5"


def apply_boundary(value, lower, upper, rule, rng):
    """Repair a single out-of-bounds value; in-bounds values pass through.

    Draw order for out-of-bounds input: BP re-samples the value as
    ``lower + (upper - lower) * rng.random()``; HP first draws the clamp coin
    with ``rng.random()``, then re-samples the same way only when the coin
    misses. The re-sample is the formula ``Generator.uniform(lower, upper)``
    evaluates, so it gives the same bits from the same stream, at a fraction
    of the call cost.
    """
    if lower <= value <= upper:
        return float(value)
    if rule is BoundaryRule.HP:
        if rng.random() < 0.5:
            return float(upper if value > upper else lower)
    return float(lower + (upper - lower) * rng.random())


def _repair(values, lower, upper, rule, rng):
    # In-place repair of a fresh vector; violating indices fixed in ascending
    # order so the draw sequence is reproducible.
    low = values < lower
    high = values > upper
    if not (low.any() or high.any()):
        return values
    for i in np.nonzero(low | high)[0]:
        values[i] = apply_boundary(values[i], lower[i], upper[i], rule, rng)
    return values


def neighborhood_search(s, step_size, lower, upper, rule, rng):
    """Perturb exactly one uniformly chosen element by a zero-mean Gaussian.

    The Gaussian standard deviation is the step size of the chosen element.
    Draw order: element index, Gaussian offset, then any boundary repair.
    """
    out = np.array(s, dtype=float)
    i = int(rng.integers(len(out)))
    value = out.item(i) + rng.normal(0.0, step_size[i])
    lo, hi = lower[i], upper[i]
    if not lo <= value <= hi:
        value = apply_boundary(value, lo, hi, rule, rng)
    out[i] = value
    return out


def decompose_structure(s, step_size, lower, upper, rule, rng):
    """Produce two vigorously perturbed copies of ``s``.

    Each child independently perturbs every element with probability 0.5 by a
    zero-mean Gaussian with that element's step size. Draw order per child:
    the selection mask, a full vector of Gaussian offsets, then repairs.
    """
    children = []
    for _ in range(2):
        child = np.array(s, dtype=float)
        mask = rng.random(child.shape[0]) < 0.5
        deltas = rng.normal(0.0, step_size)
        child[mask] += deltas[mask]
        children.append(_repair(child, lower, upper, rule, rng))
    return children[0], children[1]


def synthesize_structure(a, b, rule, lower, upper, rng, boundary_rule=BoundaryRule.BP):
    """Combine two parent vectors into one child.

    PROBABILISTIC_SELECT takes each element from either parent with equal
    probability. BLX05 samples each element uniformly from the parent
    interval widened by half its width on both sides, then repairs bounds
    with ``boundary_rule`` (the blend interval can leave the box near walls).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"parent lengths differ: {a.shape} vs {b.shape}")
    if rule is SynthesisRule.PROBABILISTIC_SELECT:
        mask = rng.random(a.shape[0]) < 0.5
        return np.where(mask, a, b)
    spread = 0.5 * np.abs(a - b)
    child = rng.uniform(np.minimum(a, b) - spread, np.maximum(a, b) + spread)
    return _repair(child, lower, upper, boundary_rule, rng)
