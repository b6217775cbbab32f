"""Structure operators used inside elementary reactions.

All operators are pure: they never mutate their input vectors and draw
randomness only from the generator they are handed, so callers own the
random stream. They trust their inputs: every structure is a float64 vector
of the problem's length, as it is throughout a run.
"""

from __future__ import annotations

import ctypes
from enum import Enum
from functools import cache, partial

import numpy as np


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
    for i in np.flatnonzero((values < lower) | (values > upper)):
        values[i] = apply_boundary(values[i], lower[i], upper[i], rule, rng)
    return values


def _draw_index(n, rng):
    """A uniform index below ``n``, as ``int(rng.integers(n))`` gives it.

    ``integers(1)`` returns 0 without advancing the bit generator, so a
    one-value range skips the call and keeps the stream bit for bit. ``n`` is
    a population size or a dimension, so the call gets a Python int
    2 <= n < 2**32: the only range ``_BitDraws.integers`` accepts.
    """
    return int(rng.integers(n)) if n > 1 else 0


@cache
def _standard_normal():
    """numpy's C ``random_standard_normal``, loaded as its cffi example does."""
    from numpy.random import _generator

    draw = ctypes.CDLL(_generator.__file__).random_standard_normal
    draw.restype = ctypes.c_double
    return draw


class _BitDraws:
    """An exact ``np.random.Generator`` with cheaper scalar draws, same bits.

    Scalar ``random()``, ``integers(n)`` (2 <= n < 2**32) and ``normal(0.0, s)``
    (float s > 0) replay numpy's C routines on the bit generator's ``ctypes``
    interface: the unit double, Lemire's ``buffered_bounded_lemire_uint32`` on
    ``next_uint32``, and ``random_normal``. Other draws and their errors are the
    generator's own. The replay skips ``Generator.lock``: a run owns its generator.
    """

    def __init__(self, rng):
        ct = rng.bit_generator.ctypes
        self._rng = rng  # keeps the state behind ct.state_address alive
        self._next_double = partial(ct.next_double, ct.state_address)
        self._next_uint32 = partial(ct.next_uint32, ct.state_address)
        self._standard_normal = partial(_standard_normal(), ct.bit_generator)
        self.uniform = rng.uniform

    def random(self, size=None):
        return self._next_double() if size is None else self._rng.random(size)

    def normal(self, loc, scale):
        # A zero loc is exact under FMA contraction too; numpy rejects -0.0.
        if type(scale) is float and scale > 0.0 and type(loc) is float and loc == 0.0:
            return loc + scale * self._standard_normal()
        return self._rng.normal(loc, scale)

    def integers(self, n):
        m = self._next_uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32() * n
        return m >> 32


def neighborhood_search(s, step_size, lower, upper, rule, rng):
    """Perturb exactly one uniformly chosen element by a zero-mean Gaussian.

    The Gaussian standard deviation is the step size of the chosen element.
    Draw order: element index, Gaussian offset, then any boundary repair.
    """
    out = s.copy()
    i = _draw_index(out.shape[0], rng)
    value = out.item(i) + rng.normal(0.0, step_size.item(i))
    lo, hi = lower.item(i), upper.item(i)
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
        child = s.copy()
        mask = rng.random(child.shape[0]) < 0.5
        deltas = rng.normal(0.0, step_size)
        child[mask] += deltas[mask]
        children.append(_repair(child, lower, upper, rule, rng))
    return children[0], children[1]


def synthesize_structure(a, b, rule, lower, upper, rng, boundary_rule):
    """Combine two parent vectors into one child.

    PROBABILISTIC_SELECT takes each element from either parent with equal
    probability. BLX05 samples each element uniformly from the parent
    interval widened by half its width on both sides, then repairs bounds
    with ``boundary_rule`` (the blend interval can leave the box near walls).
    """
    if rule is SynthesisRule.PROBABILISTIC_SELECT:
        mask = rng.random(a.shape[0]) < 0.5
        return np.where(mask, a, b)
    spread = 0.5 * np.abs(a - b)
    child = rng.uniform(np.minimum(a, b) - spread, np.maximum(a, b) + spread)
    return _repair(child, lower, upper, boundary_rule, rng)
