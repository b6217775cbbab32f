"""Property tests for the stream-preserving spellings and the energy ledger.

The library draws every scalar uniform as ``lo + (hi - lo) * rng.random()``
rather than ``rng.uniform(lo, hi)``: the same formula numpy evaluates, so the
same bits from the same stream. These tests pin that claim, keep repaired
points inside the box under both boundary rules, and check that random
reaction sequences conserve buffer + sum(PE + KE) and never overspend the
evaluation budget.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from croopt.algorithms import draw_loss_rate
from croopt.core import Molecule, total_energy
from croopt.errors import BudgetExhausted
from croopt.operators import BoundaryRule, apply_boundary, neighborhood_search
from croopt.reactions import (
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

from helpers import make_state, sphere_objective

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
rules = st.sampled_from([BoundaryRule.BP, BoundaryRule.HP])
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def bits(x):
    return struct.pack("<d", float(x))


@st.composite
def intervals(draw):
    """Finite lo < hi with a finite width, as Python floats or numpy scalars."""
    lo, hi = sorted((draw(finite), draw(finite)))
    assume(lo < hi)
    if draw(st.booleans()):
        lo, hi = np.float64(lo), np.float64(hi)
    return lo, hi


# One step of an interleaved call sequence: a scalar uniform, or one of the
# other draws the library makes between uniforms.
steps = st.one_of(
    st.tuples(st.just("uniform"), intervals()),
    st.tuples(st.just("integers"), st.integers(min_value=1, max_value=50)),
    st.tuples(st.just("normal"), st.floats(min_value=1e-6, max_value=1e3)),
    st.tuples(st.just("random"), st.integers(min_value=0, max_value=4)),
)


@SETTINGS
@given(seed=seeds, sequence=st.lists(steps, min_size=1, max_size=30))
def test_uniform_formula_matches_generator_bit_for_bit(seed, sequence):
    formula = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for kind, arg in sequence:
        if kind == "uniform":
            lo, hi = arg
            assert bits(lo + (hi - lo) * formula.random()) == bits(reference.uniform(lo, hi))
        elif kind == "integers":
            assert formula.integers(arg) == reference.integers(arg)
        elif kind == "normal":
            assert bits(formula.normal(0.0, arg)) == bits(reference.normal(0.0, arg))
        else:
            size = arg or None
            assert np.array_equal(formula.random(size), reference.random(size))


@SETTINGS
@given(seed=seeds, box=intervals(), value=finite, rule=rules)
def test_apply_boundary_lands_in_the_box(seed, box, value, rule):
    lo, hi = box
    rng = np.random.default_rng(seed)
    repaired = apply_boundary(value, lo, hi, rule, rng)
    assert isinstance(repaired, float)
    assert lo <= repaired <= hi
    if lo <= value <= hi:
        assert repaired == value


@st.composite
def search_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    bound = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    lower, upper = [], []
    for _ in range(dim):
        lo, hi = sorted((draw(bound), draw(bound)))
        assume(lo < hi)
        lower.append(lo)
        upper.append(hi)
    lower, upper = np.array(lower), np.array(upper)
    fractions = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                       min_size=dim, max_size=dim)))
    s = np.clip(lower + (upper - lower) * fractions, lower, upper)
    step = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=1e7),
                                  min_size=dim, max_size=dim)))
    return s, step, lower, upper


@SETTINGS
@given(seed=seeds, case=search_cases(), rule=rules)
def test_neighborhood_search_stays_in_the_box(seed, case, rule):
    s, step, lower, upper = case
    original = s.copy()
    out = neighborhood_search(s, step, lower, upper, rule, np.random.default_rng(seed))
    assert np.array_equal(s, original)
    assert np.all(lower <= out) and np.all(out <= upper)
    assert int(np.sum(out != s)) <= 1


# Reaction sequences --------------------------------------------------------

REACTIONS = ("on-wall", "decomposition", "inter-molecular", "synthesis")
COST = {"on-wall": 1, "decomposition": 2, "inter-molecular": 2, "synthesis": 1}


def _react(kind, state, spec, picks, rng):
    n = len(state.population)
    i = picks % n
    j = (i + 1 + (picks // n) % (n - 1)) % n if n > 1 else i
    if kind == "on-wall":
        return on_wall_collision(state, spec, i, rng)
    if kind == "decomposition":
        return decomposition(state, spec, i, rng)
    if kind == "inter-molecular":
        return intermolecular_collision(state, spec, i, j, rng)
    return synthesis(state, spec, i, j, rng)


@SETTINGS
@given(
    seed=seeds,
    budget=st.integers(min_value=3, max_value=60),
    rule=rules,
    sequence=st.lists(
        st.tuples(st.sampled_from(REACTIONS), st.integers(min_value=0, max_value=10**6)),
        min_size=1,
        max_size=40,
    ),
)
def test_reaction_sequences_conserve_energy_within_budget(seed, budget, rule, sequence):
    rng = np.random.default_rng(seed)
    spec = sphere_objective(3, bound=5.0)
    molecules = []
    for _ in range(3):
        structure = rng.uniform(spec.lower, spec.upper)
        ke = rng.uniform(0.0, 100.0) if rng.random() < 0.7 else 0.0
        molecules.append(
            Molecule.fresh(structure, spec.evaluate(structure), ke, draw_loss_rate(rng))
        )
    state = make_state(molecules, buffer=rng.uniform(0.0, 100.0), step=2.0,
                       max_fes=budget, boundary=rule, child_loss_rate=draw_loss_rate)
    before = total_energy(state)
    for kind, picks in sequence:
        if kind in ("inter-molecular", "synthesis") and len(state.population) < 2:
            continue
        remaining = budget - state.fe_count
        if COST[kind] > remaining:
            with pytest.raises(BudgetExhausted):
                _react(kind, state, spec, picks, rng)
        else:
            _react(kind, state, spec, picks, rng)
        assert state.fe_count <= budget
        after = total_energy(state)
        assert math.isclose(after, before, rel_tol=1e-9, abs_tol=1e-9)
        before = after
