"""Property tests for the stream-preserving spellings and the energy ledger.

The library draws every scalar uniform as ``lo + (hi - lo) * rng.random()``
rather than ``rng.uniform(lo, hi)``: the same formula numpy evaluates, so the
same bits from the same stream. These tests pin that claim and two more
of the same kind: an index draw from a one-value range skips its generator
call without moving the stream, and the objective's ndarray.dot and cached
index vectors give the bits of `@` and a fresh np.arange. They also keep
repaired points inside the box under both boundary rules, check that random
reaction sequences conserve buffer + sum(PE + KE) and never overspend the
evaluation budget, and check ACRO's block-count success rule against a
literal sliding window of outcomes.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from croopt.algorithms import SuccessRule, draw_loss_rate
from croopt.benchmarks import FUNCTION_TABLE, evaluate_benchmark, make_instance
from croopt.core import Molecule, total_energy
from croopt.errors import BudgetExhausted
from croopt.operators import (
    BoundaryRule,
    _draw_index,
    apply_boundary,
    neighborhood_search,
)
from croopt.reactions import (
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

from helpers import (
    REFERENCE_BASES,
    ReferenceWindow,
    make_state,
    molecule,
    reference_evaluate,
    sphere_objective,
)

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
@given(seed=seeds, sequence=st.lists(
    st.one_of(st.tuples(st.just("index"), st.integers(min_value=1, max_value=64)), steps),
    min_size=1, max_size=40,
))
def test_draw_index_matches_generator_integers(seed, sequence):
    # A one-value range draws nothing, so skipping that call must leave the
    # bit generator exactly where integers(1) leaves it.
    skipping = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for kind, arg in sequence:
        if kind == "index":
            assert _draw_index(arg, skipping) == int(reference.integers(arg))
        elif kind == "uniform":
            lo, hi = arg
            assert bits(skipping.uniform(lo, hi)) == bits(reference.uniform(lo, hi))
        elif kind == "integers":
            assert skipping.integers(arg) == reference.integers(arg)
        elif kind == "normal":
            assert bits(skipping.normal(0.0, arg)) == bits(reference.normal(0.0, arg))
        else:
            size = arg or None
            assert np.array_equal(skipping.random(size), reference.random(size))
        assert skipping.bit_generator.state == reference.bit_generator.state


def test_draw_index_covers_every_range_up_to_64():
    skipping = np.random.default_rng(2024)
    reference = np.random.default_rng(2024)
    for n in range(1, 65):
        for rng in (skipping, reference):
            rng.random()
            rng.normal(0.0, 3.0)
            rng.integers(n + 1)
        assert _draw_index(n, skipping) == int(reference.integers(n))
        assert _draw_index(1, skipping) == int(reference.integers(1)) == 0
        assert skipping.bit_generator.state == reference.bit_generator.state


# One instance per (function, dimension): rotations up to 100x100 cost a QR.
_INSTANCES = {}


@SETTINGS
@given(
    func_id=st.sampled_from([fdef.id for fdef in FUNCTION_TABLE]),
    dim=st.integers(min_value=1, max_value=100),
    seed=seeds,
    spread=st.sampled_from([1.0, 100.0, 1e4]),
    stride=st.integers(min_value=1, max_value=3),
)
def test_objective_matches_reference_spellings(func_id, dim, seed, spread, stride):
    key = (func_id, dim)
    if key not in _INSTANCES:
        _INSTANCES[key] = make_instance(func_id, dim)
    inst = _INSTANCES[key]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-spread, spread, dim * stride)[::stride]
    assert x.flags.c_contiguous == (stride == 1 or dim == 1)
    with np.errstate(over="ignore"):
        assert bits(evaluate_benchmark(inst, x)) == bits(reference_evaluate(inst, x))
        # The base formulas on a strided vector too: evaluate_benchmark
        # hands them a fresh contiguous z for every function in the table.
        if inst.base in REFERENCE_BASES:
            assert bits(inst.base(x)) == bits(REFERENCE_BASES[inst.base](x))


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


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=7),
    p=st.floats(min_value=0.0, max_value=1.0),
    length=st.integers(min_value=0, max_value=300),
    seed=seeds,
)
def test_success_rule_matches_a_sliding_window(n, p, length, seed):
    # Success probabilities on both sides of the 2n-in-10n threshold, and
    # streams long enough to fill the window and slide it at every n <= 7.
    outcomes = (np.random.default_rng(seed).random(length) < p).tolist()
    rule = SuccessRule(n)
    reference = ReferenceWindow(n)
    state = make_state([molecule(np.zeros(2), 1.0, 0.0)])
    for improved in outcomes:
        before = state.step_size[0]
        rule.record(state, improved)
        after = state.step_size[0]
        decision = None if after == before else "grow" if after > before else "shrink"
        assert decision == reference.record(improved)
