"""Property tests for the stream-preserving spellings and the energy ledger.

The library draws every scalar uniform as ``lo + (hi - lo) * rng.random()``
rather than ``rng.uniform(lo, hi)``: the same formula numpy evaluates, so the
same bits from the same stream. These tests pin that claim and three more
of the same kind: an index draw from a one-value range skips its generator
call without moving the stream, a run's scalar draws replayed on the bit
generator give the values and state of the Generator's own methods (and
its errors), the objective's ndarray.dot and cached index vectors give the
bits of `@` and a fresh np.arange, the run's bound objective gives the bits
of evaluate_benchmark, the batched objective gives every row the bits of
that row's own evaluation, and u_penalty's early return gives the bits of
its full formula. They also keep repaired points inside the box under both
boundary rules, check that random reaction sequences conserve buffer +
sum(PE + KE), check that the run loop meets every reaction's preconditions
(budget, indices, population size) and spends its budget exactly, and check
ACRO's block-count success rule against a literal sliding window of outcomes.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from croopt import algorithms
from croopt.algorithms import ACROConfig, CROConfig, SuccessRule, Variant, draw_loss_rate
from croopt.benchmarks import (
    FUNCTION_TABLE,
    as_objective,
    evaluate_batch,
    evaluate_benchmark,
    make_instance,
    u_penalty,
)
from croopt.core import Molecule, total_energy
from croopt.operators import (
    BoundaryRule,
    _BitDraws,
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
    react,
    reference_evaluate,
    reference_u_penalty,
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


# The (loc, scale) of a normal draw: the library's zero loc and positive
# scalar scales, and around them what the replay must leave to numpy: other
# locs, a zero, signed-zero, infinite or NaN scale, a vector scale (as
# decomposition draws), and negative scales, which numpy rejects.
normal_args = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
    st.one_of(
        st.floats(min_value=0.0, max_value=1e300),
        st.sampled_from([0.0, 5e-324, 1e300, -0.0, math.inf, math.nan]),
        st.floats(max_value=-5e-324, allow_infinity=False),
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=5).map(np.array),
    ),
)

# Every kind of normal call above, each followed by two replayed draws.
NORMAL_EDGES = [
    step
    for args in [(0.0, 0.3), (0.0, 0.0), (0.0, 5e-324), (0.0, 1e300), (2.5, 0.3),
                 (0.0, -0.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                 (0.0, np.array([0.5, 0.0, 2.0]))]
    for step in [("normal", args), ("random", 0), ("integers", 7)]
]

# One step of an interleaved call sequence: a scalar uniform, or one of the
# other draws the library makes between uniforms. ``float_steps`` leaves out
# ``integers``, for tests that pick their own index ranges.
float_steps = st.one_of(
    st.tuples(st.just("uniform"), intervals()),
    st.tuples(st.just("normal"), normal_args),
    st.tuples(st.just("random"), st.integers(min_value=0, max_value=4)),
)
steps = st.one_of(
    float_steps,
    st.tuples(st.just("integers"), st.integers(min_value=1, max_value=50)),
)


def assert_same_normal(draws, reference, loc, scale):
    """``draws.normal`` gives the value of ``reference.normal``, or its error."""
    try:
        expected = reference.normal(loc, scale)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            draws.normal(loc, scale)
        assert str(raised.value) == str(exc)
        return
    value = draws.normal(loc, scale)
    assert type(value) is type(expected)
    assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


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
            assert_same_normal(formula, reference, *arg)
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
            assert_same_normal(skipping, reference, *arg)
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


def same_state(a, b):
    """Equal bit generator states; MT19937's holds an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


# The runs draw small index ranges. For n <= 64 Lemire's rejection loop runs
# with probability below 2**-26 per draw, so the replay's loop and threshold
# are tested by ranges in [2**31, 2**32): at n = 2**31 + 1 the loop runs about
# half the time, and n = 2**31 has a zero threshold. The replay takes only
# 2 <= n < 2**32, the ranges _draw_index asks for.
replay_ranges = st.one_of(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=2**31, max_value=2**32 - 1),
    st.sampled_from([2, 2**31, 2**31 + 1, 2**32 - 1]),
)


@SETTINGS
@given(
    bit_generator=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM,
                                   np.random.MT19937, np.random.Philox,
                                   np.random.SFC64]),
    seed=seeds,
    sequence=st.lists(st.one_of(st.tuples(st.just("integers"), replay_ranges),
                                float_steps),
                      min_size=1, max_size=40),
)
@example(bit_generator=np.random.PCG64, seed=0,
         sequence=[("integers", 2**31), ("integers", 2**31 + 1)] * 16)
@example(bit_generator=np.random.PCG64, seed=1, sequence=NORMAL_EDGES)
@example(bit_generator=np.random.PCG64DXSM, seed=2, sequence=NORMAL_EDGES)
@example(bit_generator=np.random.MT19937, seed=3, sequence=NORMAL_EDGES)
@example(bit_generator=np.random.Philox, seed=4, sequence=NORMAL_EDGES)
@example(bit_generator=np.random.SFC64, seed=5, sequence=NORMAL_EDGES)
def test_bit_draws_replay_the_generator_exactly(bit_generator, seed, sequence):
    replayed = np.random.Generator(bit_generator(seed))
    reference = np.random.Generator(bit_generator(seed))
    draws = _BitDraws(replayed)
    for kind, arg in sequence:
        if kind == "integers":
            assert draws.integers(arg) == reference.integers(arg)
        elif kind == "uniform":
            lo, hi = arg
            assert bits(draws.uniform(lo, hi)) == bits(reference.uniform(lo, hi))
        elif kind == "normal":
            assert_same_normal(draws, reference, *arg)
        elif arg:
            assert draws.random(arg).tobytes() == reference.random(arg).tobytes()
        else:
            assert bits(draws.random()) == bits(reference.random())
        assert same_state(replayed.bit_generator.state, reference.bit_generator.state)


# One instance per (function, dimension): rotations up to 100x100 cost a QR.
_INSTANCES = {}


@SETTINGS
@given(
    func_id=st.sampled_from([fdef.id for fdef in FUNCTION_TABLE]),
    dim=st.integers(min_value=1, max_value=100),
    seed=seeds,
    spread=st.sampled_from([1.0, 100.0, 1e4]),
    stride=st.integers(min_value=1, max_value=3),
    centred=st.booleans(),
)
def test_objective_matches_reference_spellings(func_id, dim, seed, spread, stride, centred):
    key = (func_id, dim)
    if key not in _INSTANCES:
        _INSTANCES[key] = make_instance(func_id, dim)
    inst = _INSTANCES[key]
    rng = np.random.default_rng(seed)
    # Centred points lie around the shift, inside f21-f24's penalty box.
    centre = np.repeat(inst.transform.shift, stride) if centred else 0.0
    x = (rng.uniform(-spread, spread, dim * stride) + centre)[::stride]
    assert x.flags.c_contiguous == (stride == 1 or dim == 1)
    with np.errstate(over="ignore"):
        assert bits(evaluate_benchmark(inst, x)) == bits(reference_evaluate(inst, x))
        # The run's bound evaluate, on a contiguous vector as the run hands it.
        evaluate = as_objective(inst).evaluate
        assert bits(evaluate(np.ascontiguousarray(x))) == bits(evaluate_benchmark(inst, x))
        # u_penalty's early return gives the full formula's bits inside,
        # exactly on and just outside [-a, a], and its NaN.
        a = 5.0 if func_id % 2 else 10.0
        z = np.clip(x, -a, a)
        outside = np.nextafter(a, math.inf)
        for edge in (z[0], a, -a, outside, -outside, math.nan):
            z[seed % dim] = edge
            assert bits(u_penalty(z, a)) == bits(reference_u_penalty(z, a))
        # The base formulas on a strided vector too: evaluate_benchmark
        # hands them a fresh contiguous z for every function in the table.
        if inst.base in REFERENCE_BASES:
            assert bits(inst.base(x)) == bits(REFERENCE_BASES[inst.base](x))


@pytest.mark.parametrize("func_id", [fdef.id for fdef in FUNCTION_TABLE],
                         ids=lambda func_id: f"f{func_id}")
@settings(SETTINGS, max_examples=40)
@given(
    dim=st.integers(min_value=1, max_value=50),
    rows=st.lists(st.sampled_from(["inside", "on", "outside", "anywhere"]),
                  min_size=1, max_size=64),
    seed=seeds,
)
@example(dim=1, rows=["inside"], seed=0)
@example(dim=50, rows=["on"] * 64, seed=1)
@example(dim=10, rows=["inside", "on", "outside", "anywhere"] * 1024, seed=2)
def test_batch_evaluation_gives_every_row_its_own_bits(func_id, dim, rows, seed):
    # Rows are built in z-space around u_penalty's box [-a, a] (f21/f22 use
    # a = 5, f23/f24 a = 10): inside it, with an element on its edge (up to
    # the rounding of the inverse transform), or with one beyond it; or
    # anywhere in the search box. A batch of inside rows takes u_penalty's
    # early return, a mixed one its formula. Some spellings part in the
    # last bit for about 0.1% of inputs only (a numpy scalar's ** calls
    # pow(), an array's ** multiplies), which the 4096-row example shows.
    key = (func_id, dim)
    if key not in _INSTANCES:
        _INSTANCES[key] = make_instance(func_id, dim)
    inst = _INSTANCES[key]
    transform = inst.transform
    rng = np.random.default_rng(seed)
    a = 5.0 if func_id in (21, 22) else 10.0
    points = []
    for kind in rows:
        if kind == "anywhere":
            points.append(rng.uniform(-100.0, 100.0, dim))
            continue
        z = rng.uniform(-a, a, dim)
        if kind != "inside":
            edge = a if kind == "on" else a * rng.uniform(1.0, 4.0)
            z[rng.integers(dim)] = edge * rng.choice([-1.0, 1.0])
        points.append(transform.rotation.T @ (z / transform.scale) + transform.shift)
    batch = np.array(points)
    values = evaluate_batch(inst, batch)
    assert values.shape == (len(rows),)
    for value, x in zip(values, batch):
        assert bits(value) == bits(evaluate_benchmark(inst, x))


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
        return react(on_wall_collision, state, spec, i, rng)
    if kind == "decomposition":
        return react(decomposition, state, spec, i, rng)
    if kind == "inter-molecular":
        return react(intermolecular_collision, state, spec, i, j, rng)
    return react(synthesis, state, spec, i, j, rng)


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
                       boundary=rule, child_loss_rate=draw_loss_rate)
    before = total_energy(state)
    for kind, picks in sequence:
        # Skipped as the run loop never calls them: a pair reaction on a lone
        # molecule, or a reaction costing more evaluations than remain.
        if kind in ("inter-molecular", "synthesis") and len(state.population) < 2:
            continue
        spent = state.fe_count
        if COST[kind] > budget - spent:
            continue
        _react(kind, state, spec, picks, rng)
        assert state.fe_count == spent + COST[kind]
        after = total_energy(state)
        assert math.isclose(after, before, rel_tol=1e-9, abs_tol=1e-9)
        before = after


# The run loop's contract ---------------------------------------------------

#: Each reaction the loop calls, by its name in croopt.algorithms, with its
#: cost in evaluations. The reactions trust the loop for their budget and
#: their molecules; the wrappers from _checked assert that the trust holds.
LOOP_REACTIONS = {
    "on_wall_collision": 1,
    "decomposition": 2,
    "intermolecular_collision": 2,
    "synthesis": 1,
}


def _checked(reaction, cost, max_fes):
    # The loop calls the settle half once it has charged every trial
    # structure, so the budget must still hold after that charge.
    def call(state, indices, trials, pes, rng):
        size = len(state.population)
        assert len(trials) == len(pes) == cost, f"{len(pes)} PEs for a cost of {cost}"
        assert state.fe_count <= max_fes, "reaction cost more than remained"
        assert all(0 <= i < size for i in indices), f"index out of {size}: {indices}"
        if len(indices) == 2:
            assert indices[0] != indices[1], f"pair of one molecule: {indices}"
            assert size >= 2
        return reaction(state, indices, trials, pes, rng)
    return call


@st.composite
def loop_configs(draw):
    """Small runs of every variant that choose pair reactions often."""
    variant = draw(st.sampled_from(list(Variant)))
    pop = draw(st.integers(min_value=1, max_value=6))
    budget = pop + draw(st.integers(min_value=0, max_value=80))
    if variant.adaptive:
        change_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
        return ACROConfig(variant=variant, ini_pop_size=pop, change_rate=change_rate,
                          max_fes=budget)
    # dec_thres 0 decomposes any molecule hit since its own best; syn_thres
    # 1e300 merges every pair that collides; adapt_interval 7 lets CRO/D
    # decay its step within these short runs.
    dec_thres, syn_thres = draw(st.sampled_from([(0.0, 1e300), (0.0, 10.0), (1.5e5, 1e300)]))
    return CROConfig(variant=variant, ini_pop_size=pop, dec_thres=dec_thres,
                     syn_thres=syn_thres, adapt_interval=7, max_fes=budget)


@SETTINGS
@given(seed=seeds, dim=st.integers(min_value=1, max_value=4), cfg=loop_configs())
def test_run_loop_meets_every_reaction_precondition(seed, dim, cfg):
    run = algorithms.run_acro if cfg.variant.adaptive else algorithms.run_cro
    with pytest.MonkeyPatch.context() as patch:
        for name, cost in LOOP_REACTIONS.items():
            reaction = getattr(algorithms, name)
            patch.setattr(algorithms, name, _checked(reaction, cost, cfg.max_fes))
        result = run(sphere_objective(dim, bound=5.0), cfg, np.random.default_rng(seed))
    assert result.fe_count == result.state.fe_count == cfg.max_fes


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
