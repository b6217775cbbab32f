import numpy as np
import pytest

from croopt.algorithms import draw_loss_rate
from croopt.core import ObjectiveSpec
from croopt.reactions import (
    ReactionKind,
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

from helpers import (
    ScriptedRNG,
    box_bounds,
    collect_conserved,
    const_objective,
    make_state,
    molecule,
    queue_objective,
    sphere_objective,
)


def test_on_wall_failure_when_trial_exceeds_tolerance():
    spec = const_objective(3, 20.0)
    mol = molecule(np.zeros(3), 10.0, 5.0)
    state = make_state([mol])
    outcome = on_wall_collision(state, spec, 0, np.random.default_rng(0))
    assert outcome.success is False
    assert mol.pe == 10.0 and mol.ke == 5.0
    assert np.array_equal(mol.structure, np.zeros(3))
    assert outcome.new_structures[0][1] == 20.0
    assert len(state.population) == 1


def test_on_wall_energy_split_with_forced_q():
    # PE 10, KE 5, trial PE 12: excess 3; q = 0.1 + 0.9 * (1/3) = 0.4 keeps
    # 1.2 as KE and hands 1.8 to the buffer.
    spec = const_objective(3, 12.0)
    mol = molecule(np.zeros(3), 10.0, 5.0, loss_rate=0.1)
    state = make_state([mol])
    rng = ScriptedRNG(integers=[0], normal=[0.5], random=[1 / 3])
    outcome = on_wall_collision(state, spec, 0, rng)
    assert outcome.success is True
    assert mol.pe == 12.0
    assert mol.ke == pytest.approx(1.2, rel=1e-12)
    assert state.buffer == pytest.approx(1.8, rel=1e-12)
    assert mol.structure[0] == 0.5


def test_on_wall_retained_fraction_mean():
    # q ~ Uniform[0.1, 1] has mean 0.55 and std 0.26; the mean over 10k
    # successful collisions has std 0.0026, so +-0.02 is ~7.7 sigma.
    spec = sphere_objective(3)
    rng = np.random.default_rng(1)
    mol = molecule(np.zeros(3), 0.0, 1e9, loss_rate=0.1)
    state = make_state([mol])
    ratios = []
    for _ in range(10_000):
        mol.ke = 1e9  # guarantee success
        pe_before, ke_before = mol.pe, mol.ke
        outcome = on_wall_collision(state, spec, 0, rng)
        assert outcome.success
        excess = pe_before + ke_before - mol.pe
        ratios.append(mol.ke / excess)
    assert 0.53 <= np.mean(ratios) <= 0.57


def test_on_wall_success_monotone_in_ke():
    spec = const_objective(2, 20.0)
    succeeded = []
    for ke in np.linspace(0.0, 15.0, 16):
        mol = molecule(np.zeros(2), 10.0, float(ke))
        state = make_state([mol])
        outcome = on_wall_collision(state, spec, 0, np.random.default_rng(5))
        succeeded.append(outcome.success)
    assert succeeded == sorted(succeeded)  # False... then True...
    assert succeeded[-1] is True and succeeded[0] is False


def test_on_wall_tracks_own_best():
    spec = queue_objective(2, [4.0, 7.0])
    mol = molecule(np.zeros(2), 10.0, 100.0)
    state = make_state([mol])
    rng = np.random.default_rng(2)
    on_wall_collision(state, spec, 0, rng)
    assert mol.min_pe == 4.0 and mol.min_hit == 1
    on_wall_collision(state, spec, 0, rng)  # worse but accepted via KE
    assert mol.pe == 7.0
    assert mol.min_pe == 4.0 and mol.min_hit == 1
    assert mol.num_hit == 2


def test_decomposition_surplus_split_without_buffer():
    spec = queue_objective(4, [4.0, 5.0])
    parent = molecule(np.zeros(4), 10.0, 0.0)
    state = make_state([parent], buffer=0.0)
    outcome = decomposition(state, spec, 0, np.random.default_rng(3))
    assert outcome.success is True
    assert len(state.population) == 2
    kes = sorted(m.ke for m in state.population)
    assert kes[0] >= 0.0
    assert sum(kes) == pytest.approx(1.0, rel=1e-12)
    assert state.buffer == 0.0
    assert {m.pe for m in state.population} == {4.0, 5.0}
    assert all(m.num_hit == 0 and m.min_pe == m.pe for m in state.population)


def test_decomposition_fails_with_empty_buffer():
    # Children cost 17 against a parent holding 10: an empty buffer cannot
    # make up the difference, so early decompositions are suppressed.
    spec = queue_objective(4, [8.0, 9.0])
    parent = molecule(np.zeros(4), 10.0, 0.0)
    state = make_state([parent], buffer=0.0)
    outcome = decomposition(state, spec, 0, np.random.default_rng(4))
    assert outcome.success is False
    assert len(state.population) == 1
    assert parent.num_hit == 1
    assert state.fe_count == 2


def test_decomposition_buffer_covers_exactly_the_deficit():
    spec = queue_objective(4, [8.0, 9.0])
    parent = molecule(np.zeros(4), 10.0, 0.0)
    state = make_state([parent], buffer=1000.0)
    outcome = decomposition(state, spec, 0, np.random.default_rng(5))
    assert outcome.success is True
    assert state.buffer == pytest.approx(993.0, rel=1e-12)
    assert all(m.ke == 0.0 for m in state.population)


def test_decomposition_with_zero_energy_succeeds_iff_children_cheaper():
    for pes, expected in (([4.0, 6.0], True), ([4.0, 6.5], False)):
        spec = queue_objective(4, pes)
        state = make_state([molecule(np.zeros(4), 10.0, 0.0)], buffer=0.0)
        outcome = decomposition(state, spec, 0, np.random.default_rng(6))
        assert outcome.success is expected


def test_decomposition_redraws_child_loss_rates_when_adaptive():
    spec = queue_objective(4, [1.0, 1.0])
    parent = molecule(np.zeros(4), 10.0, 0.0, loss_rate=0.77)
    state = make_state([parent], child_loss_rate=draw_loss_rate)
    decomposition(state, spec, 0, np.random.default_rng(7))
    rates = [m.loss_rate for m in state.population]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert all(r != 0.77 for r in rates)


def test_decomposition_children_inherit_global_loss_rate_when_canonical():
    spec = queue_objective(4, [1.0, 1.0])
    parent = molecule(np.zeros(4), 10.0, 0.0, loss_rate=0.1)
    state = make_state([parent], child_loss_rate=None)
    decomposition(state, spec, 0, np.random.default_rng(8))
    assert all(m.loss_rate == 0.1 for m in state.population)


def test_intermolecular_failure_when_pool_insufficient():
    spec = const_objective(3, 50.0)
    mols = [molecule(np.zeros(3), 10.0, 1.0), molecule(np.ones(3), 12.0, 2.0)]
    state = make_state(mols)
    outcome = intermolecular_collision(state, spec, 0, 1, np.random.default_rng(9))
    assert outcome.success is False
    assert mols[0].ke == 1.0 and mols[1].ke == 2.0
    assert mols[0].num_hit == 1 and mols[1].num_hit == 1
    assert state.fe_count == 2


def test_intermolecular_preserves_total_ke_when_pes_unchanged():
    spec = queue_objective(3, [10.0, 12.0])
    mols = [molecule(np.zeros(3), 10.0, 1.5), molecule(np.ones(3), 12.0, 2.5)]
    state = make_state(mols)
    outcome = intermolecular_collision(state, spec, 0, 1, np.random.default_rng(10))
    assert outcome.success is True
    assert mols[0].ke + mols[1].ke == pytest.approx(4.0, rel=1e-12)


def test_intermolecular_never_touches_buffer():
    spec = sphere_objective(3)
    rng = np.random.default_rng(11)
    for _ in range(2_000):
        mols = [
            molecule(rng.uniform(-100, 100, 3), 0.0, rng.uniform(0, 100)),
            molecule(rng.uniform(-100, 100, 3), 0.0, rng.uniform(0, 100)),
        ]
        for m in mols:
            m.pe = spec.evaluate(m.structure)
        state = make_state(mols, buffer=42.5)
        intermolecular_collision(state, spec, 0, 1, rng)
        assert state.buffer == 42.5


def test_synthesis_child_keeps_leftover_energy():
    spec = const_objective(3, 9.0)
    mols = [molecule(np.zeros(3), 3.0, 2.0), molecule(np.ones(3), 4.0, 1.0)]
    state = make_state(mols)
    outcome = synthesis(state, spec, 0, 1, np.random.default_rng(12))
    assert outcome.success is True
    assert len(state.population) == 1
    child = state.population[0]
    assert child.pe == 9.0
    assert child.ke == pytest.approx(1.0, rel=1e-12)
    assert child.num_hit == 0 and child.min_pe == 9.0


def test_synthesis_failure_keeps_parents():
    spec = const_objective(3, 100.0)
    mols = [molecule(np.zeros(3), 3.0, 2.0), molecule(np.ones(3), 4.0, 1.0)]
    state = make_state(mols)
    outcome = synthesis(state, spec, 0, 1, np.random.default_rng(13))
    assert outcome.success is False
    assert len(state.population) == 2
    assert all(m.num_hit == 1 for m in state.population)
    assert state.fe_count == 1


#: Population-size change per (kind, success): only a successful
#: decomposition grows the population and only a successful synthesis
#: shrinks it.
POPULATION_CHANGE = {
    (ReactionKind.ON_WALL, True): 0,
    (ReactionKind.ON_WALL, False): 0,
    (ReactionKind.DECOMPOSITION, True): 1,
    (ReactionKind.DECOMPOSITION, False): 0,
    (ReactionKind.INTER_MOLECULAR, True): 0,
    (ReactionKind.INTER_MOLECULAR, False): 0,
    (ReactionKind.SYNTHESIS, True): -1,
    (ReactionKind.SYNTHESIS, False): 0,
}


def test_failed_reactions_still_charge_their_evaluations():
    spec = const_objective(3, 1e12)
    mols = [molecule(np.zeros(3), 3.0, 0.0), molecule(np.ones(3), 4.0, 0.0)]
    state = make_state(mols, buffer=0.0)
    rng = np.random.default_rng(17)
    on_wall_collision(state, spec, 0, rng)
    assert state.fe_count == 1
    decomposition(state, spec, 0, rng)
    assert state.fe_count == 3
    intermolecular_collision(state, spec, 0, 1, rng)
    assert state.fe_count == 5
    synthesis(state, spec, 0, 1, rng)
    assert state.fe_count == 6


@pytest.mark.parametrize("kind", [k for k in ReactionKind])
def test_energy_conservation_randomized(kind):
    worst = collect_conserved(kind, required=250, seed=100 + list(ReactionKind).index(kind))
    assert worst <= 1e-9


def test_population_delta_contract():
    # Half the molecules start without kinetic energy and PEs are offset
    # below zero (a child could never cost more than two nonnegative parents),
    # so every reaction kind also fails and all eight pairs are covered.
    lower, upper = box_bounds(3)
    spec = ObjectiveSpec(3, lower, upper, lambda x: float(x @ x) - 100.0)
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(500):
        mols = [
            molecule(rng.uniform(-10, 10, 3), 0.0, rng.uniform(0, 1e4) * (rng.random() < 0.5))
            for _ in range(3)
        ]
        for m in mols:
            m.pe = spec.evaluate(m.structure)
        state = make_state(mols, buffer=rng.uniform(0, 100))
        size = len(state.population)
        kind = rng.choice(len(ReactionKind))
        if kind == 0:
            outcome = on_wall_collision(state, spec, 0, rng)
        elif kind == 1:
            outcome = decomposition(state, spec, 0, rng)
        elif kind == 2:
            outcome = intermolecular_collision(state, spec, 0, 1, rng)
        else:
            outcome = synthesis(state, spec, 0, 1, rng)
        key = (outcome.kind, outcome.success)
        assert len(state.population) - size == POPULATION_CHANGE[key], key
        seen.add(key)
    assert seen == set(POPULATION_CHANGE)
