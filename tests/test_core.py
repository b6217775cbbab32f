import math

import numpy as np
import pytest

import croopt.algorithms
from croopt.algorithms import ACROConfig, CROConfig, run_acro, run_cro
from croopt.benchmarks import as_objective, make_instance, sphere
from croopt.core import evaluate_and_count, total_energy, update_best
from croopt.errors import NonFiniteObjective
from croopt.reactions import on_wall_collision

from helpers import LedgerObserver, const_objective, make_state, molecule


def test_shifted_sphere_at_shift_is_zero():
    inst = make_instance("f1", 30)
    state = make_state([molecule(np.zeros(30), 0.0, 0.0)], dim=30)
    value = evaluate_and_count(state, as_objective(inst), inst.transform.shift)
    assert value == 0.0
    assert state.fe_count == 1


def test_sphere_base_at_ones():
    assert sphere(np.ones(30)) == 30.0


def test_f1_matches_independent_evaluator():
    # Reference evaluator written as a plain accumulation loop.
    def reference(x, shift):
        total = 0.0
        for xi, oi in zip(x.tolist(), shift.tolist()):
            d = xi - oi
            total += d * d
        return total

    inst = make_instance("f1", 30)
    spec = as_objective(inst)
    state = make_state([molecule(np.zeros(30), 0.0, 0.0)], dim=30)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-100.0, 100.0, 30)
        got = evaluate_and_count(state, spec, x)
        assert got == pytest.approx(reference(x, inst.transform.shift), rel=1e-12)
    assert state.fe_count == 100


def test_nonfinite_objective_raises():
    spec = const_objective(3, float("nan"))
    state = make_state([molecule(np.zeros(3), 0.0, 0.0)])
    with pytest.raises(NonFiniteObjective):
        evaluate_and_count(state, spec, np.zeros(3))


def test_total_energy_single_molecule():
    state = make_state([molecule([0.0], 2.0, 3.0)], buffer=0.0)
    assert total_energy(state) == 5.0


def test_total_energy_mixed_signs():
    mols = [molecule([0.0], 1.0, 0.0), molecule([0.0], -4.0, 2.0)]
    state = make_state(mols, buffer=10.0)
    assert total_energy(state) == 9.0


def test_update_best_strict_improvement():
    state = make_state([molecule([0.0], 0.0, 0.0)])
    state.best_pe = 5.0
    assert update_best(state, np.array([1.0]), 3.0) is True
    assert state.best_pe == 3.0
    assert state.update_window.updates_seen == 1


def test_update_best_tie_is_not_success():
    state = make_state([molecule([0.0], 0.0, 0.0)])
    state.best_pe = 5.0
    assert update_best(state, np.array([1.0]), 5.0) is False
    assert state.best_pe == 5.0


def test_update_best_sequence():
    state = make_state([molecule([0.0], 0.0, 0.0)])
    state.best_pe = 10.0
    outcomes = [update_best(state, np.array([1.0]), pe) for pe in (9.0, 7.0, 8.0, 3.0)]
    assert outcomes == [True, True, False, True]
    assert state.update_window.updates_seen == 4
    assert state.update_window.successes == 3


def test_update_best_copies_candidate():
    state = make_state([molecule([0.0], 0.0, 0.0)])
    state.best_pe = 5.0
    candidate = np.array([1.0])
    update_best(state, candidate, 1.0)
    candidate[0] = 99.0
    assert state.best_solution[0] == 1.0


def test_energy_ledger_conserved_over_acro_run():
    # ~10k reactions on the shifted sphere; the ledger is checked after every
    # reaction against the previous total and, over the whole run, against
    # the initial total. The canonical run with a low dec_thres adds
    # decompositions and syntheses to the mix.
    inst = make_instance("f1", 30)
    runs = (
        (run_acro, ACROConfig(max_fes=12_000)),
        (run_cro, CROConfig(dec_thres=50, max_fes=12_000)),
    )
    for run, cfg in runs:
        ledger = LedgerObserver()
        run(as_objective(inst), cfg, np.random.default_rng(11), observer=ledger)
        totals = np.asarray(ledger.totals)
        assert len(totals) > 6_000
        scale = max(abs(totals[0]), 1.0)
        assert np.max(np.abs(totals - totals[0])) <= 1e-9 * scale


def test_ledger_observer_catches_a_leaking_reaction(monkeypatch):
    # The driver calls reactions through croopt.algorithms, so wrapping the
    # name there makes every on-wall collision create 1.0 of energy.
    def leaking(state, *args):
        outcome = on_wall_collision(state, *args)
        state.buffer += 1.0
        return outcome

    monkeypatch.setattr(croopt.algorithms, "on_wall_collision", leaking)
    inst = make_instance("f1", 10)
    with pytest.raises(AssertionError, match="energy ledger moved"):
        run_acro(
            as_objective(inst),
            ACROConfig(max_fes=200),
            np.random.default_rng(11),
            observer=LedgerObserver(),
        )


def test_rejected_reaction_leaves_state_bit_identical():
    spec = const_objective(4, 1e9)  # trial PE far above PE + KE
    mols = [molecule(np.linspace(-1, 1, 4), 10.0, 5.0), molecule(np.ones(4), 3.0, 0.0)]
    state = make_state(mols, buffer=2.5)
    snapshot = [(m.structure.copy(), m.pe, m.ke) for m in mols]
    outcome = on_wall_collision(state, spec, 0, np.random.default_rng(0))
    assert outcome.success is False
    assert state.buffer == 2.5
    assert state.fe_count == 1
    assert mols[0].num_hit == 1
    for mol, (structure, pe, ke) in zip(state.population, snapshot):
        assert np.array_equal(mol.structure, structure)
        assert mol.pe == pe and mol.ke == ke


def test_best_pe_nonincreasing_over_run():
    inst = make_instance("f15", 10)
    cfg = ACROConfig(max_fes=5_000)
    result = run_acro(as_objective(inst), cfg, np.random.default_rng(3))
    values = [best for _, best in result.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert math.isfinite(result.best_pe)
