"""Shared fixtures and stubs for the test suite."""

import numpy as np

from croopt.algorithms import SuccessWindow, draw_loss_rate
from croopt.core import Molecule, ObjectiveSpec, ReactorState, total_energy
from croopt.operators import BoundaryRule, SynthesisRule
from croopt.reactions import (
    ReactionKind,
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)


class ScriptedRNG:
    """Stand-in for a numpy Generator with queued scalar draws per method.

    It has no ``uniform``: the reactions draw scalar uniforms through
    ``random()``, and a scripted test fails loudly if that ever changes.
    """

    def __init__(self, integers=(), normal=(), random=()):
        self._integers = list(integers)
        self._normal = list(normal)
        self._random = list(random)

    def integers(self, high):
        return self._integers.pop(0)

    def normal(self, loc=0.0, scale=1.0):
        return self._normal.pop(0)

    def random(self, size=None):
        return self._random.pop(0)


def box_bounds(dim, bound=100.0):
    return np.full(dim, -bound), np.full(dim, bound)


def const_objective(dim, value, bound=100.0):
    lower, upper = box_bounds(dim, bound)
    return ObjectiveSpec(dim, lower, upper, lambda x: float(value))


def queue_objective(dim, values, bound=100.0):
    vals = [float(v) for v in values]
    lower, upper = box_bounds(dim, bound)
    return ObjectiveSpec(dim, lower, upper, lambda x: vals.pop(0))


def sphere_objective(dim, bound=100.0):
    lower, upper = box_bounds(dim, bound)
    return ObjectiveSpec(dim, lower, upper, lambda x: float(x @ x))


def make_state(molecules, *, buffer=0.0, dim=None, step=1.0, n=10,
               max_fes=None, boundary=BoundaryRule.BP,
               synthesis_rule=SynthesisRule.PROBABILISTIC_SELECT,
               child_loss_rate=None):
    dim = dim if dim is not None else molecules[0].structure.shape[0]
    return ReactorState(
        population=list(molecules),
        buffer=float(buffer),
        fe_count=0,
        best_pe=float("inf"),
        best_solution=None,
        step_size=np.full(dim, float(step)),
        update_window=SuccessWindow(n),
        boundary_rule=boundary,
        synthesis_rule=synthesis_rule,
        max_fes=max_fes,
        child_loss_rate=child_loss_rate,
    )


def molecule(structure, pe, ke, loss_rate=0.1):
    return Molecule.fresh(np.asarray(structure, dtype=float), pe, ke, loss_rate)


class LedgerObserver:
    """Run observer checking the energy ledger after every reaction.

    Each call compares buffer + sum(PE + KE) with the value at the previous
    call, to ``rel_tol`` relative. Failed reactions are checked too: they
    must leave every energy untouched.
    """

    def __init__(self, rel_tol=1e-9):
        self.rel_tol = rel_tol
        self.totals = []

    def __call__(self, state):
        total = total_energy(state)
        if self.totals:
            before = self.totals[-1]
            scale = max(abs(before), abs(total), 1.0)
            assert abs(total - before) <= self.rel_tol * scale, (
                f"energy ledger moved from {before!r} to {total!r} "
                f"after {len(self.totals)} calls"
            )
        self.totals.append(total)


def conservation_trial(kind, rng):
    """One randomized reaction on a random reactor; returns (success, rel_err).

    States are biased toward energy-rich molecules so each reaction kind
    succeeds often enough to collect the required sample.
    """
    dim = 5
    spec = sphere_objective(dim, bound=10.0)
    molecules = []
    for _ in range(3):
        structure = rng.uniform(spec.lower, spec.upper)
        pe = spec.evaluate(structure)
        rich = rng.random() < 0.7
        ke = rng.uniform(0.0, 1e4) if rich else rng.uniform(0.0, 1.0)
        molecules.append(Molecule.fresh(structure, pe, ke, draw_loss_rate(rng)))
    state = make_state(
        molecules,
        buffer=rng.uniform(0.0, 1e4),
        step=1.0,
        child_loss_rate=draw_loss_rate,
    )
    before = total_energy(state)
    if kind is ReactionKind.ON_WALL:
        outcome = on_wall_collision(state, spec, 0, rng)
    elif kind is ReactionKind.DECOMPOSITION:
        outcome = decomposition(state, spec, 0, rng)
    elif kind is ReactionKind.INTER_MOLECULAR:
        outcome = intermolecular_collision(state, spec, 0, 1, rng)
    else:
        outcome = synthesis(state, spec, 0, 1, rng)
    after = total_energy(state)
    rel_err = abs(after - before) / max(abs(before), abs(after), 1.0)
    return outcome.success, rel_err


def collect_conserved(kind, required, seed):
    """Run randomized trials until ``required`` successes; max relative error."""
    rng = np.random.default_rng(seed)
    successes = 0
    attempts = 0
    worst = 0.0
    while successes < required:
        attempts += 1
        assert attempts < required * 50, f"{kind}: success rate too low"
        success, rel_err = conservation_trial(kind, rng)
        if success:
            successes += 1
            worst = max(worst, rel_err)
    return worst


def drive_scripted_window(n, successes_per_period, periods=3):
    """Feed update_best a stream with a fixed success count per 10n block.

    Successes occupy the first ``successes_per_period`` slots of every block,
    so every trailing 10n window at an n-checkpoint holds exactly that many.
    Returns the step factor observed at each full-window n-checkpoint.
    """
    from croopt.algorithms import step_size_rule
    from croopt.core import update_best

    state = make_state([molecule(np.zeros(3), 1.0, 0.0)], n=n)
    state.best_pe = 1e12
    factors = []
    previous = state.step_size[0]
    for k in range(periods * 10 * n):
        position = k % (10 * n)
        if position < successes_per_period:
            pe = state.best_pe - 1.0
        else:
            pe = state.best_pe + 1.0
        update_best(state, np.zeros(3), pe)
        step_size_rule(state)
        if state.update_window.full and state.update_window.updates_seen % n == 0:
            factors.append(state.step_size[0] / previous)
        previous = state.step_size[0]
    return factors
