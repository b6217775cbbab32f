"""Shared fixtures and stubs for the test suite."""

from collections import deque

import numpy as np

from croopt.algorithms import SuccessRule, draw_loss_rate
from croopt.benchmarks import griewank, schwefel_1_2, sphere
from croopt.core import Molecule, ObjectiveSpec, ReactorState, total_energy, update_best
from croopt.operators import BoundaryRule, SynthesisRule
from croopt.reactions import (
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

#: The four reactions, and the two of them that take a pair of molecules.
REACTIONS = (on_wall_collision, decomposition, intermolecular_collision, synthesis)
PAIR_REACTIONS = (intermolecular_collision, synthesis)


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
    return ObjectiveSpec(lower, upper, lambda x: float(value))


def queue_objective(dim, values, bound=100.0):
    vals = [float(v) for v in values]
    lower, upper = box_bounds(dim, bound)
    return ObjectiveSpec(lower, upper, lambda x: vals.pop(0))


def sphere_objective(dim, bound=100.0):
    lower, upper = box_bounds(dim, bound)
    return ObjectiveSpec(lower, upper, lambda x: float(x @ x))


def make_state(molecules, *, buffer=0.0, dim=None, step=1.0,
               boundary=BoundaryRule.BP,
               synthesis_rule=SynthesisRule.PROBABILISTIC_SELECT,
               child_loss_rate=None):
    """A reactor holding ``molecules``."""
    dim = dim if dim is not None else molecules[0].structure.shape[0]
    return ReactorState(
        population=list(molecules),
        buffer=float(buffer),
        step_size=np.full(dim, float(step)),
        boundary_rule=boundary,
        synthesis_rule=synthesis_rule,
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
    indices = (0, 1) if kind in PAIR_REACTIONS else (0,)
    outcome = kind(state, spec, *indices, rng)
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
    """Feed update_best and a SuccessRule a fixed success count per 10n block.

    Successes occupy the first ``successes_per_period`` slots of every block,
    so every trailing 10n window at an n-checkpoint holds exactly that many.
    Returns the step factor observed at each full-window n-checkpoint.
    """
    state = make_state([molecule(np.zeros(3), 1.0, 0.0)])
    state.best_pe = 1e12
    rule = SuccessRule(n)
    factors = []
    for k in range(periods * 10 * n):
        if k % (10 * n) < successes_per_period:
            pe = state.best_pe - 1.0
        else:
            pe = state.best_pe + 1.0
        previous = state.step_size[0]
        rule.record(state, update_best(state, np.zeros(3), pe))
        if k + 1 >= 10 * n and (k + 1) % n == 0:
            factors.append(state.step_size[0] / previous)
    return factors


class ReferenceWindow:
    """Oracle for SuccessRule: a literal sliding window of update outcomes.

    It keeps the last 10n outcomes one by one. ``record`` returns the step
    decision due after that update: None between n-checkpoints, else
    "grow" when more than 2n of the windowed outcomes are successes and
    "shrink" otherwise.
    """

    def __init__(self, n):
        self.n = n
        self.capacity = 10 * n
        self.outcomes = deque()
        self.successes = 0
        self.updates_seen = 0

    def record(self, success):
        self.updates_seen += 1
        if len(self.outcomes) == self.capacity:
            self.successes -= self.outcomes.popleft()
        self.outcomes.append(bool(success))
        self.successes += success
        if self.updates_seen % self.n:
            return None
        return "grow" if self.successes > 2 * self.n else "shrink"


# Reference spellings of the objective: `@` for the rotation and for sphere,
# and a fresh 1-based index vector on every call. The library spells these
# with ndarray.dot and a cached read-only index vector; the property tests
# check that both give the same bits.

def _reference_sphere(z):
    return float(z @ z)


def _reference_schwefel_1_2(z):
    weights = np.arange(1, z.shape[0] + 1, dtype=float)
    return float((weights * z * z).sum())


def _reference_griewank(z):
    i = np.arange(1, z.shape[0] + 1, dtype=float)
    return float((z * z).sum() / 4000.0 - np.cos(z / i).prod() + 1.0)


def reference_u_penalty(z, a):
    """u_penalty's full formula, without its early return inside [-a, a]."""
    over = np.maximum(z - a, 0.0)
    under = np.maximum(-z - a, 0.0)
    return float((100.0 * (over**4.0 + under**4.0)).sum())


REFERENCE_BASES = {
    sphere: _reference_sphere,
    schwefel_1_2: _reference_schwefel_1_2,
    griewank: _reference_griewank,
}


def reference_evaluate(inst, x):
    """evaluate_benchmark in the reference spellings above."""
    x = np.asarray(x, dtype=float)
    transform = inst.transform
    z = x - transform.shift if inst.shifted else x
    if inst.rotated:
        z = transform.rotation @ z
    if transform.scale != 1.0:
        z = z * transform.scale
    return REFERENCE_BASES.get(inst.base, inst.base)(z)
