"""The four elementary reactions, shared verbatim by CRO and ACRO.

Each reaction comes in two halves around the evaluation of its trial
structures. The propose half (``_wall_trials``, ``_decomposition_trials``,
``_collision_trials``, ``_synthesis_trials``) makes every draw that comes
before the evaluation and returns the trial structures. The run loop then
evaluates them all, charges every evaluation, whether or not the reaction
succeeds, and tracks the best-ever from them. The settle half, named after
the reaction, takes their PEs, applies the energy criterion, makes every
later draw and returns the outcome. :data:`_PROPOSE` pairs each settle half
with its propose half.
Successful reactions redistribute energy exactly, so the reactor total
(buffer + sum of PE + KE) is conserved; failed reactions advance only
collision counters.

A reaction trusts its caller, the run loop, to leave budget for its
evaluations and to hand both halves the same ``molecules``: a tuple of one
in-range index, or of two distinct ones for a pair.
"""

from __future__ import annotations

from .core import Molecule
from .operators import decompose_structure, neighborhood_search, synthesize_structure


class ReactionOutcome:
    """Whether a reaction succeeded; each returns one of the two shared below."""

    __slots__ = ("success",)

    def __init__(self, success):
        self.success = success


_SUCCEEDED, _FAILED = ReactionOutcome(True), ReactionOutcome(False)


def _child_loss_rate(state, parent, rng):
    if state.child_loss_rate is not None:
        return state.child_loss_rate(rng)
    return parent.loss_rate


def _wall_trials(state, spec, molecules, rng):
    """Propose half of :func:`on_wall_collision`: one neighbour of the molecule."""
    (index,) = molecules
    trial = neighborhood_search(
        state.population[index].structure, state.step_size, spec.lower, spec.upper,
        state.boundary_rule, rng
    )
    return (trial,)


def on_wall_collision(state, molecules, trials, pes, rng):
    """A molecule hits the container wall and perturbs one element.

    On success the excess energy splits between the molecule's new KE and
    the central buffer: the retained fraction q is uniform on
    [loss_rate, 1], the remainder feeds the buffer.
    """
    (index,), (trial,), (trial_pe,) = molecules, trials, pes
    mol = state.population[index]
    mol.num_hit += 1
    success = mol.pe + mol.ke >= trial_pe
    if success:
        excess = mol.pe + mol.ke - trial_pe
        # q ~ Uniform[loss_rate, 1], spelled as Generator.uniform computes it.
        q = mol.loss_rate + (1.0 - mol.loss_rate) * rng.random()
        state.buffer += excess * (1.0 - q)
        mol.accept(trial, trial_pe, excess * q)
    return _SUCCEEDED if success else _FAILED


def _decomposition_trials(state, spec, molecules, rng):
    """Propose half of :func:`decomposition`: the two children."""
    (index,) = molecules
    return decompose_structure(
        state.population[index].structure, state.step_size, spec.lower, spec.upper,
        state.boundary_rule, rng
    )


def decomposition(state, molecules, trials, pes, rng):
    """A molecule splits into two vigorously perturbed children.

    The children must be paid for out of the parent's PE + KE; when that is
    not enough, a random share (two uniform draws multiplied together) of the
    central buffer may cover the deficit. A failed attempt leaves the buffer
    untouched. The surplus is split between the child KEs by one more
    uniform draw, and child loss rates are drawn fresh where the run is
    adaptive.
    """
    (index,), (c1, c2), (pe1, pe2) = molecules, trials, pes
    mol = state.population[index]
    mol.num_hit += 1
    surplus = mol.pe + mol.ke - pe1 - pe2
    success = surplus >= 0.0
    if not success:
        draw = rng.random() * rng.random() * state.buffer
        if surplus + draw >= 0.0:
            # The buffer pays exactly the deficit; the random draw only gates
            # success, so a large buffer raises the success rate without
            # handing the children an oversized kinetic-energy budget.
            state.buffer += surplus
            surplus = 0.0
            success = True
    if not success:
        return _FAILED
    share = rng.random()
    child1 = Molecule.fresh(c1, pe1, surplus * share, _child_loss_rate(state, mol, rng))
    child2 = Molecule.fresh(
        c2, pe2, surplus * (1.0 - share), _child_loss_rate(state, mol, rng)
    )
    del state.population[index]
    state.population.append(child1)
    state.population.append(child2)
    return _SUCCEEDED


def _collision_trials(state, spec, molecules, rng):
    """Propose half of :func:`intermolecular_collision`: a neighbour of each."""
    i, j = molecules
    t1 = neighborhood_search(
        state.population[i].structure, state.step_size, spec.lower, spec.upper,
        state.boundary_rule, rng
    )
    t2 = neighborhood_search(
        state.population[j].structure, state.step_size, spec.lower, spec.upper,
        state.boundary_rule, rng
    )
    return t1, t2


def intermolecular_collision(state, molecules, trials, pes, rng):
    """Two molecules collide and both perturb one element.

    The pooled PE + KE of the pair must cover both new PEs; the leftover is
    redistributed between the two new KEs by a uniform split. The buffer is
    never touched.
    """
    (i, j), (t1, t2), (pe1, pe2) = molecules, trials, pes
    m1 = state.population[i]
    m2 = state.population[j]
    m1.num_hit += 1
    m2.num_hit += 1
    pool = m1.pe + m1.ke + m2.pe + m2.ke - pe1 - pe2
    success = pool >= 0.0
    if success:
        k = rng.random()
        m1.accept(t1, pe1, pool * k)
        m2.accept(t2, pe2, pool * (1.0 - k))
    return _SUCCEEDED if success else _FAILED


def _synthesis_trials(state, spec, molecules, rng):
    """Propose half of :func:`synthesis`: the crossover child."""
    i, j = molecules
    trial = synthesize_structure(
        state.population[i].structure,
        state.population[j].structure,
        state.synthesis_rule,
        spec.lower,
        spec.upper,
        rng,
        boundary_rule=state.boundary_rule,
    )
    return (trial,)


def synthesis(state, molecules, trials, pes, rng):
    """Two molecules merge into one via the configured crossover.

    Succeeds when the pooled PE + KE of the parents covers the child's PE;
    the whole leftover becomes the child's KE, so nothing reaches the buffer.
    """
    (i, j), (trial,), (trial_pe,) = molecules, trials, pes
    m1 = state.population[i]
    m2 = state.population[j]
    m1.num_hit += 1
    m2.num_hit += 1
    pool = m1.pe + m1.ke + m2.pe + m2.ke - trial_pe
    success = pool >= 0.0
    if success:
        child = Molecule.fresh(trial, trial_pe, pool, _child_loss_rate(state, m1, rng))
        for index in sorted((i, j), reverse=True):
            del state.population[index]
        state.population.append(child)
    return _SUCCEEDED if success else _FAILED


#: Each reaction's propose half, keyed by the reaction (its settle half).
_PROPOSE = {
    on_wall_collision: _wall_trials,
    decomposition: _decomposition_trials,
    intermolecular_collision: _collision_trials,
    synthesis: _synthesis_trials,
}
