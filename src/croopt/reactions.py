"""The four elementary reactions, shared verbatim by CRO and ACRO.

Every reaction evaluates its trial structures unconditionally (evaluations
are charged whether or not the reaction succeeds), then applies the energy
criterion. Successful reactions redistribute energy exactly, so the reactor
total (buffer + sum of PE + KE) is conserved; failed reactions advance only
collision counters and the evaluation count.

A reaction trusts its caller, the run loop, to leave budget for its
evaluations and to hand it in-range indices, two distinct ones for a pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Molecule, evaluate_and_count
from .operators import decompose_structure, neighborhood_search, synthesize_structure


@dataclass
class ReactionOutcome:
    success: bool
    #: Every trial structure evaluated by the reaction, with its PE, in
    #: generation order. Used by the run loop for best-ever tracking.
    new_structures: list[tuple[np.ndarray, float]]


def _child_loss_rate(state, parent, rng):
    if state.child_loss_rate is not None:
        return state.child_loss_rate(rng)
    return parent.loss_rate


def on_wall_collision(state, spec, index, rng):
    """A molecule hits the container wall and perturbs one element.

    On success the excess energy splits between the molecule's new KE and
    the central buffer: the retained fraction q is uniform on
    [loss_rate, 1], the remainder feeds the buffer.
    """
    mol = state.population[index]
    trial = neighborhood_search(
        mol.structure, state.step_size, spec.lower, spec.upper, state.boundary_rule, rng
    )
    trial_pe = evaluate_and_count(state, spec, trial)
    mol.num_hit += 1
    success = mol.pe + mol.ke >= trial_pe
    if success:
        excess = mol.pe + mol.ke - trial_pe
        # q ~ Uniform[loss_rate, 1], spelled as Generator.uniform computes it.
        q = mol.loss_rate + (1.0 - mol.loss_rate) * rng.random()
        state.buffer += excess * (1.0 - q)
        mol.accept(trial, trial_pe, excess * q)
    return ReactionOutcome(success, [(trial, trial_pe)])


def decomposition(state, spec, index, rng):
    """A molecule splits into two vigorously perturbed children.

    The children must be paid for out of the parent's PE + KE; when that is
    not enough, a random share (two uniform draws multiplied together) of the
    central buffer may cover the deficit. A failed attempt leaves the buffer
    untouched. The surplus is split between the child KEs by one more
    uniform draw, and child loss rates are drawn fresh where the run is
    adaptive.
    """
    mol = state.population[index]
    c1, c2 = decompose_structure(
        mol.structure, state.step_size, spec.lower, spec.upper, state.boundary_rule, rng
    )
    pe1 = evaluate_and_count(state, spec, c1)
    pe2 = evaluate_and_count(state, spec, c2)
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
        return ReactionOutcome(False, [(c1, pe1), (c2, pe2)])
    share = rng.random()
    child1 = Molecule.fresh(c1, pe1, surplus * share, _child_loss_rate(state, mol, rng))
    child2 = Molecule.fresh(
        c2, pe2, surplus * (1.0 - share), _child_loss_rate(state, mol, rng)
    )
    del state.population[index]
    state.population.append(child1)
    state.population.append(child2)
    return ReactionOutcome(True, [(c1, pe1), (c2, pe2)])


def intermolecular_collision(state, spec, i, j, rng):
    """Two molecules collide and both perturb one element.

    The pooled PE + KE of the pair must cover both new PEs; the leftover is
    redistributed between the two new KEs by a uniform split. The buffer is
    never touched.
    """
    m1 = state.population[i]
    m2 = state.population[j]
    t1 = neighborhood_search(
        m1.structure, state.step_size, spec.lower, spec.upper, state.boundary_rule, rng
    )
    t2 = neighborhood_search(
        m2.structure, state.step_size, spec.lower, spec.upper, state.boundary_rule, rng
    )
    pe1 = evaluate_and_count(state, spec, t1)
    pe2 = evaluate_and_count(state, spec, t2)
    m1.num_hit += 1
    m2.num_hit += 1
    pool = m1.pe + m1.ke + m2.pe + m2.ke - pe1 - pe2
    success = pool >= 0.0
    if success:
        k = rng.random()
        m1.accept(t1, pe1, pool * k)
        m2.accept(t2, pe2, pool * (1.0 - k))
    return ReactionOutcome(success, [(t1, pe1), (t2, pe2)])


def synthesis(state, spec, i, j, rng):
    """Two molecules merge into one via the configured crossover.

    Succeeds when the pooled PE + KE of the parents covers the child's PE;
    the whole leftover becomes the child's KE, so nothing reaches the buffer.
    """
    m1 = state.population[i]
    m2 = state.population[j]
    trial = synthesize_structure(
        m1.structure,
        m2.structure,
        state.synthesis_rule,
        spec.lower,
        spec.upper,
        rng,
        boundary_rule=state.boundary_rule,
    )
    trial_pe = evaluate_and_count(state, spec, trial)
    m1.num_hit += 1
    m2.num_hit += 1
    pool = m1.pe + m1.ke + m2.pe + m2.ke - trial_pe
    success = pool >= 0.0
    if success:
        child = Molecule.fresh(trial, trial_pe, pool, _child_loss_rate(state, m1, rng))
        for index in sorted((i, j), reverse=True):
            del state.population[index]
        state.population.append(child)
    return ReactionOutcome(success, [(trial, trial_pe)])
