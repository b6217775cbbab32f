"""Molecules, the reactor state, and the energy ledger shared by all variants.

A candidate solution is a plain float vector. Each molecule carries one
solution plus its potential energy (the objective value, minimized), its
kinetic energy (tolerance for accepting worse solutions), collision counters,
and a per-molecule energy loss rate. The reactor owns the population, the
central energy buffer, the evaluation counter, the best-ever record and the
per-element step sizes. The run loop in ``algorithms`` owns the rest of a
run: its evaluation budget, the charging of each reaction's evaluations,
which molecules each reaction gets, and how the step sizes evolve.
``child_loss_rate`` is set by ACRO only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteObjective
from .operators import BoundaryRule, SynthesisRule


def _is_count(value, least=1):
    """The package's one integer-input rule: an int or numpy int >= ``least``, no bool."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return whole and value >= least


def _is_real(value):
    """The package's real-number input rule: an int, a float or a numpy real, no bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(eq=False)
class ObjectiveSpec:
    """A box-bounded minimization problem: bounds plus a pure evaluator.

    The dimension is the length of the bounds.
    """

    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], float]


@dataclass(eq=False)
class Molecule:
    """One search agent: a solution vector plus its energy bookkeeping."""

    structure: np.ndarray
    pe: float
    ke: float
    loss_rate: float
    num_hit: int = 0
    min_hit: int = 0
    min_pe: float = math.inf

    @classmethod
    def fresh(cls, structure, pe, ke, loss_rate):
        """A brand-new molecule: counters zeroed, own-best set to its PE."""
        return cls(
            structure=np.asarray(structure, dtype=float),
            pe=float(pe),
            ke=float(ke),
            loss_rate=float(loss_rate),
            min_pe=float(pe),
        )

    def accept(self, structure, pe, ke):
        """Install a new structure after a successful collision.

        Also refreshes the molecule's own-best tracking, which drives the
        canonical decomposition trigger (inactive degree).
        """
        self.structure = structure
        self.pe = pe
        self.ke = ke
        if pe < self.min_pe:
            self.min_pe = pe
            self.min_hit = self.num_hit

    @property
    def inactive_degree(self):
        return self.num_hit - self.min_hit


@dataclass(eq=False)
class ReactorState:
    """Mutable state of one optimization run, confined to a single thread."""

    step_size: np.ndarray
    boundary_rule: BoundaryRule
    synthesis_rule: SynthesisRule
    buffer: float = 0.0
    population: list[Molecule] = field(default_factory=list)
    fe_count: int = 0
    best_pe: float = math.inf
    best_solution: Optional[np.ndarray] = None
    # Drawn for every molecule created mid-run; None means children inherit
    # the parent's loss rate (the canonical global-constant behaviour).
    child_loss_rate: Optional[Callable[[np.random.Generator], float]] = None


def evaluate_and_count(state, spec, solution):
    """Evaluate the objective at ``solution`` and charge one evaluation.

    Raises NonFiniteObjective if the objective blows up; a defective
    objective must abort the run rather than poison the energy ledger.
    """
    value = float(spec.evaluate(solution))
    if not math.isfinite(value):
        raise NonFiniteObjective(f"objective returned {value!r}")
    state.fe_count += 1
    return value


def total_energy(state):
    """Buffer energy plus every molecule's PE + KE (the conserved total)."""
    return state.buffer + sum(m.pe + m.ke for m in state.population)


def update_best(state, candidate, pe):
    """Compare a newly generated solution against the best-ever record.

    Only a strict improvement counts as a successful update (ties would let
    plateau noise inflate ACRO's success-rule count).
    """
    improved = pe < state.best_pe
    if improved:
        state.best_pe = pe
        state.best_solution = np.array(candidate, dtype=float)
    return improved
