"""The reaction loop shared by the canonical CRO and adaptive ACRO variants.

Both families run the same four reactions in one loop; they differ only in
how the next reaction is chosen and how the step size evolves. Canonical
CRO exposes eight tunables. The adaptive variants keep only the
population size, the collision rate, and a change rate governing how often
variable-population reactions are attempted; everything else is derived at
initialization or evolves from run feedback:

* initial KE = (largest - smallest initial PE) x population size,
* the central buffer starts empty,
* per-molecule loss rates come from a capped folded normal,
* decomposition vs synthesis is steered by a population-size feedback,
* per-element step sizes start at half the box width and follow a
  success-rule adaptation (factor 0.85, checked every n updates over a
  sliding window of 10n, where n is 1% of the evaluation budget).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Molecule, ReactorState, evaluate_and_count, update_best
from .errors import DimensionMismatch, InvalidConfig
from .operators import BoundaryRule, SynthesisRule
from .reactions import (
    ReactionKind,
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

STEP_ADAPT_FACTOR = 0.85


class Variant(Enum):
    """Algorithm variants, keyed by boundary handling and synthesis operator."""

    CRO_BP = "CRO/BP"
    CRO_HP = "CRO/HP"
    CRO_BB = "CRO/BB"
    CRO_D = "CRO/D"
    ACRO_BP = "ACRO/BP"
    ACRO_HP = "ACRO/HP"
    ACRO_BB = "ACRO/BB"

    @property
    def adaptive(self):
        return self.value.startswith("ACRO")

    @property
    def boundary_rule(self):
        return BoundaryRule.HP if self.value.endswith("HP") else BoundaryRule.BP

    @property
    def synthesis_rule(self):
        if self.value.endswith("BB"):
            return SynthesisRule.BLX05
        return SynthesisRule.PROBABILISTIC_SELECT


#: Canonical ordering for reports and the CLI: adaptive variants first.
VARIANT_ORDER = (
    Variant.ACRO_BP,
    Variant.ACRO_HP,
    Variant.ACRO_BB,
    Variant.CRO_BP,
    Variant.CRO_HP,
    Variant.CRO_BB,
    Variant.CRO_D,
)


def parse_variant(name):
    """Accept 'ACRO/BP', 'acro_bp', 'ACRO-BP' and friends."""
    key = str(name).strip().upper().replace("-", "/").replace("_", "/")
    for variant in Variant:
        if variant.value == key:
            return variant
    raise InvalidConfig(f"unknown algorithm variant {name!r}")


@dataclass
class ACROConfig:
    """Adaptive-variant configuration: three tunables plus the budget."""

    variant: Variant = Variant.ACRO_BP
    ini_pop_size: int = 20
    coll_rate: float = 0.2
    change_rate: float = 1e-4
    max_fes: int = 300_000


@dataclass
class CROConfig:
    """Canonical configuration with the standard multimodal defaults."""

    variant: Variant = Variant.CRO_BP
    ini_pop_size: int = 20
    coll_rate: float = 0.2
    ini_ke: float = 1e7
    ini_buffer: float = 1e5
    loss_rate: float = 0.1
    dec_thres: float = 1.5e5
    syn_thres: float = 10.0
    step_size: float = 1.0
    # Deterministic step decay, used by CRO/D only.
    adapt_interval: int = 100
    adapt_rate: float = 0.99
    max_fes: int = 300_000


def default_config(variant, max_fes=300_000):
    """The standard recommended parameter set for a variant."""
    variant = variant if isinstance(variant, Variant) else parse_variant(variant)
    if variant.adaptive:
        return ACROConfig(variant=variant, max_fes=max_fes)
    return CROConfig(variant=variant, max_fes=max_fes)


def _check(condition, message):
    if not condition:
        raise InvalidConfig(message)


def validate_config(cfg):
    _check(isinstance(cfg.max_fes, int) and cfg.max_fes >= 1, "max_fes must be >= 1")
    _check(cfg.ini_pop_size >= 1, "ini_pop_size must be >= 1")
    _check(
        cfg.max_fes >= cfg.ini_pop_size,
        "max_fes cannot even evaluate the initial population",
    )
    _check(0.0 <= cfg.coll_rate <= 1.0, "coll_rate must lie in [0, 1]")
    if isinstance(cfg, ACROConfig):
        _check(cfg.variant.adaptive, f"{cfg.variant.value} is not an adaptive variant")
        _check(0.0 <= cfg.change_rate <= 1.0, "change_rate must lie in [0, 1]")
        return
    _check(not cfg.variant.adaptive, f"{cfg.variant.value} is an adaptive variant")
    _check(cfg.ini_ke >= 0.0, "ini_ke must be >= 0")
    _check(cfg.ini_buffer >= 0.0, "ini_buffer must be >= 0")
    _check(0.0 <= cfg.loss_rate <= 1.0, "loss_rate must lie in [0, 1]")
    _check(cfg.dec_thres >= 0.0, "dec_thres must be >= 0")
    _check(cfg.syn_thres >= 0.0, "syn_thres must be >= 0")
    _check(cfg.step_size > 0.0, "step_size must be positive")
    if cfg.variant is Variant.CRO_D:
        _check(cfg.adapt_interval >= 1, "adapt_interval must be >= 1")
        _check(0.0 < cfg.adapt_rate < 1.0, "adapt_rate must lie in (0, 1)")


def _validate_objective(spec):
    """Check the search box once per run: shapes, finiteness, lower < upper.

    The finite width matters too: boundary repair scales a unit draw by
    ``upper - lower``.
    """
    dim = spec.dimension
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DimensionMismatch(f"dimension must be a positive integer, got {dim!r}")
    for name in ("lower", "upper"):
        shape = np.shape(getattr(spec, name))
        if shape != (dim,):
            raise DimensionMismatch(f"{name} has shape {shape}, expected ({dim},)")
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    _check(np.isfinite(lower).all() and np.isfinite(upper).all(), "bounds must be finite")
    _check((lower < upper).all(), "lower must lie below upper in every element")
    with np.errstate(over="ignore"):
        _check(np.isfinite(upper - lower).all(), "upper - lower overflows")


class SuccessWindow:
    """Sliding record of the last 10n best-update outcomes.

    Checkpoints land on every positive multiple of n updates. During the
    warm-up (before 10n outcomes exist) the recorded prefix stands in for
    the full window; the success threshold stays the fixed count 2n either
    way, so an underfilled window can only shrink the step.
    """

    def __init__(self, n):
        if n < 1:
            raise InvalidConfig("success-window n must be >= 1")
        self.n = int(n)
        self.capacity = 10 * self.n
        self.outcomes = deque()
        self.successes = 0
        self.updates_seen = 0

    def record(self, success):
        self.updates_seen += 1
        if len(self.outcomes) == self.capacity:
            self.successes -= self.outcomes.popleft()
        self.outcomes.append(bool(success))
        self.successes += success

    @property
    def full(self):
        return len(self.outcomes) == self.capacity


def draw_loss_rate(rng):
    """One per-molecule loss rate: |N(0, 0.3^2)| capped at 1."""
    return min(abs(rng.normal(0.0, 0.3)), 1.0)


def population_feedback(cur_pop_size, ini_pop_size):
    """Feedback terms steering decomposition vs synthesis.

    Returns (f_pop, f_dec, f_syn): the relative population excess, the
    decomposition probability, and its complement. f_dec + f_syn == 1
    exactly for every population size.
    """
    f_pop = (cur_pop_size - ini_pop_size) / ini_pop_size
    f_dec = 0.5 * (1.0 - f_pop)
    return f_pop, f_dec, 1.0 - f_dec


def select_reaction_acro(state, cfg, rng):
    """Pick the next elementary reaction for an adaptive run.

    A first draw against change_rate chooses between variable- and
    constant-population reactions. In the variable branch a lone molecule
    can only decompose; otherwise the population feedback decides between
    decomposition and synthesis. In the constant branch coll_rate is the
    probability of an inter-molecular collision (given a pair exists).
    """
    if rng.random() < cfg.change_rate:
        if len(state.population) < 2:
            return ReactionKind.DECOMPOSITION
        _, f_dec, _ = population_feedback(len(state.population), cfg.ini_pop_size)
        if rng.random() < f_dec:
            return ReactionKind.DECOMPOSITION
        return ReactionKind.SYNTHESIS
    if rng.random() < cfg.coll_rate and len(state.population) >= 2:
        return ReactionKind.INTER_MOLECULAR
    return ReactionKind.ON_WALL


def step_size_rule(state):
    """Success-rule step adaptation; call after every best-update.

    At each n-update checkpoint: more than 2n successes among the windowed
    updates grows every step component by 1/0.85, otherwise everything
    shrinks by 0.85.
    """
    window = state.update_window
    seen = window.updates_seen
    if seen == 0 or seen % window.n:
        return
    if window.successes > 2 * window.n:
        state.step_size /= STEP_ADAPT_FACTOR
    else:
        state.step_size *= STEP_ADAPT_FACTOR


def _window_n(max_fes):
    return max(1, max_fes // 100)


def _init_population(state, spec, cfg, rng):
    """Uniform random in-bounds molecules, all evaluated; returns their PEs."""
    structures = [rng.uniform(spec.lower, spec.upper) for _ in range(cfg.ini_pop_size)]
    pes = [evaluate_and_count(state, spec, s) for s in structures]
    best = int(np.argmin(pes))
    state.best_pe = pes[best]
    state.best_solution = np.array(structures[best], dtype=float)
    return structures, pes


def acro_init(spec, cfg, rng):
    """Build the initial reactor for an adaptive run.

    The shared initial KE is (max PE - min PE) x population size, the buffer
    starts empty, per-element step sizes start at half the box width, and
    every molecule gets its own folded-normal loss rate.
    """
    if not isinstance(cfg, ACROConfig):
        raise InvalidConfig("adaptive runs take an ACROConfig")
    validate_config(cfg)
    state = ReactorState(
        population=[],
        buffer=0.0,
        fe_count=0,
        best_pe=float("inf"),
        best_solution=None,
        step_size=(np.asarray(spec.upper, float) - np.asarray(spec.lower, float)) / 2.0,
        update_window=SuccessWindow(_window_n(cfg.max_fes)),
        boundary_rule=cfg.variant.boundary_rule,
        synthesis_rule=cfg.variant.synthesis_rule,
        max_fes=cfg.max_fes,
        child_loss_rate=draw_loss_rate,
    )
    structures, pes = _init_population(state, spec, cfg, rng)
    state.ini_ke = (max(pes) - min(pes)) * cfg.ini_pop_size
    state.population = [
        Molecule.fresh(s, pe, state.ini_ke, draw_loss_rate(rng))
        for s, pe in zip(structures, pes)
    ]
    return state


def cro_init(spec, cfg, rng):
    """Build the initial reactor for a canonical run (fixed global knobs)."""
    if not isinstance(cfg, CROConfig):
        raise InvalidConfig("canonical runs take a CROConfig")
    validate_config(cfg)
    state = ReactorState(
        population=[],
        buffer=float(cfg.ini_buffer),
        fe_count=0,
        best_pe=float("inf"),
        best_solution=None,
        step_size=np.full(spec.dimension, float(cfg.step_size)),
        update_window=None,
        boundary_rule=cfg.variant.boundary_rule,
        synthesis_rule=cfg.variant.synthesis_rule,
        max_fes=cfg.max_fes,
        child_loss_rate=None,
    )
    structures, pes = _init_population(state, spec, cfg, rng)
    state.ini_ke = float(cfg.ini_ke)
    state.population = [
        Molecule.fresh(s, pe, cfg.ini_ke, cfg.loss_rate)
        for s, pe in zip(structures, pes)
    ]
    return state


@dataclass
class RunResult:
    """What one run produces before the harness wraps it for reporting."""

    best_pe: float
    best_solution: np.ndarray
    trace: list[tuple[int, float]]
    fe_count: int
    wall_time: float
    state: ReactorState = field(repr=False, default=None)


def _pick_one(state, rng):
    return int(rng.integers(len(state.population)))


def _pick_pair(state, rng):
    n = len(state.population)
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return i, j


def _react_acro(state, spec, cfg, rng):
    """ACRO: the feedback scheme picks the reaction, then its molecules."""
    kind = select_reaction_acro(state, cfg, rng)
    if kind is ReactionKind.ON_WALL:
        return on_wall_collision(state, spec, _pick_one(state, rng), rng)
    if kind is ReactionKind.DECOMPOSITION:
        return decomposition(state, spec, _pick_one(state, rng), rng)
    i, j = _pick_pair(state, rng)
    if kind is ReactionKind.INTER_MOLECULAR:
        return intermolecular_collision(state, spec, i, j, rng)
    return synthesis(state, spec, i, j, rng)


def _react_cro(state, spec, cfg, rng):
    """Canonical CRO: the threshold scheme picks the reaction.

    A coll_rate draw picks uni- vs inter-molecular and the molecules are
    drawn; a pair with both KEs under syn_thres merges, a molecule whose
    inactive degree exceeds dec_thres decomposes.
    """
    if rng.random() < cfg.coll_rate and len(state.population) >= 2:
        i, j = _pick_pair(state, rng)
        pop = state.population
        if pop[i].ke < cfg.syn_thres and pop[j].ke < cfg.syn_thres:
            return synthesis(state, spec, i, j, rng)
        return intermolecular_collision(state, spec, i, j, rng)
    i = _pick_one(state, rng)
    if state.population[i].inactive_degree > cfg.dec_thres:
        return decomposition(state, spec, i, rng)
    return on_wall_collision(state, spec, i, rng)


def _evaluation_decay(state, cfg):
    """CRO/D: one multiplicative decay per adapt_interval evaluations,
    counting the initial population's evaluations."""
    while state.fe_count >= (state.step_decays + 1) * cfg.adapt_interval:
        state.step_size *= cfg.adapt_rate
        state.step_decays += 1


def _extend_trace(trace, state):
    """Record the best PE at every checkpoint k * max_fes // 100 reached.

    Returns the evaluation count at which the next checkpoint falls due.
    """
    while len(trace) < 100:
        fe = (len(trace) + 1) * state.max_fes // 100
        if fe > state.fe_count:
            return fe
        trace.append((fe, state.best_pe))
    return math.inf


def _drive(state, spec, cfg, rng, observer):
    """The reaction loop of every variant; ends with the budget spent exactly.

    The config type picks the two things ACRO changes: how the next reaction
    is chosen, and how the step size adapts. ACRO runs keep a success window
    and apply the success rule after every best-update; CRO/D decays its
    step by the evaluation count after every reaction; the other canonical
    variants keep a fixed step. Each step rule also runs once after
    initialization. When a single evaluation remains, an on-wall collision
    is forced so two-evaluation reactions never strand budget.
    """
    started = time.perf_counter()
    react = _react_acro if isinstance(cfg, ACROConfig) else _react_cro
    success_rule = state.update_window is not None
    decay = cfg.variant is Variant.CRO_D
    if success_rule:
        step_size_rule(state)
    if decay:
        _evaluation_decay(state, cfg)
    max_fes = cfg.max_fes
    trace = []
    next_checkpoint = _extend_trace(trace, state)
    if observer is not None:
        observer(state)
    while state.fe_count < max_fes:
        if max_fes - state.fe_count == 1:
            outcome = on_wall_collision(state, spec, _pick_one(state, rng), rng)
        else:
            outcome = react(state, spec, cfg, rng)
        for structure, pe in outcome.new_structures:
            update_best(state, structure, pe)
            if success_rule:
                step_size_rule(state)
        if decay:
            _evaluation_decay(state, cfg)
        if state.fe_count >= next_checkpoint:
            next_checkpoint = _extend_trace(trace, state)
        if observer is not None:
            observer(state)
    return RunResult(
        best_pe=state.best_pe,
        best_solution=state.best_solution,
        trace=trace,
        fe_count=state.fe_count,
        wall_time=time.perf_counter() - started,
        state=state,
    )


def run_acro(spec, cfg, rng, observer=None):
    """Run one adaptive optimization until the evaluation budget is spent.

    ``observer(state)``, if given, is called once after initialization and
    after every reaction. It sees the live reactor and must not change it;
    it never receives the generator, so it cannot perturb the random stream.
    The search box is validated once, before anything is drawn.
    """
    _validate_objective(spec)
    return _drive(acro_init(spec, cfg, rng), spec, cfg, rng, observer)


def run_cro(spec, cfg, rng, observer=None):
    """Run one canonical optimization until the evaluation budget is spent.

    ``observer`` and the box validation work as for :func:`run_acro`.
    """
    _validate_objective(spec)
    return _drive(cro_init(spec, cfg, rng), spec, cfg, rng, observer)
