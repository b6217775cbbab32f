"""The reaction loop shared by the canonical CRO and adaptive ACRO variants.

Both families build their reactor in one place and run the same four
reactions in one loop; they differ only in how parameters are derived at
initialization, how the next reaction is chosen and how the step size
evolves. Canonical CRO exposes eight tunables. The adaptive variants keep
only the population size, the collision rate, and a change rate governing
how often variable-population reactions are attempted; everything else is
derived at initialization or evolves from run feedback:

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

from .core import (
    Molecule,
    ObjectiveSpec,
    ReactorState,
    _is_count,
    _is_real,
    evaluate_and_count,
    update_best,
)
from .errors import DimensionMismatch, InvalidConfig, NonFiniteObjective
from .operators import BoundaryRule, SynthesisRule, _BitDraws, _draw_index
from .reactions import (
    _PROPOSE,
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

STEP_ADAPT_FACTOR = 0.85


class Variant(Enum):
    """Algorithm variants, declared in report order: adaptive variants first."""

    ACRO_BP = "ACRO/BP"
    ACRO_HP = "ACRO/HP"
    ACRO_BB = "ACRO/BB"
    CRO_BP = "CRO/BP"
    CRO_HP = "CRO/HP"
    CRO_BB = "CRO/BB"
    CRO_D = "CRO/D"

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


def _check_count(cfg, name):
    value = getattr(cfg, name)
    _check(_is_count(value), f"{name} must be an integer >= 1, got {value!r}")


def _check_real(cfg, name, holds, rule):
    value = getattr(cfg, name)
    _check(_is_real(value) and holds(value), f"{name} must {rule}, got {value!r}")


def validate_config(cfg):
    """InvalidConfig unless every field the variant reads has its type and range."""
    _check(isinstance(cfg, (ACROConfig, CROConfig)),
           f"expected an ACROConfig or a CROConfig, got {cfg!r}")
    _check(isinstance(cfg.variant, Variant), f"variant must be a Variant, got {cfg.variant!r}")
    _check_count(cfg, "max_fes")
    _check_count(cfg, "ini_pop_size")
    _check(
        cfg.max_fes >= cfg.ini_pop_size,
        "max_fes cannot even evaluate the initial population",
    )
    _check_real(cfg, "coll_rate", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
    if isinstance(cfg, ACROConfig):
        _check(cfg.variant.adaptive, f"{cfg.variant.value} is not an adaptive variant")
        _check_real(cfg, "change_rate", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
        return
    _check(not cfg.variant.adaptive, f"{cfg.variant.value} is an adaptive variant")
    _check_real(cfg, "ini_ke", lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
    _check_real(cfg, "ini_buffer", lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
    _check_real(cfg, "loss_rate", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
    _check_real(cfg, "dec_thres", lambda v: v >= 0.0, "be >= 0")
    _check_real(cfg, "syn_thres", lambda v: v >= 0.0, "be >= 0")
    _check_real(cfg, "step_size", lambda v: 0.0 < v < math.inf, "be finite and positive")
    if cfg.variant is Variant.CRO_D:
        _check_count(cfg, "adapt_interval")
        _check_real(cfg, "adapt_rate", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _is_real_vector(bound):
    """A numpy array of float or integer dtype, or a sequence of reals."""
    if isinstance(bound, np.ndarray):
        return bound.dtype.kind in "fiu"
    return all(_is_real(value) for value in bound)


def _validate_objective(spec):
    """Check the search box once per run; return its bounds as float64 arrays.

    Both bounds share one non-empty 1-D shape, whose length is the dimension.
    The width must be finite too, as boundary repair scales a unit draw by
    it; the run's errstate keeps the overflow of that check quiet.
    """
    try:
        shape, other = np.shape(spec.lower), np.shape(spec.upper)
    except ValueError as exc:  # a ragged sequence has no shape
        raise DimensionMismatch(f"bounds must be 1-D sequences: {exc}") from None
    if len(shape) != 1 or not shape[0] or other != shape:
        raise DimensionMismatch(f"bounds must share one non-empty 1-D shape, got "
                                f"{shape} and {other}")
    _check(_is_real_vector(spec.lower) and _is_real_vector(spec.upper),
           "bounds must be real numbers")
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    _check(np.isfinite(lower).all() and np.isfinite(upper).all(), "bounds must be finite")
    _check((lower < upper).all(), "lower must lie below upper in every element")
    _check(np.isfinite(upper - lower).all(), "upper - lower overflows")
    return lower, upper


class SuccessRule:
    """ACRO's step-size adaptation, fed every best-update outcome by the loop.

    At every n-th update it counts the successes among the last 10n updates
    (during the warm-up, among all updates so far): more than 2n grows every
    step component by 1/0.85, otherwise all shrink by 0.85. The threshold
    stays 2n during the warm-up, so an underfilled window can only shrink
    the step. Counts are read only at multiples of n, so the window is kept
    as the success counts of its last ten n-update blocks.
    """

    def __init__(self, n):
        self.n = n
        self.blocks = deque(maxlen=10)
        self.successes = 0
        self.updates = 0

    def record(self, state, improved):
        self.successes += improved
        self.updates += 1
        if self.updates < self.n:
            return
        self.blocks.append(self.successes)
        self.successes = self.updates = 0
        if sum(self.blocks) > 2 * self.n:
            state.step_size /= STEP_ADAPT_FACTOR
        else:
            state.step_size *= STEP_ADAPT_FACTOR


def draw_loss_rate(rng):
    """One per-molecule loss rate: |N(0, 0.3^2)| capped at 1."""
    return min(abs(rng.normal(0.0, 0.3)), 1.0)


def _init_reactor(spec, cfg, rng, **fields):
    """Validate ``cfg`` and evaluate a uniform random in-bounds population.

    ``fields`` are the ReactorState fields the two families set differently.
    Returns the reactor, with its best set but its population still empty,
    and the initial structures and their PEs.
    """
    validate_config(cfg)
    state = ReactorState(
        boundary_rule=cfg.variant.boundary_rule,
        synthesis_rule=cfg.variant.synthesis_rule,
        **fields,
    )
    structures = [rng.uniform(spec.lower, spec.upper) for _ in range(cfg.ini_pop_size)]
    pes = [evaluate_and_count(state, spec, s) for s in structures]
    best = int(np.argmin(pes))
    state.best_pe = pes[best]
    state.best_solution = np.array(structures[best], dtype=float)
    return state, structures, pes


def acro_init(spec, cfg, rng):
    """Build the initial reactor for an adaptive run in a float64 box.

    The shared initial KE is (max PE - min PE) x population size, the buffer
    starts empty, per-element step sizes start at half the box width, and
    every molecule, initial or born mid-run, gets its own folded-normal loss
    rate.
    """
    state, structures, pes = _init_reactor(
        spec, cfg, rng,
        step_size=(spec.upper - spec.lower) / 2.0,
        child_loss_rate=draw_loss_rate,
    )
    ke = (max(pes) - min(pes)) * cfg.ini_pop_size
    state.population = [
        Molecule.fresh(s, pe, ke, draw_loss_rate(rng)) for s, pe in zip(structures, pes)
    ]
    return state


def cro_init(spec, cfg, rng):
    """Build the initial reactor for a canonical run (fixed global knobs)."""
    state, structures, pes = _init_reactor(
        spec, cfg, rng,
        step_size=np.full(len(spec.lower), float(cfg.step_size)),
        buffer=float(cfg.ini_buffer),
    )
    state.population = [
        Molecule.fresh(s, pe, cfg.ini_ke, cfg.loss_rate) for s, pe in zip(structures, pes)
    ]
    return state


@dataclass
class RunResult:
    """What one run produces; its best PE, solution and count are its state's."""

    trace: list[tuple[int, float]]
    wall_time: float
    state: ReactorState = field(repr=False)
    best_pe: float = field(init=False)
    best_solution: np.ndarray = field(init=False)
    fe_count: int = field(init=False)

    def __post_init__(self):
        self.best_pe = self.state.best_pe
        self.best_solution = self.state.best_solution
        self.fe_count = self.state.fe_count


def _pick_pair(state, rng):
    n = len(state.population)
    i = _draw_index(n, rng)
    j = _draw_index(n - 1, rng)
    if j >= i:
        j += 1
    return i, j


def _react_acro(state, cfg, rng):
    """ACRO: the feedback scheme picks the reaction, then its molecules.

    A first draw against change_rate chooses between variable- and
    constant-population reactions. In the variable branch a lone molecule
    can only decompose; otherwise the population feedback decides between
    decomposition and synthesis. In the constant branch coll_rate is the
    probability of an inter-molecular collision (given a pair exists).
    Returns the reaction, as this module names it at call time, and its
    molecules.
    """
    n = len(state.population)
    if rng.random() < cfg.change_rate:
        f_pop = (n - cfg.ini_pop_size) / cfg.ini_pop_size
        if n < 2 or rng.random() < 0.5 * (1.0 - f_pop):
            return decomposition, (_draw_index(n, rng),)
        return synthesis, _pick_pair(state, rng)
    if rng.random() < cfg.coll_rate and n >= 2:
        return intermolecular_collision, _pick_pair(state, rng)
    return on_wall_collision, (_draw_index(n, rng),)


def _react_cro(state, cfg, rng):
    """Canonical CRO: the threshold scheme picks the reaction.

    A coll_rate draw picks uni- vs inter-molecular and the molecules are
    drawn; a pair with both KEs under syn_thres merges, a molecule whose
    inactive degree exceeds dec_thres decomposes. Returns what
    :func:`_react_acro` returns.
    """
    if rng.random() < cfg.coll_rate and len(state.population) >= 2:
        pair = _pick_pair(state, rng)
        m1, m2 = state.population[pair[0]], state.population[pair[1]]
        if m1.ke < cfg.syn_thres and m2.ke < cfg.syn_thres:
            return synthesis, pair
        return intermolecular_collision, pair
    i = _draw_index(len(state.population), rng)
    if state.population[i].inactive_degree > cfg.dec_thres:
        return decomposition, (i,)
    return on_wall_collision, (i,)


def _evaluation_decay(state, cfg, due):
    """CRO/D: one multiplicative decay per adapt_interval evaluations, due
    at ``due`` and counting the initial population's; returns the next due."""
    while state.fe_count >= due:
        state.step_size *= cfg.adapt_rate
        due += cfg.adapt_interval
    return due


def _extend_trace(trace, state, max_fes):
    """Record the best PE at every checkpoint k * max_fes // 100 reached.

    Returns the evaluation count at which the next checkpoint falls due.
    """
    while len(trace) < 100:
        fe = (len(trace) + 1) * max_fes // 100
        if fe > state.fe_count:
            return fe
        trace.append((fe, state.best_pe))
    return math.inf


def _drive(spec, cfg, rng, observer):
    """One run of any variant, as a generator; it spends the budget exactly.

    It validates the box and makes it float64, builds the reactor (the
    initializer evaluates the initial population), then runs the reaction
    loop. The loop yields each reaction's trial structures, in generation
    order, and is sent an iterator of their PEs. It reads each trial before
    its PE, so it never takes a PE past its own trials: runs sent one
    iterator in turn each take their own. It charges each PE as it arrives,
    checks it for finiteness and updates the best-ever from it before the
    settle half runs, whether or not the reaction succeeds. The generator
    returns the RunResult, whose wall time leaves out the initialization.
    The config type picks the initializer (looked up here as the run
    starts), how the next reaction is chosen and how the step adapts: ACRO
    feeds every best-update outcome to a SuccessRule, CRO/D decays its step
    by the evaluation count after initialization and after every reaction,
    and the other canonical variants keep a fixed step. The loop alone
    meets the reactions' preconditions: with one evaluation left it forces
    an on-wall collision, and a pair reaction gets two distinct molecules.
    """
    # A Generator subclass may override the replayed methods: not replayed.
    rng = _BitDraws(rng) if type(rng) is np.random.Generator else rng
    spec = ObjectiveSpec(*_validate_objective(spec), spec.evaluate)
    adaptive = isinstance(cfg, ACROConfig)
    state = (acro_init if adaptive else cro_init)(spec, cfg, rng)
    started = time.perf_counter()
    isfinite = math.isfinite
    max_fes = int(cfg.max_fes)
    react = _react_acro if adaptive else _react_cro
    rule = SuccessRule(max(1, max_fes // 100)) if adaptive else None
    next_decay = cfg.adapt_interval if cfg.variant is Variant.CRO_D else math.inf
    trace = []
    next_checkpoint = 0
    # Each reaction's propose half, keyed by the reaction as this module
    # names it now, which a caller may have wrapped.
    propose = {globals()[settle.__name__]: half for settle, half in _PROPOSE.items()}
    while True:
        # The tail of initialization and of every reaction.
        if state.fe_count >= next_decay:
            next_decay = _evaluation_decay(state, cfg, next_decay)
        if state.fe_count >= next_checkpoint:
            next_checkpoint = _extend_trace(trace, state, max_fes)
        if observer is not None:
            observer(state)
        if state.fe_count >= max_fes:
            return RunResult(trace, time.perf_counter() - started, state)
        if max_fes - state.fe_count == 1:
            reaction, molecules = on_wall_collision, (_draw_index(len(state.population), rng),)
        else:
            reaction, molecules = react(state, cfg, rng)
        trials = propose[reaction](state, spec, molecules, rng)
        pes = []
        for structure, value in zip(trials, (yield trials)):
            value = float(value)
            if not isfinite(value):  # a blown-up objective must not reach the ledger
                raise NonFiniteObjective(f"objective returned {value!r}")
            state.fe_count += 1
            pes.append(value)
            improved = update_best(state, structure, value)
            if rule is not None:
                rule.record(state, improved)
        reaction(state, molecules, trials, pes, rng)


def run_acro(spec, cfg, rng, observer=None):
    """Run one adaptive optimization until the evaluation budget is spent.

    ``observer(state)``, if given, is called once after initialization and
    after every reaction. It sees the live reactor and must not change it;
    it never receives the generator, so it cannot perturb the random stream.
    The box is validated and made float64 once, before any draw. numpy's
    floating-point warnings are silenced for the run: an objective that
    overflows ends it with NonFiniteObjective instead. A config that is
    not an ACROConfig is rejected before the box is checked.
    """
    _check(isinstance(cfg, ACROConfig), "adaptive runs take an ACROConfig")
    return _run(spec, cfg, rng, observer)


def run_cro(spec, cfg, rng, observer=None):
    """Run one canonical optimization until the evaluation budget is spent.

    ``observer``, the box validation and the silenced warnings work as for
    :func:`run_acro`; it rejects a config that is not a CROConfig first.
    """
    _check(isinstance(cfg, CROConfig), "canonical runs take a CROConfig")
    return _run(spec, cfg, rng, observer)


def _run(spec, cfg, rng, observer):
    # Lone runs keep this feeder, not a one-run cell: 430-640 ns a step against 650-1110 ns.
    evaluate = spec.evaluate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        run = _drive(spec, cfg, rng, observer)
        send = run.send
        try:
            trials = next(run)
            while True:
                # Lazy, so the loop checks each PE before the next evaluation.
                trials = send(map(evaluate, trials))
        except StopIteration as done:
            return done.value
