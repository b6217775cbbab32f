import dataclasses

import numpy as np
import pytest

from croopt.algorithms import (
    ACROConfig,
    CROConfig,
    SuccessRule,
    Variant,
    _react_acro,
    acro_init,
    cro_init,
    default_config,
    draw_loss_rate,
    parse_variant,
    run_acro,
    run_cro,
    validate_config,
)
from croopt.benchmarks import as_objective, make_instance
from croopt.core import ObjectiveSpec
from croopt.errors import DimensionMismatch, InvalidConfig
from croopt.operators import BoundaryRule, SynthesisRule
from croopt.reactions import decomposition, intermolecular_collision, on_wall_collision, synthesis

from helpers import (
    PAIR_REACTIONS,
    ScriptedRNG,
    drive_scripted_window,
    make_state,
    molecule,
    queue_objective,
)


def test_variant_parsing_and_rules():
    assert parse_variant("acro_bp") is Variant.ACRO_BP
    assert parse_variant("CRO/D") is Variant.CRO_D
    assert Variant.ACRO_HP.boundary_rule is BoundaryRule.HP
    assert Variant.ACRO_BB.synthesis_rule is SynthesisRule.BLX05
    assert Variant.CRO_BP.synthesis_rule is SynthesisRule.PROBABILISTIC_SELECT
    assert not Variant.CRO_D.adaptive and Variant.ACRO_BB.adaptive
    with pytest.raises(InvalidConfig):
        parse_variant("XYZ")


def test_standard_defaults():
    cro = default_config("CRO/BP")
    assert (cro.ini_pop_size, cro.coll_rate, cro.loss_rate) == (20, 0.2, 0.1)
    assert (cro.ini_ke, cro.ini_buffer) == (1e7, 1e5)
    assert (cro.dec_thres, cro.syn_thres, cro.step_size) == (1.5e5, 10.0, 1.0)
    cro_d = default_config("CRO/D")
    assert (cro_d.adapt_interval, cro_d.adapt_rate) == (100, 0.99)
    acro = default_config("ACRO/BP")
    assert (acro.ini_pop_size, acro.coll_rate, acro.change_rate) == (20, 0.2, 1e-4)


def test_acro_config_exposes_exactly_three_tunables_plus_budget():
    names = {f.name for f in dataclasses.fields(ACROConfig)}
    assert names == {"variant", "ini_pop_size", "coll_rate", "change_rate", "max_fes"}


def test_acro_init_ini_ke_from_pe_spread():
    spec = queue_objective(4, [2.0, 7.0, 10.0])
    cfg = ACROConfig(ini_pop_size=3, max_fes=1000)
    state = acro_init(spec, cfg, np.random.default_rng(0))
    assert all(m.ke == (10.0 - 2.0) * 3 for m in state.population)
    assert state.fe_count == 3
    assert state.best_pe == 2.0
    assert state.buffer == 0.0


def test_acro_init_equal_pes_give_zero_ke():
    spec = queue_objective(4, [5.0, 5.0, 5.0])
    cfg = ACROConfig(ini_pop_size=3, max_fes=1000)
    state = acro_init(spec, cfg, np.random.default_rng(1))
    assert all(m.ke == 0.0 for m in state.population)


def test_acro_init_step_size_is_half_box_width():
    inst = make_instance("f1", 30)
    cfg = ACROConfig(max_fes=3000)
    state = acro_init(as_objective(inst), cfg, np.random.default_rng(2))
    assert np.all(state.step_size == 100.0)


def test_acro_success_rule_checks_every_percent_of_budget(monkeypatch):
    # The run builds its rule with n = max_fes // 100 (at least 1); canonical
    # runs build none.
    built = []

    class RecordingRule(SuccessRule):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr("croopt.algorithms.SuccessRule", RecordingRule)
    spec = as_objective(make_instance("f1", 10))
    for max_fes in (3000, 150, 20):
        run_acro(spec, ACROConfig(max_fes=max_fes), np.random.default_rng(0))
    run_cro(spec, CROConfig(max_fes=3000), np.random.default_rng(0))
    assert built == [30, 1, 1]


def test_acro_init_draws_per_molecule_loss_rates():
    inst = make_instance("f1", 10)
    cfg = ACROConfig(max_fes=3000)
    state = acro_init(as_objective(inst), cfg, np.random.default_rng(3))
    rates = [m.loss_rate for m in state.population]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert len(set(rates)) > 1


def test_draw_loss_rate_folds_and_caps():
    assert draw_loss_rate(ScriptedRNG(normal=[-0.2])) == pytest.approx(0.2)
    assert draw_loss_rate(ScriptedRNG(normal=[1.4])) == 1.0
    rng = np.random.default_rng(4)
    draws = [draw_loss_rate(rng) for _ in range(5_000)]
    assert all(0.0 <= d <= 1.0 for d in draws)


def _choose(state, cfg, rng):
    """``_react_acro``'s choice, with its indices in range and a pair distinct."""
    reaction, molecules = _react_acro(state, cfg, rng)
    assert len(molecules) == (2 if reaction in PAIR_REACTIONS else 1)
    assert all(0 <= i < len(state.population) for i in molecules)
    assert len(set(molecules)) == len(molecules)
    return reaction, molecules


@pytest.mark.parametrize("size, threshold", [(2, 0.95), (20, 0.5), (40, 0.0)])
def test_select_feedback_threshold(size, threshold):
    # With f_pop = (size - 20) / 20, decomposition needs a second draw below
    # 0.5 * (1 - f_pop): 0.95, 0.5 and 0 for 2, 20 and 40 molecules.
    state = make_state([molecule(np.zeros(3), 1.0, 0.0) for _ in range(size)])
    cfg = ACROConfig(change_rate=1.0)  # even the largest first draw changes size

    def select(draw, integers):
        rng = ScriptedRNG(random=[np.nextafter(1.0, 0.0), draw], integers=integers)
        choice = _choose(state, cfg, rng)
        assert rng._random == [] and rng._integers == []
        return choice

    # Of two molecules the second of a pair is the other one, with no draw.
    pair_draws = [0, 0] if size > 2 else [0]
    assert select(threshold, pair_draws) == (synthesis, (0, 1))
    if threshold > 0.0:
        assert select(np.nextafter(threshold, 0.0), [size - 1]) == (decomposition, (size - 1,))


@pytest.mark.parametrize("size, random, integers, expected", [
    (1, [0.0], [], (decomposition, (0,))),
    (1, [0.5, 0.0], [], (on_wall_collision, (0,))),
    (3, [0.5, 0.0], [2, 1], (intermolecular_collision, (2, 1))),
    (3, [0.5, 0.9], [1], (on_wall_collision, (1,))),
], ids=["lone-variable", "lone-constant", "pair", "on-wall"])
def test_select_takes_every_draw_in_its_place(size, random, integers, expected):
    # The change-rate draw comes first; a lone molecule decomposes with no
    # feedback draw, and the coll_rate draw is taken even when no pair
    # exists; the index draws come last.
    state = make_state([molecule(np.zeros(3), 1.0, 0.0) for _ in range(size)])
    cfg = ACROConfig(change_rate=0.1, coll_rate=0.2)
    rng = ScriptedRNG(random=random, integers=integers)
    assert _choose(state, cfg, rng) == expected
    assert rng._random == [] and rng._integers == []


def test_select_never_synthesizes_a_lone_molecule():
    state = make_state([molecule(np.zeros(3), 1.0, 0.0)])
    cfg = ACROConfig(change_rate=1.0)
    rng = np.random.default_rng(5)
    choices = {_choose(state, cfg, rng) for _ in range(2_000)}
    assert choices == {(decomposition, (0,))}


def test_select_constant_branch_only_when_change_rate_zero():
    mols = [molecule(np.zeros(3), 1.0, 0.0) for _ in range(4)]
    state = make_state(mols)
    cfg = ACROConfig(change_rate=0.0)
    rng = np.random.default_rng(6)
    kinds = {_choose(state, cfg, rng)[0] for _ in range(2_000)}
    assert kinds == {on_wall_collision, intermolecular_collision}


def test_select_variable_branch_frequency_matches_change_rate():
    # Bernoulli(0.01) over 100k draws: std 3.1e-4, so [0.008, 0.012] is
    # a ~6 sigma bracket.
    mols = [molecule(np.zeros(3), 1.0, 0.0) for _ in range(20)]
    state = make_state(mols)
    cfg = ACROConfig(change_rate=0.01)
    rng = np.random.default_rng(7)
    variable = 0
    for _ in range(100_000):
        kind, _ = _choose(state, cfg, rng)
        variable += kind in (decomposition, synthesis)
    assert 0.008 <= variable / 100_000 <= 0.012


def test_select_is_deterministic_per_seed():
    mols = [molecule(np.zeros(3), 1.0, 0.0) for _ in range(5)]
    state = make_state(mols)
    cfg = ACROConfig(change_rate=0.3)
    rng_a = np.random.default_rng(9)
    trace_a = [_choose(state, cfg, rng_a) for _ in range(50)]
    rng_b = np.random.default_rng(9)
    trace_b = [_choose(state, cfg, rng_b) for _ in range(50)]
    assert trace_a == trace_b


def test_step_rule_grows_above_threshold():
    factors = drive_scripted_window(10, 21)
    assert factors, "no full-window checkpoints observed"
    assert all(f == pytest.approx(1 / 0.85, rel=1e-12) for f in factors)


def test_step_rule_shrinks_at_threshold():
    factors = drive_scripted_window(10, 20)
    assert all(f == pytest.approx(0.85, rel=1e-12) for f in factors)


def _feed(rule, outcomes):
    """Record ``outcomes`` into ``rule``; returns the reactor it adapted."""
    state = make_state([molecule(np.zeros(3), 1.0, 0.0)])
    for improved in outcomes:
        rule.record(state, improved)
    return state


def test_step_rule_quiet_between_checkpoints():
    state = _feed(SuccessRule(10), [True] * 9)
    assert np.all(state.step_size == 1.0)


def test_step_rule_shrinks_during_warm_up():
    # Before a full window exists the rule still fires every n updates,
    # comparing the outcomes recorded so far against the fixed 2n threshold;
    # with no successes that means one shrink per checkpoint from the start.
    state = _feed(SuccessRule(10), [False] * 90)
    assert state.step_size[0] == pytest.approx(0.85**9, rel=1e-12)


def test_success_window_slides():
    # n = 2, so the window spans 20 updates and the threshold is 4 successes.
    # 20 successes, then 20 failures: the count at the checkpoints climbs
    # 2, 4, 6, ..., 20 and then falls 18, 16, ..., 0.
    rule = SuccessRule(2)
    state = make_state([molecule(np.zeros(3), 1.0, 0.0)])
    factors = []
    for improved in [True] * 20 + [False] * 20:
        previous = state.step_size[0]
        rule.record(state, improved)
        if state.step_size[0] != previous:
            factors.append(round(state.step_size[0] / previous, 12))
    grow, shrink = round(1 / 0.85, 12), 0.85
    assert factors == [shrink] * 2 + [grow] * 8 + [grow] * 7 + [shrink] * 3


def test_cro_d_step_decay_after_exact_budget():
    inst = make_instance("f1", 30)
    cfg = default_config("CRO/D", max_fes=10_000)
    result = run_cro(as_objective(inst), cfg, np.random.default_rng(10))
    assert result.fe_count == 10_000
    assert np.all(np.abs(result.state.step_size - 0.99**100) <= 1e-12)


def test_cro_population_constant_when_thresholds_disable_changes():
    inst = make_instance("f1", 10)
    cfg = CROConfig(dec_thres=1e18, syn_thres=0.0, max_fes=3_000)
    sizes = set()
    run_cro(
        as_objective(inst),
        cfg,
        np.random.default_rng(11),
        observer=lambda s: sizes.add(len(s.population)),
    )
    assert sizes == {20}


def test_run_acro_budget_equal_to_population_does_nothing_else():
    inst = make_instance("f1", 10)
    cfg = ACROConfig(ini_pop_size=20, max_fes=20)
    result = run_acro(as_objective(inst), cfg, np.random.default_rng(12))
    assert result.fe_count == 20
    assert len(result.state.population) == 20
    assert all(m.num_hit == 0 for m in result.state.population)
    assert result.best_pe == min(m.pe for m in result.state.population)
    assert len(result.trace) == 100


def test_run_acro_rejects_undersized_budget():
    inst = make_instance("f1", 10)
    with pytest.raises(InvalidConfig):
        run_acro(as_objective(inst), ACROConfig(max_fes=19), np.random.default_rng(0))


@pytest.mark.parametrize(
    "cfg",
    [
        ACROConfig(coll_rate=1.5),
        ACROConfig(change_rate=-0.1),
        ACROConfig(ini_pop_size=0),
        CROConfig(step_size=0.0),
        CROConfig(loss_rate=1.2),
        CROConfig(ini_buffer=-1.0),
        CROConfig(variant=Variant.CRO_D, adapt_rate=1.0),
        ACROConfig(max_fes=3000.0),
        ACROConfig(ini_pop_size=2.5),
        ACROConfig(ini_pop_size=True),
        CROConfig(max_fes=True, ini_pop_size=1),
        CROConfig(variant=Variant.CRO_D, adapt_interval=2.5),
        CROConfig(variant=Variant.CRO_D, adapt_interval=True),
        CROConfig(ini_ke=np.inf),
        CROConfig(ini_buffer=np.inf),
        # Real fields take an int, a float or a numpy real: no str, no bool.
        ACROConfig(variant="ACRO/BP"),
        ACROConfig(coll_rate="0.2"),
        ACROConfig(change_rate=True),
        CROConfig(ini_ke="1e7"),
        CROConfig(ini_buffer="1e5"),
        CROConfig(loss_rate=True),
        CROConfig(dec_thres="1.5e5"),
        CROConfig(syn_thres=True),
        CROConfig(step_size="1.0"),
        CROConfig(step_size=np.inf),
        CROConfig(variant=Variant.CRO_D, adapt_rate="0.99"),
    ],
)
def test_invalid_configs_rejected(cfg):
    inst = make_instance("f1", 10)
    runner = run_acro if isinstance(cfg, ACROConfig) else run_cro
    with pytest.raises(InvalidConfig) as rejected:
        runner(as_objective(inst), cfg, np.random.default_rng(0))
    # The message names a field that differs from the variant's defaults.
    default = type(cfg)(variant=cfg.variant) if isinstance(cfg.variant, Variant) else type(cfg)()
    changed = [f.name for f in dataclasses.fields(cfg)
               if getattr(cfg, f.name) != getattr(default, f.name)]
    assert str(rejected.value).split()[0] in changed


def test_real_fields_accept_ints_and_numpy_reals():
    validate_config(ACROConfig(coll_rate=0, change_rate=np.float32(1e-4)))
    validate_config(CROConfig(variant=Variant.CRO_D, ini_ke=10**7, ini_buffer=np.int64(0),
                              loss_rate=np.float64(0.1), dec_thres=150_000, syn_thres=np.int8(10),
                              step_size=np.float16(1.0), adapt_rate=np.float32(0.99)))


@pytest.mark.parametrize("runner, make", [
    (run_acro, lambda n: ACROConfig(ini_pop_size=n(20), max_fes=n(3000))),
    (run_cro, lambda n: CROConfig(variant=Variant.CRO_D, ini_pop_size=n(20),
                                  adapt_interval=n(10), max_fes=n(3000))),
], ids=["ACRO/BP", "CRO/D"])
def test_numpy_integer_counts_give_the_run_of_equal_ints(runner, make):
    spec = as_objective(make_instance("f16", 10))
    plain = runner(spec, make(int), np.random.default_rng(1))
    numpy_ints = runner(spec, make(np.int64), np.random.default_rng(1))
    assert numpy_ints.best_pe == plain.best_pe
    assert np.array_equal(numpy_ints.best_solution, plain.best_solution)
    assert numpy_ints.trace == plain.trace
    assert all(type(fe) is int for fe, _ in numpy_ints.trace)


def test_config_type_must_match_runner():
    inst = make_instance("f1", 10)
    with pytest.raises(InvalidConfig):
        run_acro(as_objective(inst), CROConfig(max_fes=1000), np.random.default_rng(0))
    with pytest.raises(InvalidConfig):
        run_cro(as_objective(inst), ACROConfig(max_fes=1000), np.random.default_rng(0))
    # The config type is checked before the box.
    mismatched = ObjectiveSpec([0.0, 0.0], [1.0], lambda x: 0.0)
    with pytest.raises(InvalidConfig, match="adaptive runs take an ACROConfig"):
        run_acro(mismatched, CROConfig(max_fes=1000), np.random.default_rng(0))
    with pytest.raises(InvalidConfig, match="canonical runs take a CROConfig"):
        run_cro(mismatched, ACROConfig(max_fes=1000), np.random.default_rng(0))


def test_runs_are_bit_reproducible():
    inst = make_instance("f15", 10)
    cfg = ACROConfig(max_fes=5_000)
    a = run_acro(as_objective(inst), cfg, np.random.default_rng(42))
    b = run_acro(as_objective(inst), cfg, np.random.default_rng(42))
    assert a.best_pe == b.best_pe
    assert a.trace == b.trace
    assert np.array_equal(a.best_solution, b.best_solution)
    assert a.fe_count == b.fe_count


class ForwardingRNG:
    """Forwards the four draws the library makes to a Generator without
    being one, so a run takes numpy's own methods for every draw."""

    def __init__(self, rng):
        self.integers = rng.integers
        self.normal = rng.normal
        self.uniform = rng.uniform
        self.random = rng.random


def run_outcome(result):
    state = result.state
    return (
        result.best_pe, result.best_solution.tobytes(), result.trace, result.fe_count,
        state.buffer, state.step_size.tobytes(),
        [(m.structure.tobytes(), m.pe, m.ke, m.loss_rate) for m in state.population],
    )


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_replayed_draws_give_the_runs_of_generator_methods(variant):
    runner = run_acro if variant.adaptive else run_cro
    cfg = default_config(variant, max_fes=3_000)
    for func in ("f1", "f16"):
        spec = as_objective(make_instance(func, 10))
        for seed in (1, 2):
            replayed = np.random.default_rng(seed)
            forwarded = np.random.default_rng(seed)
            a = runner(spec, cfg, replayed)
            b = runner(spec, cfg, ForwardingRNG(forwarded))
            assert run_outcome(a) == run_outcome(b)
            assert replayed.bit_generator.state == forwarded.bit_generator.state


def test_list_bounds_give_the_run_of_array_bounds():
    # Lists and integer arrays give the run of the float64 box they convert to.
    spec = as_objective(make_instance("f16", 10))
    cfg = ACROConfig(variant=Variant.ACRO_HP, change_rate=0.05, max_fes=3_000)
    expected = run_outcome(run_acro(spec, cfg, np.random.default_rng(3)))
    for lower, upper in ((spec.lower.tolist(), spec.upper.tolist()),
                         (spec.lower.astype(int), spec.upper.astype(int))):
        result = run_acro(ObjectiveSpec(lower, upper, spec.evaluate), cfg,
                          np.random.default_rng(3))
        assert run_outcome(result) == expected
        state = result.state
        assert (result.best_pe, result.fe_count) == (state.best_pe, state.fe_count)
        assert result.best_solution is state.best_solution


def test_integer_bounds_beyond_float_precision_repair_inside_the_box():
    # The int64 width of a +-2**62 box overflows; repairs use the float64 box.
    lower, upper = np.full(2, -2**62), np.full(2, 2**62)
    escaped = []

    def observer(state):
        escaped.extend(m.structure for m in state.population
                       if ((m.structure < -2.0**62) | (m.structure > 2.0**62)).any())

    cfg = CROConfig(dec_thres=0.0, step_size=1e19, max_fes=4_000)
    result = run_cro(ObjectiveSpec(lower, upper, lambda x: 0.0), cfg,
                     np.random.default_rng(0), observer=observer)
    assert result.fe_count == 4_000
    assert not escaped


def test_population_changes_by_at_most_one_per_iteration():
    inst = make_instance("f15", 10)
    cfg = ACROConfig(change_rate=0.05, max_fes=5_000)  # frequent changes
    sizes = []
    run_acro(
        as_objective(inst),
        cfg,
        np.random.default_rng(13),
        observer=lambda s: sizes.append(len(s.population)),
    )
    deltas = {b - a for a, b in zip(sizes, sizes[1:])}
    assert deltas <= {-1, 0, 1}
    assert len(set(sizes)) > 1


def test_population_stays_near_initial_size():
    inst = make_instance("f1", 30)
    cfg = ACROConfig(max_fes=60_000)
    sizes = []
    run_acro(
        as_objective(inst),
        cfg,
        np.random.default_rng(14),
        observer=lambda s: sizes.append(len(s.population)),
    )
    assert 1 <= min(sizes) and max(sizes) <= 3 * cfg.ini_pop_size


def _box(lower, upper):
    return ObjectiveSpec(lower, upper, lambda x: float(x @ x))


@pytest.mark.parametrize(
    "spec, error",
    [
        (_box(np.full(2, -1.0), np.full(3, 1.0)), DimensionMismatch),
        (_box(np.full(3, -1.0), np.full((3, 1), 1.0)), DimensionMismatch),
        (_box(np.zeros(0), np.zeros(0)), DimensionMismatch),
        (_box(np.array([-1.0, np.nan, -1.0]), np.full(3, 1.0)), InvalidConfig),
        (_box(np.full(3, -1.0), np.array([1.0, 1.0, np.inf])), InvalidConfig),
        (_box(np.full(3, -1.0), np.array([1.0, -1.0, 1.0])), InvalidConfig),
        (_box(np.full(3, 1.0), np.full(3, -1.0)), InvalidConfig),
        (_box(np.full(3, -1e308), np.full(3, 1e308)), InvalidConfig),
        (_box(np.full((2, 3), -1.0), np.full((2, 3), 1.0)), DimensionMismatch),
        (_box(["a", "b"], [1.0, 1.0]), InvalidConfig),
        (_box(np.array(["-1", "-1"]), np.full(2, 1.0)), InvalidConfig),
        (_box(np.full(2, -1.0 + 0j), np.full(2, 1.0)), InvalidConfig),
        (_box([-1.0, -1.0], [1.0 + 0j, 1.0]), InvalidConfig),
        (_box(np.array([-1.0, -1.0], dtype=object), np.full(2, 1.0)), InvalidConfig),
        (_box([-1.0, [-1.0]], [1.0, 1.0]), DimensionMismatch),
        (_box([True, -1.0], [1.0, 1.0]), InvalidConfig),
    ],
    ids=["lower-length", "upper-shape", "zero-dimension", "nan-bound",
         "infinite-bound", "empty-interval", "swapped-bounds", "width-overflow",
         "2d-bounds", "string-list", "string-array", "complex-array",
         "complex-list", "object-array", "ragged-list", "bool-in-list"],
)
@pytest.mark.parametrize("runner, cfg", [(run_acro, ACROConfig(max_fes=100)),
                                         (run_cro, CROConfig(max_fes=100))])
def test_runs_reject_malformed_boxes_before_drawing(spec, error, runner, cfg):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(error):
        runner(spec, cfg, rng)
    assert rng.bit_generator.state == before


def test_step_size_stays_positive():
    inst = make_instance("f1", 10)
    cfg = ACROConfig(max_fes=20_000)
    result = run_acro(as_objective(inst), cfg, np.random.default_rng(15))
    assert np.all(result.state.step_size > 0.0)


def test_cro_init_uses_global_knobs():
    inst = make_instance("f1", 10)
    cfg = CROConfig(max_fes=1000)
    state = cro_init(as_objective(inst), cfg, np.random.default_rng(16))
    assert state.buffer == 1e5
    assert all(m.ke == 1e7 for m in state.population)
    assert all(m.loss_rate == 0.1 for m in state.population)
    assert np.all(state.step_size == 1.0)
    assert state.child_loss_rate is None
