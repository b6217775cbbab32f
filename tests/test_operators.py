import numpy as np
import pytest

from croopt.operators import (
    BoundaryRule,
    SynthesisRule,
    apply_boundary,
    decompose_structure,
    neighborhood_search,
    synthesize_structure,
)

from helpers import box_bounds

BP = BoundaryRule.BP
HP = BoundaryRule.HP
PS = SynthesisRule.PROBABILISTIC_SELECT
BLX = SynthesisRule.BLX05


def test_neighborhood_zero_step_is_identity():
    rng = np.random.default_rng(0)
    lower, upper = box_bounds(6)
    s = rng.uniform(lower, upper)
    out = neighborhood_search(s, np.zeros(6), lower, upper, BP, rng)
    assert np.array_equal(out, s)


def test_neighborhood_changes_exactly_one_coordinate():
    rng = np.random.default_rng(1)
    lower, upper = box_bounds(12)
    step = np.full(12, 5.0)
    for _ in range(300):
        s = rng.uniform(lower, upper)
        out = neighborhood_search(s, step, lower, upper, BP, rng)
        assert int(np.sum(out != s)) == 1


def test_neighborhood_gaussian_width():
    # With the box wide enough that boundary repair never triggers, the
    # changed coordinate is exactly s_i + N(0, step^2). Sample std of 10k
    # N(0, 100) draws has std ~0.7, so [97, 103] is a ~4 sigma bracket.
    rng = np.random.default_rng(2)
    lower, upper = box_bounds(5, bound=1e6)
    step = np.full(5, 100.0)
    s = np.zeros(5)
    deltas = []
    for _ in range(10_000):
        out = neighborhood_search(s, step, lower, upper, BP, rng)
        deltas.append(out[out != 0.0][0] if np.any(out != 0.0) else 0.0)
    assert 97.0 <= np.std(deltas) <= 103.0


@pytest.mark.parametrize("rule", [BP, HP])
def test_neighborhood_stays_in_bounds(rule):
    rng = np.random.default_rng(3)
    lower, upper = box_bounds(4, bound=1.0)
    step = np.full(4, 100.0)  # nearly every raw draw violates the box
    for _ in range(2_000):
        s = rng.uniform(lower, upper)
        out = neighborhood_search(s, step, lower, upper, rule, rng)
        assert np.all(out >= lower) and np.all(out <= upper)


def test_neighborhood_does_not_mutate_input():
    rng = np.random.default_rng(4)
    s = np.array([1.0, 2.0, 3.0])
    original = s.copy()
    neighborhood_search(s, np.ones(3), *box_bounds(3), BP, rng)
    assert np.array_equal(s, original)


@pytest.mark.parametrize("rule", [BP, HP])
def test_apply_boundary_passthrough(rule):
    rng = np.random.default_rng(5)
    assert apply_boundary(50.0, -100.0, 100.0, rule, rng) == 50.0


def test_apply_boundary_bp_resamples_uniformly():
    # Uniform[-100, 100] has mean 0 and std 57.7; the mean of 10k draws has
    # std 0.58, so [-2, 2] is a ~3.5 sigma bracket.
    rng = np.random.default_rng(6)
    draws = [apply_boundary(150.0, -100.0, 100.0, BP, rng) for _ in range(10_000)]
    assert all(-100.0 <= v <= 100.0 for v in draws)
    assert -2.0 <= np.mean(draws) <= 2.0


def test_apply_boundary_hp_clamps_half_the_time():
    # The clamp coin is fair: 10k trials give std 0.5%, so +-3% is ~6 sigma.
    rng = np.random.default_rng(7)
    draws = [apply_boundary(150.0, -100.0, 100.0, HP, rng) for _ in range(10_000)]
    clamped = sum(v == 100.0 for v in draws)
    assert 0.47 <= clamped / 10_000 <= 0.53
    assert all(-100.0 <= v <= 100.0 for v in draws)


def test_apply_boundary_hp_clamps_to_violated_bound():
    rng = np.random.default_rng(8)
    lows = [apply_boundary(-150.0, -100.0, 100.0, HP, rng) for _ in range(200)]
    assert any(v == -100.0 for v in lows)
    assert not any(v == 100.0 for v in lows)


def test_decompose_zero_step_copies_parent():
    rng = np.random.default_rng(9)
    lower, upper = box_bounds(8)
    s = rng.uniform(lower, upper)
    c1, c2 = decompose_structure(s, np.zeros(8), lower, upper, BP, rng)
    assert np.array_equal(c1, s) and np.array_equal(c2, s)


def test_decompose_modifies_binomial_half_of_coordinates():
    # Each element is perturbed with probability 0.5: Binomial(30, 0.5) has
    # mean 15; the mean over 2000 child samples has std ~0.06, so
    # [14.4, 15.6] is a ~10 sigma bracket.
    rng = np.random.default_rng(10)
    lower, upper = box_bounds(30, bound=1e9)
    step = np.ones(30)
    s = np.zeros(30)
    counts = []
    for _ in range(1_000):
        for child in decompose_structure(s, step, lower, upper, BP, rng):
            counts.append(int(np.sum(child != s)))
    assert 14.4 <= np.mean(counts) <= 15.6


def test_decompose_children_stay_in_bounds():
    rng = np.random.default_rng(11)
    lower, upper = box_bounds(6, bound=1.0)
    step = np.full(6, 50.0)
    for _ in range(2_000):
        s = rng.uniform(lower, upper)
        for child in decompose_structure(s, step, lower, upper, BP, rng):
            assert np.all(child >= lower) and np.all(child <= upper)


def test_decompose_does_not_mutate_input():
    rng = np.random.default_rng(12)
    s = np.linspace(-1, 1, 5)
    original = s.copy()
    decompose_structure(s, np.ones(5), *box_bounds(5), BP, rng)
    assert np.array_equal(s, original)


@pytest.mark.parametrize("rule", [PS, BLX])
def test_synthesize_identical_parents(rule):
    rng = np.random.default_rng(13)
    a = np.array([3.0, -2.0, 0.5])
    out = synthesize_structure(a, a.copy(), rule, *box_bounds(3), rng, BP)
    assert np.array_equal(out, a)


def test_probabilistic_select_is_fair():
    # Per-element pick frequency over 10k draws has std 0.005, so
    # [0.47, 0.53] is a ~6 sigma bracket per element.
    rng = np.random.default_rng(14)
    a, b = np.zeros(30), np.ones(30)
    lower, upper = box_bounds(30)
    picks = np.zeros(30)
    for _ in range(10_000):
        out = synthesize_structure(a, b, PS, lower, upper, rng, BP)
        assert set(np.unique(out)) <= {0.0, 1.0}
        picks += out
    freqs = picks / 10_000
    assert np.all(freqs >= 0.47) and np.all(freqs <= 0.53)


def test_blx_blends_uniformly_over_widened_interval():
    # Parents 0 and 2 widen to Uniform[-1, 3]: mean 1, std 1.155; the mean
    # of 10k draws has std 0.012, so [0.9, 1.1] is a ~9 sigma bracket.
    rng = np.random.default_rng(15)
    a, b = np.zeros(4), np.full(4, 2.0)
    lower, upper = box_bounds(4, bound=10.0)
    values = []
    for _ in range(10_000):
        out = synthesize_structure(a, b, BLX, lower, upper, rng, BP)
        assert np.all(out >= -1.0) and np.all(out <= 3.0)
        values.extend(out.tolist())
    assert 0.9 <= np.mean(values) <= 1.1


def test_blx_repairs_bounds_near_walls():
    rng = np.random.default_rng(16)
    lower, upper = box_bounds(3, bound=1.0)
    a, b = np.full(3, -1.0), np.full(3, 1.0)  # blend interval [-2, 2]
    for _ in range(2_000):
        out = synthesize_structure(a, b, BLX, lower, upper, rng, BP)
        assert np.all(out >= lower) and np.all(out <= upper)


@pytest.mark.parametrize("rule", [PS, BLX])
def test_synthesize_does_not_mutate_inputs(rule):
    rng = np.random.default_rng(18)
    a, b = np.array([0.1, 0.2]), np.array([0.9, 0.8])
    ca, cb = a.copy(), b.copy()
    synthesize_structure(a, b, rule, *box_bounds(2), rng, BP)
    assert np.array_equal(a, ca) and np.array_equal(b, cb)
