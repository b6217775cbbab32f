import numpy as np
import pytest

from croopt.benchmarks import (
    FUNCTION_TABLE,
    TransformData,
    ackley,
    as_objective,
    evaluate_benchmark,
    generate_transform,
    instance_from_cec_dir,
    make_instance,
    optimal_point,
    parse_func_id,
    schwefel_1_2,
    schwefel_2_26,
    u_penalty,
)
from croopt.errors import DimensionMismatch, FormatError

SEED = 901


def test_u_penalty_piecewise_cases():
    assert u_penalty(np.array([6.0]), 5.0) == 100.0
    assert u_penalty(np.array([3.0]), 5.0) == 0.0
    assert u_penalty(np.array([-7.0]), 5.0) == 1600.0
    assert u_penalty(np.array([6.0, 3.0, -7.0]), 5.0) == 1700.0


def test_scale_factors_match_table():
    expected = {
        1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0,
        6: 0.1, 7: 0.1, 8: 0.3, 9: 0.3, 10: 1.0,
        11: 0.32, 12: 0.32, 13: 5.0, 14: 5.0,
        15: 0.0512, 16: 0.0512, 17: 6.0, 18: 6.0,
        19: 0.1, 20: 0.1, 21: 0.5, 22: 0.5, 23: 0.5, 24: 0.5,
    }
    assert {d.id: d.scale for d in FUNCTION_TABLE} == expected


def test_weighted_sphere_formula():
    # Inner sum over the outer index: sum_i i * z_i^2.
    assert schwefel_1_2(np.array([1.0, 1.0, 1.0])) == 6.0
    assert schwefel_1_2(np.array([2.0, 0.0, -1.0])) == 7.0


def test_ackley_vanishes_at_origin():
    assert ackley(np.zeros(30)) == pytest.approx(0.0, abs=1e-12)


def test_f1_is_zero_at_shift():
    inst = make_instance("f1", 30, SEED)
    assert evaluate_benchmark(inst, inst.transform.shift) == 0.0


def test_f15_unit_vector_gives_rastrigin_one():
    inst = make_instance("f15", 30, SEED)
    x = inst.transform.shift.copy()
    x[0] += 1.0 / inst.transform.scale  # z = e_1
    assert evaluate_benchmark(inst, x) == pytest.approx(1.0, abs=1e-9)
    assert evaluate_benchmark(inst, inst.transform.shift) == 0.0


def test_f13_known_optimum():
    inst = make_instance("f13", 30, SEED)
    x = np.full(30, 84.19374)  # z = 5x = 420.9687 per coordinate
    assert evaluate_benchmark(inst, x) < 1e-3


@pytest.mark.parametrize("fdef", FUNCTION_TABLE, ids=lambda d: f"f{d.id}")
def test_constructed_optima(fdef):
    # The 418.9829 constant truncates the true 418.98288727..., leaving a
    # floor of ~1.27e-5 per dimension for the Schwefel 2.26 pair.
    inst = make_instance(fdef.id, 30, SEED)
    tol = 1e-3 if fdef.base is schwefel_2_26 else 1e-6
    assert abs(evaluate_benchmark(inst, optimal_point(inst))) < tol


def test_rotation_invariance_of_optimum_value():
    for rotated_id, plain_id in ((3, 2), (9, 8), (14, 13), (20, 19), (24, 23)):
        rotated = make_instance(rotated_id, 30, SEED)
        plain = make_instance(plain_id, 30, SEED)
        assert evaluate_benchmark(rotated, optimal_point(rotated)) == pytest.approx(
            evaluate_benchmark(plain, optimal_point(plain)), abs=1e-6
        )


def test_shifted_optima_stay_in_the_box_for_unrotated_instances():
    for fdef in FUNCTION_TABLE:
        if fdef.shifted and not fdef.rotated:
            inst = make_instance(fdef.id, 30, SEED)
            x = optimal_point(inst)
            assert np.all(np.abs(x) <= 100.0)


def test_transforms_identity_when_unrotated_zero_when_unshifted():
    t1 = generate_transform(SEED, 1, 30)
    assert np.array_equal(t1.rotation, np.eye(30))
    t13 = generate_transform(SEED, 13, 30)
    assert np.array_equal(t13.shift, np.zeros(30))
    assert np.array_equal(t13.rotation, np.eye(30))


def test_rotation_is_orthogonal_with_unit_determinant():
    t = generate_transform(SEED, 3, 30)
    assert np.max(np.abs(t.rotation.T @ t.rotation - np.eye(30))) <= 1e-10
    assert abs(abs(np.linalg.det(t.rotation)) - 1.0) <= 1e-8


def test_shift_envelope():
    for fdef in FUNCTION_TABLE:
        t = generate_transform(SEED, fdef.id, 30)
        assert np.max(np.abs(t.shift)) <= 80.0


def test_transform_generation_is_deterministic():
    a = generate_transform(SEED, 16, 30)
    b = generate_transform(SEED, 16, 30)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)
    c = generate_transform(SEED + 1, 16, 30)
    assert not np.array_equal(a.shift, c.shift)


def test_cec_shift_fixture_parses(tmp_path):
    values = np.linspace(-75.0, 75.0, 30)
    path = tmp_path / "f1_shift.txt"
    path.write_text(" ".join(f"{v:.6f}" for v in values[:15]) + "\n"
                    + " ".join(f"{v:.6f}" for v in values[15:]) + "\n")
    shift = instance_from_cec_dir(1, 30, tmp_path).transform.shift
    assert shift.shape == (30,)
    assert shift[0] == pytest.approx(-75.0)
    with pytest.raises(FormatError, match="found 30 values, need 31"):
        instance_from_cec_dir(1, 31, tmp_path)


def test_cec_rejects_truncated_rotation_and_bad_numbers(tmp_path):
    dim = 4
    (tmp_path / "f3_shift.txt").write_text(" ".join(["1.5"] * dim))
    (tmp_path / "f3_M.txt").write_text(" ".join(["0.0"] * (dim * dim - 1)))
    with pytest.raises(FormatError, match="found 15 values, need 16"):
        instance_from_cec_dir(3, dim, tmp_path)
    (tmp_path / "f3_shift.txt").write_text("1.5 2.5 x3 4.5")
    with pytest.raises(FormatError, match="bad number"):
        instance_from_cec_dir(3, dim, tmp_path)


@pytest.mark.parametrize("transform", [
    TransformData([0.0, 0.0, 0.0], np.eye(3), 1.0),
    TransformData(np.zeros(3), np.eye(3).tolist(), 1.0),
    TransformData(np.zeros(3, dtype=object), np.eye(3), 1.0),
    TransformData(np.zeros(3), np.eye(3, dtype=complex), 1.0),
], ids=["list-shift", "list-rotation", "object-shift", "complex-rotation"])
def test_instances_reject_transform_data_that_is_not_a_real_array(transform):
    with pytest.raises(FormatError, match="real numpy arrays"):
        make_instance("f1", 3, transform=transform)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instances_reject_non_finite_transform_data(bad, tmp_path):
    dim = 4
    good = generate_transform(SEED, 3, dim)
    shift = good.shift.copy()
    shift[2] = bad
    rotation = good.rotation.copy()
    rotation[1, 3] = bad
    for transform in (TransformData(shift, good.rotation, good.scale),
                      TransformData(good.shift, rotation, good.scale)):
        with pytest.raises(FormatError, match="not finite"):
            make_instance(3, dim, transform=transform)
    (tmp_path / "f1_shift.txt").write_text(" ".join([repr(float(bad))] * dim))
    with pytest.raises(FormatError, match="not finite"):
        instance_from_cec_dir(1, dim, tmp_path)


@pytest.mark.parametrize("dim", [0, -1, True])
def test_instances_reject_dimensions_below_one(dim, tmp_path):
    with pytest.raises(DimensionMismatch, match="positive integer"):
        make_instance("f1", dim)
    with pytest.raises(DimensionMismatch, match="positive integer"):
        instance_from_cec_dir(3, dim, tmp_path)


@pytest.mark.parametrize("seed", [1.5, True, "7", -1])
def test_instances_reject_transform_seeds_off_the_integer_rule(seed):
    with pytest.raises(FormatError, match="transform seed"):
        make_instance("f1", 3, transform_seed=seed)


def test_cec_instance_import(tmp_path):
    dim = 8
    shift = np.linspace(-10, 10, dim)
    rotation = generate_transform(SEED, 3, dim).rotation
    (tmp_path / "f3_shift.txt").write_text(" ".join(repr(float(v)) for v in shift))
    (tmp_path / "f3_M.txt").write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in rotation)
    )
    inst = instance_from_cec_dir(3, dim, tmp_path)
    assert np.allclose(inst.transform.shift, shift)
    assert np.array_equal(inst.transform.rotation, rotation)
    assert evaluate_benchmark(inst, optimal_point(inst)) < 1e-6


def test_all_instances_finite_on_random_points():
    rng = np.random.default_rng(17)
    for inst in [make_instance(i, 10, SEED) for i in range(1, 25)]:
        for _ in range(420):  # 24 x 420 > 10k points across the suite
            x = rng.uniform(-100.0, 100.0, 10)
            assert np.isfinite(evaluate_benchmark(inst, x))


def test_evaluation_is_pure():
    inst = make_instance("f18", 10, SEED)
    x = np.random.default_rng(18).uniform(-100, 100, 10)
    assert evaluate_benchmark(inst, x) == evaluate_benchmark(inst, x)


def test_dimension_mismatch():
    inst = make_instance("f1", 10, SEED)
    with pytest.raises(DimensionMismatch):
        evaluate_benchmark(inst, np.zeros(11))


def test_parse_func_id_variants():
    assert parse_func_id("f7") == 7
    assert parse_func_id("24") == 24
    assert parse_func_id(1) == 1
    with pytest.raises(FormatError):
        parse_func_id("f25")
    with pytest.raises(FormatError):
        parse_func_id("spam")
    for not_an_id in (True, 3.0, [1]):
        with pytest.raises(FormatError):
            parse_func_id(not_an_id)


def test_objective_wrapper_counts_dimension_and_bounds():
    inst = make_instance("f4", 12, SEED)
    spec = as_objective(inst)
    assert len(spec.lower) == 12
    assert np.all(spec.lower == -100.0) and np.all(spec.upper == 100.0)
    x = np.zeros(12)
    z = (x - inst.transform.shift) * inst.transform.scale
    assert spec.evaluate(x) == pytest.approx(np.max(np.abs(z)))
