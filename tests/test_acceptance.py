"""Acceptance gates at full protocol scale (dimension 30, 300k evaluations).

Each test prints one pass/fail line so the whole gate reads as a checklist
under ``pytest -s``. The heavy fixture runs the three adaptive variants on
f1/f2/f19 for five seeds each (plus the canonical baseline), which takes a
few minutes on one core.
"""

import filecmp

import numpy as np
import pytest

from croopt.algorithms import (
    ACROConfig,
    default_config,
    draw_loss_rate,
    run_acro,
    run_cro,
    select_reaction_acro,
)
from croopt.benchmarks import (
    FUNCTION_TABLE,
    make_instance,
    as_objective,
    evaluate_benchmark,
    optimal_point,
    schwefel_2_26,
    u_penalty,
)
from croopt.cli import main
from croopt.harness import run_experiment
from croopt.reactions import decomposition

from helpers import REACTIONS, collect_conserved, drive_scripted_window, make_state, molecule

BUDGET = 300_000
RUNS = 5
BASE_SEED = 1
ZERO = 1e-8


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def protocol_records():
    instances = [make_instance(fid, 30) for fid in ("f1", "f2", "f19")]
    _, adaptive = run_experiment(
        [default_config(name, BUDGET) for name in ("ACRO/BP", "ACRO/HP", "ACRO/BB")],
        instances,
        runs=RUNS,
        base_seed=BASE_SEED,
    )
    _, canonical = run_experiment(
        [default_config("CRO/BP", BUDGET)],
        [make_instance("f1", 30)],
        runs=RUNS,
        base_seed=BASE_SEED,
    )
    return adaptive + canonical


def _cell(records, algorithm, benchmark):
    return [
        r.final_reported for r in records
        if r.algorithm == algorithm and r.benchmark == benchmark
    ]


def test_criterion_01_zero_reaching_functions(protocol_records):
    details = []
    ok = True
    for algorithm in ("ACRO/BP", "ACRO/HP", "ACRO/BB"):
        for benchmark in ("f1", "f2", "f19"):
            finals = _cell(protocol_records, algorithm, benchmark)
            zeros = sum(v == 0.0 for v in finals)
            ok &= len(finals) == RUNS and zeros >= 4
            details.append(f"{algorithm} {benchmark}: {zeros}/{RUNS}")
    assert _report(1, ok, "zero runs " + ", ".join(details))


def test_criterion_02_adaptive_beats_canonical_on_f1(protocol_records):
    adaptive = float(np.median(_cell(protocol_records, "ACRO/BP", "f1")))
    canonical = float(np.median(_cell(protocol_records, "CRO/BP", "f1")))
    ok = adaptive < canonical and 0.0 < canonical < 1e-3
    assert _report(
        2, ok, f"median ACRO/BP {adaptive:.3e} < median CRO/BP {canonical:.3e} in (0, 1e-3)"
    )


def test_criterion_03_deterministic_step_decay():
    inst = make_instance("f1", 30)
    cfg = default_config("CRO/D", max_fes=10_000)
    result = run_cro(as_objective(inst), cfg, np.random.default_rng(3))
    expected = 0.99**100
    worst = float(np.max(np.abs(result.state.step_size - expected)))
    ok = result.fe_count == 10_000 and worst <= 1e-12
    assert _report(
        3, ok, f"step after 10000 evaluations within {worst:.2e} of 0.99^100 = {expected:.5f}"
    )


def test_criterion_04_energy_conservation_suite():
    details = []
    ok = True
    for index, kind in enumerate(REACTIONS):
        worst = collect_conserved(kind, required=1_000, seed=4_000 + index)
        ok &= worst <= 1e-9
        details.append(f"{kind.__name__}: {worst:.2e}")
    assert _report(4, ok, "max relative drift " + ", ".join(details))


def test_criterion_05_feedback_controller_oracle():
    # Independent oracle: the Bernoulli realization of the feedback terms,
    # i.e. P(decomposition) = clamp(f_dec, 0, 1) for cur >= 2 and exactly 1
    # for a lone molecule. 1e6 draws give std <= 5e-4 per frequency, so the
    # 0.005 bracket is ~10 sigma.
    ini = 20
    draws = 1_000_000
    cfg = ACROConfig(ini_pop_size=ini, change_rate=1.0)
    rng = np.random.default_rng(5)
    stub = molecule(np.zeros(3), 1.0, 0.0)
    state = make_state([stub])
    worst = 0.0
    ok = True
    for cur in range(1, 61):
        state.population = [stub] * cur
        dec = syn = 0
        for _ in range(draws):
            kind = select_reaction_acro(state, cfg, rng)
            if kind is decomposition:
                dec += 1
            else:
                syn += 1
        if cur < 2:
            expected_dec = 1.0
            ok &= syn == 0
        else:
            f_dec = 0.5 * (1.0 - (cur - ini) / ini)
            expected_dec = min(max(f_dec, 0.0), 1.0)
        error = abs(dec / draws - expected_dec)
        worst = max(worst, error)
        ok &= error <= 0.005
    assert _report(5, ok, f"worst |freq - expected| = {worst:.4f} over cur in [1, 60]")


def test_criterion_06_success_rule_oracle():
    grow = drive_scripted_window(10, 21)
    shrink = drive_scripted_window(10, 20)
    ok = (
        len(grow) > 0
        and all(abs(f - 1 / 0.85) < 1e-12 for f in grow)
        and all(abs(f - 0.85) < 1e-12 for f in shrink)
    )
    assert _report(
        6, ok,
        f"2n+1 successes -> x{grow[0]:.6f} at {len(grow)} checkpoints, "
        f"2n -> x{shrink[0]:.6f}",
    )


def test_criterion_07_folded_normal_loss_rate():
    rng = np.random.default_rng(7)
    draws = np.array([draw_loss_rate(rng) for _ in range(100_000)])
    mean = float(draws.mean())
    ok = 0.232 <= mean <= 0.246 and draws.min() >= 0.0 and draws.max() <= 1.0
    assert _report(
        7, ok, f"mean {mean:.4f} in [0.232, 0.246], range [{draws.min():.3f}, {draws.max():.3f}]"
    )


def test_criterion_08_benchmark_golden_values():
    ok = True
    worst_plain = 0.0
    worst_226 = 0.0
    for fdef in FUNCTION_TABLE:
        inst = make_instance(fdef.id, 30)
        residual = abs(evaluate_benchmark(inst, optimal_point(inst)))
        if fdef.base is schwefel_2_26:
            ok &= residual < 1e-3
            worst_226 = max(worst_226, residual)
        else:
            ok &= residual < 1e-6
            worst_plain = max(worst_plain, residual)
    ok &= u_penalty(np.array([6.0]), 5.0) == 100.0
    ok &= u_penalty(np.array([3.0]), 5.0) == 0.0
    ok &= u_penalty(np.array([-7.0]), 5.0) == 1600.0
    inst13 = make_instance("f13", 30)
    schwefel_at_known = evaluate_benchmark(inst13, np.full(30, 84.19374))
    ok &= schwefel_at_known < 1e-3
    assert _report(
        8, ok,
        f"worst residual {worst_plain:.2e} (<1e-6), Schwefel 2.26 pair {worst_226:.2e} "
        f"(<1e-3), u cases exact, f13 at 84.19374 -> {schwefel_at_known:.2e}",
    )


def test_criterion_09_population_stability():
    inst = make_instance("f15", 30)
    cfg = ACROConfig(max_fes=BUDGET)
    sizes = []
    run_acro(
        as_objective(inst),
        cfg,
        np.random.default_rng(BASE_SEED),
        observer=lambda s: sizes.append(len(s.population)),
    )
    sizes = np.asarray(sizes)
    mean = float(sizes.mean())
    ok = (
        sizes.min() >= 1
        and sizes.max() <= 3 * cfg.ini_pop_size
        and 0.75 * cfg.ini_pop_size <= mean <= 1.25 * cfg.ini_pop_size
    )
    assert _report(
        9, ok,
        f"population in [{sizes.min()}, {sizes.max()}] within [1, 60], "
        f"time-average {mean:.2f} within 20 +- 25%",
    )


def test_criterion_10_reproducible_cli_output(tmp_path):
    flags = [
        "run", "--algo", "ACRO/BP,CRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "2", "--max-fes", "3000", "--seed", "7",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(flags + ["--out", str(out_a)]) == 0
    assert main(flags + ["--out", str(out_b)]) == 0
    identical = filecmp.cmp(out_a / "summary.csv", out_b / "summary.csv", shallow=False)
    content = (out_a / "summary.csv").read_bytes()
    assert _report(
        10, identical, f"summary.csv byte-identical across invocations ({len(content)} bytes)"
    )
