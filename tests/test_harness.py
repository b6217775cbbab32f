import json
import os
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import croopt
from croopt import algorithms
from croopt.algorithms import ACROConfig, Variant, default_config
from croopt.benchmarks import TransformData, as_objective, make_instance
from croopt.cli import main
from croopt.errors import EmptyCell, ExperimentError, InvalidConfig, NonFiniteObjective
from croopt.harness import (
    RunRecord,
    emit_results,
    execute_run,
    render_summary_csv,
    run_experiment,
    summarize,
    truncate,
)

SEED = 901


def record(final_raw, algorithm="ACRO/BP", benchmark="f1", seed=0, trace=()):
    return RunRecord(
        algorithm=algorithm,
        benchmark=benchmark,
        dimension=30,
        seed=seed,
        final_raw=final_raw,
        trace=list(trace) or [(100, final_raw)],
        wall_time=0.0,
    )


def overflow_instance(func_id, dim=10):
    """A valid instance whose finite shift of 1e308 overflows the objective
    to inf, so every run fails at its first evaluation, after the grid has
    been accepted."""
    shift = np.full(dim, 1e308)
    return make_instance(func_id, dim, transform=TransformData(shift, np.eye(dim), 1.0))


def test_truncation_rule():
    assert truncate(3e-9) == 0.0
    assert truncate(0.0) == 0.0
    assert truncate(1e-8) == 1e-8
    assert truncate(2.5) == 2.5
    for v in (0.0, 5e-12, 1e-8, 7.0):
        assert truncate(truncate(v)) == truncate(v)


def test_summarize_truncates_then_averages():
    records = [record(v, seed=i) for i, v in enumerate((0.0, 0.0, 3e-9))]
    summary = summarize(records)
    assert summary[("ACRO/BP", "f1")].mean == 0.0


def test_summarize_basic_statistics():
    records = [record(v, seed=i) for i, v in enumerate((1.0, 2.0, 3.0))]
    stats = summarize(records)[("ACRO/BP", "f1")]
    assert stats.mean == 2.0
    assert stats.median == 2.0
    assert stats.minimum == 1.0
    assert stats.maximum == 3.0
    assert stats.count == 3


def test_summarize_population_std():
    records = [record(2.0, seed=i) for i in range(3)]
    assert summarize(records)[("ACRO/BP", "f1")].std == 0.0
    records = [record(v, seed=i) for i, v in enumerate((1.0, 3.0))]
    # population std (denominator n): sqrt(mean((x - mean)^2)) = 1
    assert summarize(records)[("ACRO/BP", "f1")].std == 1.0


def test_summarize_empty_raises():
    with pytest.raises(EmptyCell):
        summarize([])


def test_render_uses_four_decimal_scientific_cells():
    records = [record(2.7374e-06)]
    text = render_summary_csv(summarize(records))
    assert text == "benchmark,ACRO/BP\nf1,2.7374e-06\n"
    zero = render_summary_csv(summarize([record(1e-12)]))
    assert "0.0000e+00" in zero


def test_emit_results_writes_three_files(tmp_path):
    records = [
        record(1.0, algorithm=a, benchmark=b, seed=s, trace=[(k, 1.0) for k in range(1, 101)])
        for a in ("ACRO/BP", "CRO/BP")
        for b in ("f1", "f2")
        for s in (0, 1)
    ]
    summary = summarize(records)
    written = emit_results(summary, records, tmp_path)
    names = {p.name for p in written}
    assert names == {"summary.csv", "records.jsonl", "traces.csv"}
    trace_lines = (tmp_path / "traces.csv").read_text().strip().splitlines()
    assert len(trace_lines) - 1 == 2 * 2 * 2 * 100
    record_lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
    assert len(record_lines) == 8
    parsed = json.loads(record_lines[0])
    assert parsed["algorithm"] == "ACRO/BP" and parsed["benchmark"] == "f1"


def test_records_derive_the_reported_final_and_keep_their_json():
    rec = RunRecord(algorithm="CRO/HP", benchmark="f13", dimension=5, seed=7,
                    final_raw=2.5e-09, trace=[(4, 3.0), (400, 2.5e-09)], wall_time=0.125)
    assert rec.final_reported == 0.0
    assert rec.to_json() == (
        '{"algorithm": "CRO/HP", "benchmark": "f13", "dimension": 5, "seed": 7, '
        '"final_raw": 2.5e-09, "final_reported": 0.0, "wall_time": 0.125, '
        '"trace": [[4, 3.0], [400, 2.5e-09]]}'
    )
    assert record(2.5).final_reported == 2.5


def test_emit_results_refuses_empty(tmp_path):
    with pytest.raises(EmptyCell):
        emit_results(summarize([record(1.0)]), [], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_experiment_degenerate_budget_returns_initial_best():
    inst = make_instance("f1", 10, SEED)
    summary, records = run_experiment(
        [default_config("ACRO/BP", 20)], [inst], runs=1, base_seed=5
    )
    assert len(records) == 1
    rec = records[0]
    # Replicate the initialization draws: 20 uniform structures, best PE.
    rng = np.random.default_rng(5)
    best = min(
        float(np.sum(((rng.uniform(inst.lower, inst.upper) - inst.transform.shift)) ** 2))
        for _ in range(20)
    )
    assert rec.final_raw == pytest.approx(best, rel=1e-12)
    assert summary[("ACRO/BP", "f1")].mean == rec.final_reported


def test_run_experiment_is_parallelism_invariant():
    instances = [make_instance("f1", 10, SEED)]
    configs = [default_config(name, 2_000) for name in ("ACRO/BP", "CRO/BP")]
    kwargs = dict(runs=2, base_seed=3)
    summary1, records1 = run_experiment(configs, instances, parallelism=1, **kwargs)
    summary2, records2 = run_experiment(configs, instances, parallelism=2, **kwargs)
    assert render_summary_csv(summary1) == render_summary_csv(summary2)
    for a, b in zip(records1, records2):
        assert (a.algorithm, a.benchmark, a.seed) == (b.algorithm, b.benchmark, b.seed)
        assert a.final_raw == b.final_raw
        assert a.trace == b.trace


def _step_count(config, instance, seed):
    """How many reactions a lone run makes: its observer calls but the first."""
    calls = []
    run = algorithms.run_acro if config.variant.adaptive else algorithms.run_cro
    run(as_objective(instance), config, np.random.default_rng(seed), observer=calls.append)
    return len(calls) - 1


@pytest.mark.parametrize("runs", [1, 3])
def test_lockstep_cells_give_the_records_of_lone_runs(runs):
    # Every variant on f1 and on f16, whose rotation the batch applies as a
    # stack of gemv calls. Runs spend their budget in different numbers of
    # reactions (two evaluations for a pair collision or a decomposition,
    # one otherwise), so the runs of a three-run cell leave it one by one.
    instances = [make_instance("f1", 6, SEED), make_instance("f16", 6, SEED)]
    configs = [default_config(variant, 600) for variant in Variant]
    _, records = run_experiment(configs, instances, runs=runs, base_seed=11)
    assert len(records) == len(configs) * len(instances) * runs
    cells = {}
    for rec in records:
        config = next(c for c in configs if c.variant.value == rec.algorithm)
        instance = next(i for i in instances if i.label == rec.benchmark)
        alone = execute_run(config.variant, config, instance, rec.seed)
        assert (rec.seed, rec.final_raw, rec.trace) == (alone.seed, alone.final_raw, alone.trace)
        cells.setdefault((rec.algorithm, rec.benchmark), []).append(
            _step_count(config, instance, rec.seed))
    if runs > 1:
        assert all(len(set(steps)) > 1 for steps in cells.values())


class _StubPool:
    """Stands in for ProcessPoolExecutor: records its worker count and the
    seed slice of every task, and runs the tasks here, in order."""

    made = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.tasks = []
        _StubPool.made.append((max_workers, self.tasks))

    def map(self, fn, tasks):
        for task in tasks:
            self.tasks.append(list(task[2]))
            yield fn(task)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("parallelism, n_algos, n_funcs, runs, workers, slices", [
    (64, 1, 1, 1, None, 1),  # one run forks no worker at all
    (64, 1, 1, 3, 3, 3),  # a lone cell splits into its three seeds
    (4, 1, 2, 3, 4, 2),  # two cells, split in two: four tasks for four workers
    (3, 1, 2, 2, 3, 2),
    (2, 7, 6, 2, 2, 1),  # 42 cells keep two workers busy whole
])
def test_pool_workers_are_capped_at_the_tasks(monkeypatch, parallelism, n_algos,
                                              n_funcs, runs, workers, slices):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _StubPool)
    monkeypatch.setattr(_StubPool, "made", [])
    configs = [default_config(variant, 40) for variant in list(Variant)[:n_algos]]
    instances = [make_instance(f, 3, SEED) for f in ("f1", "f5", "f8", "f12", "f15", "f18")]
    instances = instances[:n_funcs]
    _, records = run_experiment(configs, instances, runs=runs, base_seed=7,
                                parallelism=parallelism)
    _, serial = run_experiment(configs, instances, runs=runs, base_seed=7)
    assert [(r.algorithm, r.benchmark, r.seed, r.trace) for r in records] == [
        (r.algorithm, r.benchmark, r.seed, r.trace) for r in serial]
    if workers is None:
        assert _StubPool.made == []
        return
    [(max_workers, tasks)] = _StubPool.made
    assert max_workers == workers
    # Each cell's seeds, split into contiguous slices in order.
    cell_tasks = [tasks[k:k + slices] for k in range(0, len(tasks), slices)]
    assert len(cell_tasks) == n_algos * n_funcs
    for parts in cell_tasks:
        assert all(parts)
        assert [seed for part in parts for seed in part] == list(range(7, 7 + runs))


def _failing_below(limit):
    """update_best, as the run loop calls it, failing an adaptive run (one
    that draws its children's loss rates) once a trial PE falls below
    ``limit``."""
    update_best = algorithms.update_best

    def flaky(state, candidate, pe):
        if state.child_loss_rate is not None and pe < limit:
            raise RuntimeError(f"trial PE {pe!r} below {limit!r}")
        return update_best(state, candidate, pe)

    return flaky


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_failures_inside_a_cell_end_the_grid_as_a_serial_grid(
        tmp_path, monkeypatch, capsys, parallel):
    # Half of the ACRO/BP seeds fail, each at its own step, after CRO/BP,
    # the first cell, delivers all of its records. A serial grid of lone runs
    # stops at the first failure in canonical order; the lockstep grid must
    # deliver the same records before naming the same run, though here seed
    # 5 fails first in time (at its 40th evaluation, seed 3 at its 71st).
    instance = make_instance("f1", 5, SEED)
    acro = default_config("ACRO/BP", 1000)
    finals = sorted(execute_run(acro.variant, acro, instance, seed).final_raw
                    for seed in range(6))
    monkeypatch.setattr(algorithms, "update_best", _failing_below(finals[3]))
    configs = [default_config("CRO/BP", 1000), acro]
    expected, failed = [], None
    for config in configs:
        for seed in range(6):
            try:
                expected.append(execute_run(config.variant, config, instance, seed))
            except RuntimeError:
                failed = (config.variant.value, "f1", seed)
                break
        if failed:
            break
    assert failed[0] == "ACRO/BP" and len(expected) >= 6

    def same(records):
        return [(r.algorithm, r.benchmark, r.seed, r.final_raw, r.trace) for r in records]

    seen = []
    with pytest.raises(ExperimentError) as err:
        run_experiment(configs, [instance], runs=6, base_seed=0,
                       parallelism=int(parallel), record_sink=seen.append)
    assert (err.value.algorithm, err.value.benchmark, err.value.seed) == failed
    assert isinstance(err.value.cause, RuntimeError)
    assert same(seen) == same(expected)

    out = tmp_path / "out"
    code = main(["run", "--algo", "CRO/BP,ACRO/BP", "--func", "f1", "--dim", "5",
                 "--runs", "6", "--max-fes", "1000", "--transform-seed", str(SEED),
                 "--parallel", parallel, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "{} on {} (seed {})".format(*failed) in error["message"]
    partial = [json.loads(line) for line in
               (out / "records.partial.jsonl").read_text().splitlines()]
    for line in partial:
        del line["wall_time"]
    wanted = [json.loads(r.to_json()) for r in expected]
    for line in wanted:
        del line["wall_time"]
    assert partial == wanted


def _fresh_interpreter_env():
    """The environment of a fresh interpreter that imports this croopt."""
    src = str(Path(croopt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_serial_runs_leave_the_process_pool_unloaded():
    # Only run_experiment with parallelism > 1 imports concurrent.futures.
    script = """
import sys
import croopt, croopt.cli
from croopt.algorithms import default_config
from croopt.benchmarks import make_instance
croopt.run_experiment([default_config("ACRO/BP", 100)], [make_instance("f1", 2)], 1, 0)
print("concurrent.futures" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_fresh_interpreter_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_experiment_orders_records_canonically():
    instances = [make_instance("f2", 10, SEED), make_instance("f1", 10, SEED)]
    _, records = run_experiment(
        [default_config(name, 500) for name in ("CRO/BP", "ACRO/BP")], instances,
        runs=2, base_seed=0,
    )
    keys = [(r.algorithm, r.benchmark, r.seed) for r in records]
    assert keys == [
        ("CRO/BP", "f2", 0), ("CRO/BP", "f2", 1),
        ("CRO/BP", "f1", 0), ("CRO/BP", "f1", 1),
        ("ACRO/BP", "f2", 0), ("ACRO/BP", "f2", 1),
        ("ACRO/BP", "f1", 0), ("ACRO/BP", "f1", 1),
    ]


def test_run_experiment_wraps_failures_with_context():
    # Under parallelism the error is pickled back from a worker process and
    # must arrive as the same ExperimentError, not as a broken pool. Two
    # runs, so that the one cell splits into a task per worker. The
    # overflow itself warns nothing: the error reports it.
    inst = overflow_instance("f1")
    for parallelism in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExperimentError) as err:
                run_experiment(
                    [default_config("ACRO/BP", 500)], [inst], runs=2, base_seed=9,
                    parallelism=parallelism,
                )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert err.value.algorithm == "ACRO/BP"
        assert err.value.benchmark == "f1"
        assert err.value.seed == 9
        assert isinstance(err.value.cause, NonFiniteObjective)


@pytest.mark.parametrize("change", [
    {"runs": 0}, {"runs": -2}, {"parallelism": 0},
    {"configs": [default_config("ACRO/BP", 5)]}, {"configs": [ACROConfig(coll_rate=2.0)]},
    {"configs": []}, {"benchmarks": []},
    {"runs": 2.5}, {"runs": True}, {"parallelism": 2.5}, {"parallelism": True},
    {"base_seed": -1}, {"base_seed": 1.5}, {"base_seed": True},
    {"configs": ["ACRO/BP"]}, {"configs": [Variant.ACRO_BP]}, {"benchmarks": ["f1"]},
], ids=["runs=0", "runs=-2", "parallelism=0", "max_fes=5", "coll_rate=2",
        "no-algorithms", "no-benchmarks", "runs=2.5", "runs=True", "parallelism=2.5",
        "parallelism=True", "base_seed=-1", "base_seed=1.5", "base_seed=True",
        "name-entry", "variant-entry", "benchmark-name-entry"])
def test_run_experiment_rejects_a_grid_before_any_run(change):
    sink = []
    kwargs = dict(configs=[default_config("ACRO/BP", 200)],
                  benchmarks=[make_instance("f1", 10, SEED)],
                  runs=2, base_seed=0, parallelism=1, record_sink=sink.append)
    kwargs.update(change)
    with pytest.raises(InvalidConfig):
        run_experiment(**kwargs)
    assert sink == []


def test_numpy_integer_grid_inputs_give_the_records_of_ints():
    # numpy integers pass the integer rule, so their records must serialise.
    configs = [default_config("ACRO/BP", 100)]
    _, expected = run_experiment(configs, [make_instance("f1", 5, SEED)], runs=2,
                                 base_seed=3)
    _, records = run_experiment(configs, [make_instance("f1", np.int64(5), SEED)],
                                runs=np.int64(2), base_seed=np.int64(3),
                                parallelism=np.int32(1))
    assert [(r.seed, r.final_raw, r.trace) for r in records] == [
        (r.seed, r.final_raw, r.trace) for r in expected
    ]
    assert [json.loads(r.to_json())["seed"] for r in records] == [3, 4]
    assert [json.loads(r.to_json())["dimension"] for r in records] == [5, 5]


def test_each_config_runs_for_its_own_budget():
    configs = [default_config("ACRO/BP", 300), default_config("CRO/BP", 500)]
    _, records = run_experiment(configs, [make_instance("f1", 5, SEED)], runs=1,
                                base_seed=0)
    assert [(r.algorithm, r.trace[-1][0]) for r in records] == [
        ("ACRO/BP", 300), ("CRO/BP", 500)
    ]


def test_execute_run_rejects_a_variant_the_config_does_not_name():
    inst = make_instance("f1", 5, SEED)
    with pytest.raises(InvalidConfig):
        execute_run(Variant.ACRO_HP, ACROConfig(max_fes=200), inst, 0)


def test_run_experiment_streams_records_to_sink():
    # The sink sees every record once, in the canonical order, at any
    # parallelism.
    inst = make_instance("f1", 10, SEED)
    for parallelism in (1, 2):
        seen = []
        _, records = run_experiment(
            [default_config(name, 300) for name in ("ACRO/BP", "CRO/BP")], [inst],
            runs=3, base_seed=0, parallelism=parallelism, record_sink=seen.append,
        )
        assert seen == records
        assert [(r.algorithm, r.seed) for r in seen] == [
            ("ACRO/BP", 0), ("ACRO/BP", 1), ("ACRO/BP", 2),
            ("CRO/BP", 0), ("CRO/BP", 1), ("CRO/BP", 2),
        ]


def test_run_experiment_cancels_queued_runs_after_a_failure():
    # A cell of 30 failing runs sits ahead of a cell of 30 good ones, and a
    # worker starts each. Reporting the first failure must not wait for the
    # good cell: it stops within 64 steps, against the 15 run-times its
    # runs take on two workers.
    inst = make_instance("f1", 10, SEED)
    good = ACROConfig(variant=Variant.ACRO_HP, max_fes=20_000)
    started = time.perf_counter()
    execute_run(good.variant, good, inst, 0)
    one_run = time.perf_counter() - started
    started = time.perf_counter()
    with pytest.raises(ExperimentError) as err:
        run_experiment(
            [good], [overflow_instance("f2"), inst], runs=30, base_seed=0, parallelism=2,
        )
    elapsed = time.perf_counter() - started
    assert err.value.benchmark == "f2"
    assert elapsed < 6 * one_run + 1.0, f"{elapsed:.2f} s; one run takes {one_run:.2f} s"


def _logged_drive(log, init, spec, cfg, rng, observer, drive=algorithms._drive):
    # One line per run as it starts and one more if it finishes; pool
    # workers inherit the patched name as forked copies of this process.
    with open(log, "a") as out:
        out.write(f"start {cfg.variant.value}\n")
    result = yield from drive(init, spec, cfg, rng, observer)
    with open(log, "a") as out:
        out.write(f"end {cfg.variant.value}\n")
    return result


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_experiment_cancels_queued_runs_after_a_sink_failure(
        tmp_path, monkeypatch, parallelism):
    # The sink fails on its first record, as a full disk would. A cell's
    # records reach the sink once the whole cell is done, so the first
    # cell (short ACRO/BP runs) runs whole; a long ACRO/HP cell and a short
    # ACRO/BB one follow it. Serially no later run may start. In the pool
    # the long cell runs beside the first and must stop within 64 steps,
    # seconds before its runs could spend their budget.
    log = tmp_path / "runs"
    monkeypatch.setattr(algorithms, "_drive", partial(_logged_drive, log))
    configs = [ACROConfig(max_fes=2_000),
               ACROConfig(variant=Variant.ACRO_HP, max_fes=600_000),
               ACROConfig(variant=Variant.ACRO_BB, max_fes=2_000)]

    def sink(record):
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        run_experiment(configs, [make_instance("f1", 10, SEED)], runs=3, base_seed=0,
                       parallelism=parallelism, record_sink=sink)
    events = log.read_text().splitlines()
    assert events.count("end ACRO/BP") == 3, events
    assert "end ACRO/HP" not in events, events
    if parallelism == 1:
        assert events == ["start ACRO/BP"] * 3 + ["end ACRO/BP"] * 3


def test_traces_are_nonincreasing():
    inst = make_instance("f15", 10, SEED)
    _, records = run_experiment([default_config("ACRO/BP", 3_000)], [inst], runs=1,
                                base_seed=1)
    values = [best for _, best in records[0].trace]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cli_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:8] == [
        "algorithms:", "  ACRO/BP", "  ACRO/HP", "  ACRO/BB",
        "  CRO/BP", "  CRO/HP", "  CRO/BB", "  CRO/D",
    ]
    assert "f24" in out


def test_cli_verify_benchmarks(capsys):
    assert main(["verify-benchmarks", "--dim", "10"]) == 0
    out = capsys.readouterr().out
    assert "verify-benchmarks: ok" in out
    # make_instance rejects a non-orthogonal rotation, so no line repeats it.
    assert not [line for line in out.splitlines() if "rotation" in line]


def test_cli_run_writes_files(tmp_path):
    code = main([
        "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "1", "--max-fes", "500", "--seed", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "records.jsonl").exists()
    assert (tmp_path / "traces.csv").exists()
    assert not (tmp_path / "records.partial.jsonl").exists()


def test_cli_reports_machine_readable_errors(tmp_path, capsys):
    code = main([
        "run", "--algo", "NOPE", "--func", "f1", "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    parsed = json.loads(err)
    assert parsed["error"] == "InvalidConfig"
    # A usage error, here a missing command, takes the same path.
    assert main([]) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "InvalidConfig"


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--transform-seed" in capsys.readouterr().out


def test_cli_reports_worker_failures_as_one_json_line(tmp_path, capfd):
    # A finite shift of 1e308 passes every check made before the grid
    # starts; each of the two runs then fails inside a pool worker at its
    # first evaluation, where the objective overflows to inf.
    (tmp_path / "f1_shift.txt").write_text(" ".join(["1e308"] * 10))
    code = main([
        "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "2", "--max-fes", "500", "--parallel", "2",
        "--out", str(tmp_path / "out"), "--cec-data", str(tmp_path),
    ])
    assert code == 1
    err_lines = capfd.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    parsed = json.loads(err_lines[0])
    assert parsed["error"] == "ExperimentError"
    assert "ACRO/BP on f1 (seed 0)" in parsed["message"]
    assert "NonFiniteObjective" in parsed["message"]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_cli_overflow_writes_only_the_json_line_to_stderr(tmp_path, parallel):
    # A fresh interpreter, as a user runs it: nothing captures numpy's
    # warnings there, so any would land on stderr next to the error line.
    # Two runs, so that --parallel 2 starts two workers.
    (tmp_path / "f1_shift.txt").write_text(" ".join(["1e308"] * 10))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from croopt.cli import main; sys.exit(main())",
         "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10", "--runs", "2",
         "--max-fes", "500", "--parallel", parallel, "--out", str(tmp_path / "out"),
         "--cec-data", str(tmp_path)],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=120,
    )
    assert proc.returncode == 1
    err_lines = proc.stderr.splitlines()
    assert len(err_lines) == 1, proc.stderr
    parsed = json.loads(err_lines[0])
    assert parsed["error"] == "ExperimentError"
    assert parsed["message"] == ("run failed for ACRO/BP on f1 (seed 0): "
                                 "NonFiniteObjective('objective returned inf')")


def test_cli_rejects_non_finite_cec_data_before_writing(tmp_path, capsys):
    (tmp_path / "f1_shift.txt").write_text(" ".join(["nan"] * 10))
    code = main([
        "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "1", "--max-fes", "500", "--out", str(tmp_path / "out"),
        "--cec-data", str(tmp_path),
    ])
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "FormatError"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_repeated_algorithms_and_functions(tmp_path, capsys):
    for algo, func in (("ACRO/BP,acro_bp", "f1"), ("ACRO/BP", "f1,f1")):
        code = main([
            "run", "--algo", algo, "--func", func, "--dim", "10",
            "--runs", "2", "--max-fes", "100", "--out", str(tmp_path),
        ])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        parsed = json.loads(err_lines[0])
        assert parsed["error"] == "InvalidConfig"
        assert "listed more than once" in parsed["message"]
    assert not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--runs", "0", "InvalidConfig"),
    ("--runs", "-2", "InvalidConfig"),
    ("--parallel", "0", "InvalidConfig"),
    ("--max-fes", "5", "InvalidConfig"),
    ("--algo", ",", "InvalidConfig"),
    ("--func", ",", "InvalidConfig"),
    ("--dim", "0", "DimensionMismatch"),
    ("--dim", "-1", "DimensionMismatch"),
    ("--seed", "-1", "InvalidConfig"),
    ("--dim", "abc", "InvalidConfig"),
    ("--runs", "x", "InvalidConfig"),
    ("--cec-data", "no-such-dir", "InvalidConfig"),
    ("--transform-seed", "-1", "FormatError"),
])
def test_cli_rejects_a_bad_grid_before_writing(tmp_path, capsys, flag, value, error):
    # --transform-seed is given, so --cec-data is rejected as its rival.
    args = {"--algo": "ACRO/BP", "--func": "f1", "--dim": "10", "--max-fes": "200",
            "--runs": "2", "--transform-seed": "12345", "--out": str(tmp_path / "o"),
            flag: value}
    code = main(["run", *(item for pair in args.items() for item in pair)])
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == error
    assert not (tmp_path / "o").exists()


def test_cli_reports_unexpected_errors_as_one_json_line(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("croopt.cli.run_experiment", broken)
    code = main(["run", "--algo", "ACRO/BP", "--func", "f1", "--out", str(tmp_path)])
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0]) == {"error": "RuntimeError", "message": "boom"}


def test_cli_cec_data_import(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    shift = np.linspace(-50, 50, 10)
    (data / "f1_shift.txt").write_text(" ".join(repr(float(v)) for v in shift))
    out = tmp_path / "out"
    code = main([
        "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "1", "--max-fes", "400", "--seed", "2",
        "--out", str(out), "--cec-data", str(data),
    ])
    assert code == 0
    assert (out / "summary.csv").exists()
