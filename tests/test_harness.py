import json

import numpy as np
import pytest

from croopt.benchmarks import make_instance
from croopt.cli import main
from croopt.errors import EmptyCell, ExperimentError, InvalidConfig
from croopt.harness import (
    RunRecord,
    emit_results,
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
        final_reported=truncate(final_raw),
        trace=list(trace) or [(100, final_raw)],
        wall_time=0.0,
    )


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
    assert summary.cells[("ACRO/BP", "f1")].mean == 0.0


def test_summarize_basic_statistics():
    records = [record(v, seed=i) for i, v in enumerate((1.0, 2.0, 3.0))]
    stats = summarize(records).cells[("ACRO/BP", "f1")]
    assert stats.mean == 2.0
    assert stats.median == 2.0
    assert stats.minimum == 1.0
    assert stats.maximum == 3.0
    assert stats.count == 3


def test_summarize_population_std():
    records = [record(2.0, seed=i) for i in range(3)]
    assert summarize(records).cells[("ACRO/BP", "f1")].std == 0.0
    records = [record(v, seed=i) for i, v in enumerate((1.0, 3.0))]
    # population std (denominator n): sqrt(mean((x - mean)^2)) = 1
    assert summarize(records).cells[("ACRO/BP", "f1")].std == 1.0


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


def test_emit_results_refuses_empty(tmp_path):
    with pytest.raises(EmptyCell):
        emit_results(summarize([record(1.0)]), [], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_experiment_degenerate_budget_returns_initial_best():
    inst = make_instance("f1", 10, SEED)
    summary, records = run_experiment(
        ["ACRO/BP"], [inst], runs=1, max_fes=20, base_seed=5
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
    assert summary.cells[("ACRO/BP", "f1")].mean == rec.final_reported


def test_run_experiment_is_parallelism_invariant():
    instances = [make_instance("f1", 10, SEED)]
    kwargs = dict(runs=2, max_fes=2_000, base_seed=3)
    summary1, records1 = run_experiment(
        ["ACRO/BP", "CRO/BP"], instances, parallelism=1, **kwargs
    )
    summary2, records2 = run_experiment(
        ["ACRO/BP", "CRO/BP"], instances, parallelism=2, **kwargs
    )
    assert render_summary_csv(summary1) == render_summary_csv(summary2)
    for a, b in zip(records1, records2):
        assert (a.algorithm, a.benchmark, a.seed) == (b.algorithm, b.benchmark, b.seed)
        assert a.final_raw == b.final_raw
        assert a.trace == b.trace


def test_run_experiment_orders_records_canonically():
    instances = [make_instance("f2", 10, SEED), make_instance("f1", 10, SEED)]
    _, records = run_experiment(
        ["CRO/BP", "ACRO/BP"], instances, runs=2, max_fes=500, base_seed=0
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
    # must arrive as the same ExperimentError, not as a broken pool.
    inst = make_instance("f1", 10, SEED)
    for parallelism in (1, 2):
        with pytest.raises(ExperimentError) as err:
            run_experiment(
                ["ACRO/BP"], [inst], runs=1, max_fes=5, base_seed=9,
                parallelism=parallelism,
            )
        assert err.value.algorithm == "ACRO/BP"
        assert err.value.benchmark == "f1"
        assert err.value.seed == 9
        assert isinstance(err.value.cause, InvalidConfig)


def test_run_experiment_streams_records_to_sink():
    inst = make_instance("f1", 10, SEED)
    seen = []
    run_experiment(
        ["ACRO/BP"], [inst], runs=3, max_fes=300, base_seed=0,
        record_sink=seen.append,
    )
    assert len(seen) == 3


def test_traces_are_nonincreasing():
    inst = make_instance("f15", 10, SEED)
    _, records = run_experiment(["ACRO/BP"], [inst], runs=1, max_fes=3_000, base_seed=1)
    values = [best for _, best in records[0].trace]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cli_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ACRO/BP" in out and "f24" in out


def test_cli_verify_benchmarks(capsys):
    assert main(["verify-benchmarks", "--dim", "10"]) == 0
    out = capsys.readouterr().out
    assert "verify-benchmarks: ok" in out


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


def test_cli_reports_worker_failures_as_one_json_line(tmp_path, capfd):
    code = main([
        "run", "--algo", "ACRO/BP", "--func", "f1", "--dim", "10",
        "--runs", "1", "--max-fes", "5", "--parallel", "2",
        "--out", str(tmp_path),
    ])
    assert code == 1
    err_lines = capfd.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    parsed = json.loads(err_lines[0])
    assert parsed["error"] == "ExperimentError"
    assert "ACRO/BP on f1 (seed 0)" in parsed["message"]


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
