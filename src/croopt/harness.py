"""Experiment orchestration, statistics, and result files.

An experiment is a grid of independent runs (algorithm x benchmark x seed).
Runs are pure functions of their seed, so the whole experiment is
reproducible regardless of how many workers execute it. Final values below
1e-8 are reported as exactly 0; truncation happens here, never inside the
objective.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import Variant, default_config, parse_variant, run_acro, run_cro
from .benchmarks import as_objective
from .errors import EmptyCell, ExperimentError

ZERO_THRESHOLD = 1e-8


def truncate(value):
    """Reporting convention: results below 1e-8 count as exactly 0."""
    return 0.0 if value < ZERO_THRESHOLD else float(value)


@dataclass
class RunRecord:
    """One finished run, ready for persistence."""

    algorithm: str
    benchmark: str
    dimension: int
    seed: int
    final_raw: float
    final_reported: float
    trace: list[tuple[int, float]]
    wall_time: float

    def to_json(self):
        return json.dumps(
            {
                "algorithm": self.algorithm,
                "benchmark": self.benchmark,
                "dimension": self.dimension,
                "seed": self.seed,
                "final_raw": self.final_raw,
                "final_reported": self.final_reported,
                "wall_time": self.wall_time,
                "trace": [[fe, best] for fe, best in self.trace],
            }
        )


@dataclass
class CellStats:
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    count: int


@dataclass
class ExperimentSummary:
    algorithms: list[str]
    benchmarks: list[str]
    cells: dict[tuple[str, str], CellStats]


def execute_run(variant, config, instance, seed):
    """One seeded run; the only entry point worker processes need."""
    rng = np.random.default_rng(seed)
    runner = run_acro if variant.adaptive else run_cro
    result = runner(as_objective(instance), config, rng)
    return RunRecord(
        algorithm=variant.value,
        benchmark=instance.label,
        dimension=instance.dimension,
        seed=seed,
        final_raw=result.best_pe,
        final_reported=truncate(result.best_pe),
        trace=result.trace,
        wall_time=result.wall_time,
    )


def _run_task(task):
    variant, config, instance, seed = task
    try:
        return execute_run(variant, config, instance, seed)
    except Exception as exc:  # re-raised with context by the caller
        raise ExperimentError(variant.value, instance.label, seed, exc) from exc


def run_experiment(algorithms, benchmarks, runs, max_fes, base_seed,
                   parallelism=1, record_sink=None):
    """Execute runs x |algorithms| x |benchmarks| independent runs.

    ``algorithms`` may hold Variant members, name strings, or ready-made
    configs; ``benchmarks`` holds BenchmarkInstance objects. Each cell uses
    seeds base_seed .. base_seed + runs - 1. ``record_sink`` receives each
    record as it completes (unordered under parallelism), which lets callers
    persist partial results; the returned record list is always in canonical
    (algorithm, benchmark, seed) order.
    """
    configs = []
    for algo in algorithms:
        if isinstance(algo, (Variant, str)):
            variant = algo if isinstance(algo, Variant) else parse_variant(algo)
            configs.append((variant, default_config(variant, max_fes=max_fes)))
        else:
            configs.append((algo.variant, algo))
    tasks = [
        (variant, config, instance, base_seed + run)
        for variant, config in configs
        for instance in benchmarks
        for run in range(runs)
    ]
    records = []
    if parallelism <= 1:
        for task in tasks:
            record = _run_task(task)
            records.append(record)
            if record_sink is not None:
                record_sink(record)
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_run_task, task) for task in tasks]
            for future in futures:
                record = future.result()
                records.append(record)
                if record_sink is not None:
                    record_sink(record)
    algo_order = {variant.value: k for k, (variant, _) in enumerate(configs)}
    bench_order = {inst.label: k for k, inst in enumerate(benchmarks)}
    records.sort(
        key=lambda r: (algo_order[r.algorithm], bench_order[r.benchmark], r.seed)
    )
    return summarize(records), records


def summarize(records):
    """Mean/median/std/min/max of reported finals per (algorithm, benchmark).

    The standard deviation is the population form (denominator n) so that
    cross-implementation comparisons are unambiguous.
    """
    if not records:
        raise EmptyCell("no run records to summarize")
    algorithms, benchmarks = [], []
    grouped = {}
    for record in records:
        if record.algorithm not in algorithms:
            algorithms.append(record.algorithm)
        if record.benchmark not in benchmarks:
            benchmarks.append(record.benchmark)
        grouped.setdefault((record.algorithm, record.benchmark), []).append(
            record.final_reported
        )
    cells = {}
    for key, values in grouped.items():
        data = np.asarray(values, dtype=float)
        cells[key] = CellStats(
            mean=float(data.mean()),
            median=float(np.median(data)),
            std=float(data.std()),
            minimum=float(data.min()),
            maximum=float(data.max()),
            count=len(values),
        )
    return ExperimentSummary(algorithms=algorithms, benchmarks=benchmarks, cells=cells)


def render_summary_csv(summary):
    lines = ["benchmark," + ",".join(summary.algorithms)]
    for benchmark in summary.benchmarks:
        cells = []
        for algorithm in summary.algorithms:
            stats = summary.cells.get((algorithm, benchmark))
            cells.append("" if stats is None else f"{stats.mean:.4e}")
        lines.append(f"{benchmark}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def emit_results(summary, records, out_dir):
    """Write summary.csv, records.jsonl, and traces.csv under ``out_dir``."""
    if not records:
        raise EmptyCell("refusing to emit results for an empty record set")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    summary_path.write_text(render_summary_csv(summary), encoding="utf-8", newline="\n")
    records_path = out_dir / "records.jsonl"
    records_path.write_text(
        "".join(record.to_json() + "\n" for record in records),
        encoding="utf-8",
        newline="\n",
    )
    traces_path = out_dir / "traces.csv"
    lines = ["algorithm,benchmark,dimension,seed,fe,best"]
    for record in records:
        for fe, best in record.trace:
            lines.append(
                f"{record.algorithm},{record.benchmark},{record.dimension},"
                f"{record.seed},{fe},{best!r}"
            )
    traces_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return [summary_path, records_path, traces_path]
