"""Experiment orchestration, statistics, and result files.

An experiment is a grid of independent runs (algorithm x benchmark x seed).
Runs are pure functions of their seed, so the whole experiment is
reproducible regardless of how many workers execute it. Final values below
1e-8 are reported as exactly 0; truncation happens here, never inside the
objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import run_acro, run_cro, validate_config
from .benchmarks import BenchmarkInstance, as_objective
from .core import _is_count
from .errors import EmptyCell, ExperimentError, InvalidConfig

ZERO_THRESHOLD = 1e-8


def truncate(value):
    """Reporting convention: results below 1e-8 count as exactly 0."""
    return 0.0 if value < ZERO_THRESHOLD else float(value)


@dataclass
class RunRecord:
    """One finished run, ready for persistence; the reported final is derived."""

    algorithm: str
    benchmark: str
    dimension: int
    seed: int
    final_raw: float
    trace: list[tuple[int, float]]
    wall_time: float
    final_reported: float = field(init=False)

    def __post_init__(self):
        self.final_reported = truncate(self.final_raw)

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


def execute_run(variant, config, instance, seed):
    """One seeded run; ``variant`` must be ``config.variant``, else InvalidConfig."""
    if variant is not config.variant:
        raise InvalidConfig(f"{variant!r} is not the config's {config.variant.value}")
    rng = np.random.default_rng(seed)
    runner = run_acro if variant.adaptive else run_cro
    result = runner(as_objective(instance), config, rng)
    return RunRecord(
        algorithm=variant.value,
        benchmark=instance.label,
        dimension=instance.dimension,
        seed=seed,
        final_raw=result.best_pe,
        trace=result.trace,
        wall_time=result.wall_time,
    )


def _run_task(task):
    config, instance, seed = task
    try:
        return execute_run(config.variant, config, instance, seed)
    except Exception as exc:  # re-raised with context by the caller
        raise ExperimentError(config.variant.value, instance.label, seed, exc) from exc


def run_experiment(configs, benchmarks, runs, base_seed, parallelism=1, record_sink=None):
    """Execute runs x |configs| x |benchmarks| independent runs.

    ``configs`` holds ACROConfig and CROConfig objects, each run for its own
    ``max_fes``; ``benchmarks`` holds BenchmarkInstance objects. The grid is
    checked before any run starts: an entry that is not a valid config or
    not a BenchmarkInstance, an empty config or benchmark list, a variant or
    a benchmark label listed twice, ``runs`` or ``parallelism`` not an
    integer >= 1, or ``base_seed`` not an integer >= 0 raises InvalidConfig.
    Each cell uses seeds base_seed .. base_seed+runs-1. Records reach
    ``record_sink`` one at a time, which lets callers persist partial
    results; both the sink and the returned list see them in canonical
    (config, benchmark, seed) order. The first failing run or sink call
    raises, and the runs not yet started are cancelled.
    """
    for config in configs:
        validate_config(config)
    for instance in benchmarks:
        if not isinstance(instance, BenchmarkInstance):
            raise InvalidConfig(f"expected a BenchmarkInstance, got {instance!r}")
    for name, value, least in (("runs", runs, 1), ("parallelism", parallelism, 1),
                               ("base_seed", base_seed, 0)):
        if not _is_count(value, least):
            raise InvalidConfig(f"{name} must be an integer >= {least}, got {value!r}")
    for kind, labels in (("algorithm", [config.variant.value for config in configs]),
                         ("benchmark", [inst.label for inst in benchmarks])):
        if not labels:
            raise InvalidConfig(f"no {kind} given")
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise InvalidConfig(f"{kind} listed more than once: {', '.join(repeated)}")
    tasks = [
        (config, instance, int(base_seed) + run)
        for config in configs
        for instance in benchmarks
        for run in range(runs)
    ]
    records = []
    pool = None
    results = map(_run_task, tasks)
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs

        pool = ProcessPoolExecutor(max_workers=parallelism)
        results = pool.map(_run_task, tasks)
    try:
        for record in results:
            records.append(record)
            if record_sink is not None:
                record_sink(record)
    finally:
        if pool is not None:  # a failing run or sink cancels the runs not started
            pool.shutdown(cancel_futures=True)
    return summarize(records), records


def summarize(records):
    """Mean/median/std/min/max/count of reported finals per (algorithm, benchmark).

    Returns ``{(algorithm, benchmark): CellStats}`` in the order the records
    first name each pair. The standard deviation is the population form
    (denominator n) so that cross-implementation comparisons are unambiguous.
    """
    if not records:
        raise EmptyCell("no run records to summarize")
    grouped = {}
    for record in records:
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
    return cells


def render_summary_csv(summary):
    """One row per benchmark, one column per algorithm, in the cells' order."""
    algorithms = dict.fromkeys(algorithm for algorithm, _ in summary)
    benchmarks = dict.fromkeys(benchmark for _, benchmark in summary)
    lines = ["benchmark," + ",".join(algorithms)]
    for benchmark in benchmarks:
        cells = []
        for algorithm in algorithms:
            stats = summary.get((algorithm, benchmark))
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
