"""Experiment orchestration, statistics, and result files.

An experiment is a grid of independent runs (algorithm x benchmark x seed).
Runs are pure functions of their seed, so the whole experiment is
reproducible regardless of how many workers execute it. The seeds of one
(algorithm, benchmark) cell run in lockstep and share one batched objective
call per step. Final values below 1e-8 are reported as exactly 0;
truncation happens here, never inside the objective.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algorithms
from .algorithms import run_acro, run_cro, validate_config
from .benchmarks import BenchmarkInstance, as_objective, evaluate_batch
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
    return _record(config, instance, seed, result, result.wall_time)


def _record(config, instance, seed, result, wall_time):
    return RunRecord(
        algorithm=config.variant.value,
        benchmark=instance.label,
        dimension=instance.dimension,
        seed=seed,
        final_raw=result.best_pe,
        trace=result.trace,
        wall_time=wall_time,
    )


#: Set in pool workers only: the event a grid sets when it ends early. A
#: cell checks it before its first step and then every 64th, as a check
#: costs about 0.4 us.
_stop = None


def _share_stop(flag):
    global _stop
    _stop = flag


def _run_task(task):
    """Run the seeds of one (config, instance) cell, or a slice of them, in
    lockstep.

    Each run keeps its own generator and reactor. Every step stacks the
    trial structures the live runs wait on into one evaluate_batch call (a
    lone point takes the scalar objective), and each run gets the PEs of
    its own points, so its draws, trace and final are those of its lone
    run. A run that raises stops, and so do the runs after it, which a
    serial grid would never start. Returns the records up to the first
    failed run, in seed order, and that run's ExperimentError, or None.
    Every record's wall time is an equal share of the cell's loop time,
    which, as a lone run's, leaves out initialization.
    """
    config, instance, seeds = task
    init = algorithms.acro_init if config.variant.adaptive else algorithms.cro_init
    spec = as_objective(instance)
    runs = [algorithms._drive(init, spec, config, np.random.default_rng(seed), None)
            for seed in seeds]
    outcomes = [None] * len(runs)  # a RunResult or the exception a run raised
    owed = [None] * len(runs)  # what each run is sent next: PEs, after its start
    live = list(range(len(runs)))
    started = None
    steps = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live:
            if _stop is not None and steps % 64 == 0 and _stop.is_set():
                return [], None
            steps += 1
            waiting, points = [], []
            for k in live:
                try:
                    trials = runs[k].send(owed[k])
                except StopIteration as done:
                    outcomes[k] = done.value
                    continue
                except Exception as exc:
                    outcomes[k] = exc
                    break
                waiting.append((k, len(trials)))
                points += trials
            if started is None:  # every run has initialized
                started = time.perf_counter()
            if len(points) == 1:
                values = [spec.evaluate(points[0])]
            elif points:
                values = evaluate_batch(instance, np.array(points)).tolist()
            at = 0
            for k, n in waiting:
                owed[k] = values[at:at + n]
                at += n
            live = [k for k, _ in waiting]
    share = (time.perf_counter() - started) / len(runs)
    records = []
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, Exception):
            error = ExperimentError(config.variant.value, instance.label, seed, outcome)
            error.__cause__ = outcome
            return records, error
        records.append(_record(config, instance, seed, outcome, share))
    return records, None


def run_experiment(configs, benchmarks, runs, base_seed, parallelism=1, record_sink=None):
    """Execute runs x |configs| x |benchmarks| independent runs.

    ``configs`` holds ACROConfig and CROConfig objects, each run for its own
    ``max_fes``; ``benchmarks`` holds BenchmarkInstance objects. The grid is
    checked before any run starts: an entry that is not a valid config or
    not a BenchmarkInstance, an empty config or benchmark list, a variant or
    a benchmark label listed twice, ``runs`` or ``parallelism`` not an
    integer >= 1, or ``base_seed`` not an integer >= 0 raises InvalidConfig.
    Each cell uses seeds base_seed .. base_seed+runs-1 and runs them in
    lockstep; each run's results are those of its lone run. A grid with
    fewer cells than ``parallelism`` splits each cell into contiguous seed
    slices, and the pool has no more workers than tasks (none for one).
    Records reach ``record_sink`` one at a time, a cell's once it is done,
    which lets callers persist partial results; both the sink and the
    returned list see them in canonical (config, benchmark, seed) order.
    The first failing run, in that order, or sink call raises, as in a
    serial grid; cells still running stop and those not yet started are
    cancelled.
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
    runs, parallelism = int(runs), int(parallelism)
    seeds = range(int(base_seed), int(base_seed) + runs)
    cells = [(config, instance) for config in configs for instance in benchmarks]
    slices = min(runs, -(-parallelism // len(cells)))
    tasks = [
        (config, instance, seeds[k * runs // slices:(k + 1) * runs // slices])
        for config, instance in cells
        for k in range(slices)
    ]
    workers = min(parallelism, len(tasks))
    records = []
    pool = None
    results = map(_run_task, tasks)
    if workers > 1:
        # Not loaded by serial runs.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Event

        stop = Event()
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_share_stop,
                                   initargs=(stop,))
        results = pool.map(_run_task, tasks)
    try:
        for task_records, error in results:
            for record in task_records:
                records.append(record)
                if record_sink is not None:
                    record_sink(record)
            if error is not None:
                raise error
    finally:
        if pool is not None:  # a failing run or sink stops the cells left
            stop.set()
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
