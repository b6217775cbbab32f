#!/usr/bin/env python3
"""Layered benchmark for croopt.

Run from the root of a source checkout; croopt is imported from its ``src/``:

    python3 perfbench/run.py --workload sphere-d30 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One invocation runs whole rounds of one workload until ``--seconds`` would be
exceeded (at least one round), checks every output, writes one result file
under ``perfbench/out/`` and prints each metric with its unit, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` repeats the work with layer spans on and
gives the per-layer metrics. ``--workload all`` runs every workload untraced
and traced in turn, in child processes, and adds the tracing overhead.
See README.md for the workloads, metrics and reference figures.
"""

import os

# Pinned before numpy loads: this process, its pool workers and the set-up
# probes all evaluate with one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import oracle
import results
from spans import LAYER_NAMES, REACTIONS, TracedGenerator, Tracer, empty, merge, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ALL_VARIANTS = ("ACRO/BP", "ACRO/HP", "ACRO/BB", "CRO/BP", "CRO/HP", "CRO/BB", "CRO/D")
WORKLOADS = {
    # Cheap objective: the engine layers (RNG, operators, reactions, driver)
    # carry most of each evaluation. Paper budget, so ACRO must reach 0.
    "sphere-d30": {"algos": ALL_VARIANTS, "funcs": ("f1",), "dim": 30,
                   "max_fes": 300_000},
    # Objective-heavy: a 50x50 matvec per evaluation (plus cosines on f16).
    # Short runs, so one invocation holds enough of them for a steady median.
    "rotated-d50": {"algos": ("ACRO/BP", "CRO/BP"), "funcs": ("f3", "f16"),
                    "dim": 50, "max_fes": 25_000},
    # Many short runs through the CLI and a two-worker pool: per-run fixed
    # costs (task pickling, initialisation, ordering, result files) show.
    "grid-d10-p2": {"algos": ALL_VARIANTS,
                    "funcs": ("f1", "f5", "f8", "f12", "f15", "f18"),
                    "dim": 10, "max_fes": 1000, "runs": 4, "parallel": 2},
}
SETUP_REPEATS = 9
GRID_RERUNS = 2  # grid triples per round re-run serially in this process
ZERO = 1e-8  # the library's reporting threshold
ORACLE_RTOL, ORACLE_ATOL = 1e-9, 1e-12
ENERGY_RTOL = 1e-9
MAX_PROBLEMS = 20

SETUP_PROBE = """
import json, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import croopt
spec = json.loads(sys.argv[2])
for func in spec["funcs"]:
    croopt.make_instance(func, spec["dim"])
for algo in spec["algos"]:
    croopt.default_config(algo, max_fes=spec["max_fes"])
print(time.perf_counter() - started)
"""


def import_croopt():
    """Import croopt from this checkout's src/, and nowhere else."""
    package = SRC / "croopt"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no croopt sources at {package}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import croopt
    if Path(croopt.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported croopt from {croopt.__file__}, not {package}")
    return croopt


def energy(state):
    """Buffer plus every molecule's PE + KE, summed exactly."""
    return math.fsum([state.buffer] + [m.pe + m.ke for m in state.population])


class Probe:
    """Captures one run at the names harness and algorithms call.

    Untraced, it only keeps the RunResult and the initial reactor's best PE
    and total energy (one wrapper call per run). Traced, it also times every
    layer into ``tracer`` and keeps the run's span snapshot.
    """

    def __init__(self, croopt, tracer=None):
        self.croopt = croopt
        self.tracer = tracer
        self.result = None
        self.init = None
        self.spans = None

    def _runner(self, run):
        tracer = self.tracer

        def probed(spec, cfg, rng, **kwargs):
            self.result = self.init = self.spans = None
            if tracer is None:
                self.result = run(spec, cfg, rng, **kwargs)
                return self.result
            tracer.take()
            spec.evaluate = tracer.wrap("benchmarks.evaluate", spec.evaluate)
            traced_run = tracer.wrap("algorithms.run", run)
            self.result = traced_run(spec, cfg, TracedGenerator(rng, tracer), **kwargs)
            self.spans = tracer.take()
            return self.result

        return probed

    def _initialiser(self, init):
        timed = init if self.tracer is None else self.tracer.wrap("algorithms.init", init)

        def probed(spec, cfg, rng):
            state = timed(spec, cfg, rng)
            self.init = (state.best_pe, energy(state))
            return state

        return probed

    def _execute(self, execute_run):
        # Pool workers hand their captures back on the record they return.
        def probed(*args):
            record = execute_run(*args)
            record.bench_capture = {"spans": self.spans, "init": self.init}
            return record

        return probed

    def replacements(self, pool=False):
        algorithms = self.croopt.algorithms
        harness = self.croopt.harness
        modules = {"croopt.algorithms": algorithms, "croopt.reactions": self.croopt.reactions}
        reps = {
            (harness, "run_acro"): self._runner(algorithms.run_acro),
            (harness, "run_cro"): self._runner(algorithms.run_cro),
            (algorithms, "acro_init"): self._initialiser(algorithms.acro_init),
            (algorithms, "cro_init"): self._initialiser(algorithms.cro_init),
        }
        if self.tracer is not None:
            for module, attr, name in LAYER_NAMES:
                target = modules[module]
                reps[(target, attr)] = self.tracer.wrap(
                    name, getattr(target, attr), count_success=attr in REACTIONS
                )
        if pool:
            reps[(harness, "execute_run")] = self._execute(harness.execute_run)
        return reps


class Bench:
    def __init__(self, args, croopt):
        import numpy as np

        self.args = args
        self.croopt = croopt
        self.np = np
        self.name = args.workload
        self.spec = WORKLOADS[args.workload]
        self.traced = bool(args.trace)
        self.grid = "parallel" in self.spec
        self.tracer = Tracer() if self.traced else None
        self.probe = Probe(croopt, self.tracer)
        self.capture = Probe(croopt)  # untraced, for re-runs
        self.work = OUT / f"work-{os.getpid()}"
        self.problems = []
        self.problem_count = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = []
        self.fingerprints = {}
        self.evals = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.run_us = []
        self.traced_run_us = []
        self.spans = empty()
        self.zero_hits = {}
        self.setup_samples = []
        self.started = None

    # -- set-up ---------------------------------------------------------------

    def probe_setup(self):
        """Time one fresh process importing croopt and building this
        workload's instances and configs.

        Probes are spread over the measured window (see ``maybe_probe``), so
        their median does not hang on the machine's state in one second.
        """
        spec = json.dumps({k: list(v) if isinstance(v, tuple) else v
                           for k, v in self.spec.items()})
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        self.setup_samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def maybe_probe(self):
        """Take the next set-up probe once its share of the window is reached;
        called between runs, outside every timed part."""
        due = len(self.setup_samples) * self.args.seconds / SETUP_REPEATS
        if (not self.traced and len(self.setup_samples) < SETUP_REPEATS
                and time.perf_counter() - self.started >= due):
            self.probe_setup()

    def build(self):
        c = self.croopt
        self.instances = [c.make_instance(f, self.spec["dim"]) for f in self.spec["funcs"]]
        self.by_label = {inst.label: inst for inst in self.instances}
        self.configs = [
            (c.parse_variant(a), c.default_config(a, max_fes=self.spec["max_fes"]))
            for a in self.spec["algos"]
        ]
        self.config_of = {v.value: (v, cfg) for v, cfg in self.configs}
        for inst in self.instances:
            for problem in oracle.check_instance(inst):
                self.problem(problem)
        tasks = [(v, cfg, inst, 0) for v, cfg in self.configs for inst in self.instances]
        self.task_bytes = statistics.fmean(
            len(pickle.dumps(task, protocol=pickle.DEFAULT_PROTOCOL)) for task in tasks
        )

    # -- checks ---------------------------------------------------------------

    def problem(self, text):
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def check_record(self, key, final_raw, final_reported, trace):
        """Properties every reported run must have."""
        max_fes = self.spec["max_fes"]
        fes = [int(fe) for fe, _ in trace]
        bests = [float(best) for _, best in trace]
        if fes != [k * max_fes // 100 for k in range(1, 101)]:
            self.problem(f"{key}: trace is not 100 checkpoints ending at the budget")
        if any(b > a for a, b in zip(bests, bests[1:])):
            self.problem(f"{key}: trace increases")
        if not bests or final_raw != bests[-1]:
            self.problem(f"{key}: final {final_raw!r} is not the last trace point")
        if not final_raw >= 0.0:
            self.problem(f"{key}: final {final_raw!r} is negative")
        if final_reported != (0.0 if final_raw < ZERO else final_raw):
            self.problem(f"{key}: reported {final_reported!r} for raw {final_raw!r}")

    def check_result(self, key, inst, result, init):
        """Properties of a run observed in this process: budget, initial
        best, energy ledger, box and the oracle."""
        max_fes = self.spec["max_fes"]
        if result.fe_count != max_fes:
            self.problem(f"{key}: spent {result.fe_count} of {max_fes} evaluations")
        if init is None:
            self.problem(f"{key}: initial reactor not captured")
        else:
            init_best, init_energy = init
            if result.best_pe > init_best:
                self.problem(f"{key}: final {result.best_pe!r} worse than initial {init_best!r}")
            final_energy = energy(result.state)
            scale = max(abs(init_energy), abs(final_energy), 1.0)
            if abs(final_energy - init_energy) > ENERGY_RTOL * scale:
                self.problem(f"{key}: energy {init_energy!r} -> {final_energy!r}")
        x = self.np.asarray(result.best_solution, dtype=float)
        if x.shape != (inst.dimension,) or (x < inst.lower).any() or (x > inst.upper).any():
            self.problem(f"{key}: best solution outside the box")
            return
        expected = oracle.evaluate(inst, x)
        tol = ORACLE_RTOL * max(abs(expected), abs(result.best_pe)) + ORACLE_ATOL
        if not abs(expected - result.best_pe) <= tol:
            self.problem(f"{key}: best_pe {result.best_pe!r}, oracle {expected!r}")

    def note_zero(self, variant, final_reported):
        if variant.startswith("ACRO") and self.name == "sphere-d30":
            hits = self.zero_hits.setdefault(variant, [0, 0])
            hits[0] += final_reported == 0.0
            hits[1] += 1

    def fail(self, key, runs, exc_name):
        self.failed += runs
        self.failures.append({"key": key, "runs": runs, "error": exc_name})

    # -- rounds ---------------------------------------------------------------

    def serial_round(self, r):
        harness = self.croopt.harness
        seed = self.args.seed * 10_000 + r
        records, round_wall, run_wall = [], 0.0, 0.0
        for variant, cfg in self.configs:
            for inst in self.instances:
                key = results.run_key(variant.value, inst.label, inst.dimension, seed)
                self.attempted += 1
                started, cpu0 = time.perf_counter(), time.process_time()
                try:
                    record = harness.execute_run(variant, cfg, inst, seed)
                except Exception as exc:  # counted and reported as a failed run
                    round_wall += time.perf_counter() - started
                    self.fail(key, 1, type(exc).__name__)
                    continue
                elapsed = time.perf_counter() - started
                self.cpu += time.process_time() - cpu0
                round_wall += elapsed
                result = self.probe.result
                self.evals += result.fe_count
                run_wall += record.wall_time
                self.run_us.append(record.wall_time / result.fe_count * 1e6)
                if self.probe.spans is not None:
                    self.add_spans(self.probe.spans, result.fe_count)
                self.check_record(key, record.final_raw, record.final_reported, record.trace)
                self.check_result(key, inst, result, self.probe.init)
                self.note_zero(variant.value, record.final_reported)
                self.fingerprints[key] = results.fingerprint(
                    record.trace, record.final_raw, result.best_solution)
                records.append(record)
                self.maybe_probe()
        self.wall += round_wall
        emit_s, output_bytes = 0.0, 0
        if records:
            out = self.work / f"round-{r}"
            started, cpu0 = time.perf_counter(), time.process_time()
            written = harness.emit_results(harness.summarize(records), records, out)
            emit_s = time.perf_counter() - started
            self.cpu += time.process_time() - cpu0
            self.wall += emit_s
            output_bytes = sum(path.stat().st_size for path in written)
            shutil.rmtree(out)
        self.rounds.append({"wall_s": round_wall + emit_s, "run_wall_s": run_wall,
                            "workers": 1, "emit_s": emit_s, "output_bytes": output_bytes})

    def grid_round(self, r):
        cli = self.croopt.cli
        spec = self.spec
        base = self.args.seed * 10_000 + r * spec["runs"]
        out = self.work / f"round-{r}"
        argv = ["run", "--algo", ",".join(spec["algos"]), "--func", ",".join(spec["funcs"]),
                "--dim", str(spec["dim"]), "--runs", str(spec["runs"]),
                "--max-fes", str(spec["max_fes"]), "--seed", str(base),
                "--parallel", str(spec["parallel"]), "--out", str(out)]
        expected = {
            results.run_key(a, f, spec["dim"], base + k)
            for a in spec["algos"] for f in spec["funcs"] for k in range(spec["runs"])
        }
        self.attempted += len(expected)
        emitted = []
        reps = {}
        if self.traced:
            reps = self.probe.replacements(pool=True)
            reps[(cli, "emit_results")] = self._timed_emit(cli.emit_results, emitted)
        stderr = io.StringIO()
        error = None
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        started, cpu0 = time.perf_counter(), time.process_time()
        try:
            with patched(reps), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                error = _cli_error(stderr.getvalue(), code)
        except Exception as exc:  # counted and reported as failed runs
            error = type(exc).__name__
        wall = time.perf_counter() - started
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (time.process_time() - cpu0 + children1.ru_utime - children0.ru_utime
               + children1.ru_stime - children0.ru_stime)
        if error is not None:
            self.fail(f"round {r} (seed {base})", len(expected), error)
            shutil.rmtree(out, ignore_errors=True)
            return
        self.wall += wall
        self.cpu += cpu
        self.evals += len(expected) * spec["max_fes"]
        run_wall, output_bytes = self.check_grid_output(out, expected, base)
        self.rounds.append({"wall_s": wall, "run_wall_s": run_wall,
                            "workers": spec["parallel"],
                            "emit_s": emitted[0] if emitted else None,
                            "output_bytes": output_bytes})
        shutil.rmtree(out)
        self.maybe_probe()

    def _timed_emit(self, emit, emitted):
        def timed(summary, records, out_dir, *args, **kwargs):
            started = time.perf_counter()
            written = emit(summary, records, out_dir, *args, **kwargs)
            emitted.append(time.perf_counter() - started)
            for record in records:
                capture = record.__dict__.pop("bench_capture", None)
                if capture is not None and capture["spans"] is not None:
                    self.add_spans(capture["spans"], self.spec["max_fes"])
            return written

        return timed

    def check_grid_output(self, out, expected, base):
        files = {name: out / name for name in ("summary.csv", "records.jsonl", "traces.csv")}
        if (out / "records.partial.jsonl").exists():
            self.problem(f"{out.name}: records.partial.jsonl left behind")
        missing = [name for name, path in files.items() if not path.is_file()]
        if missing:
            self.problem(f"{out.name}: missing {', '.join(missing)}")
            return 0.0, 0
        records = [json.loads(line) for line in
                   files["records.jsonl"].read_text(encoding="utf-8").splitlines()]
        keys = [results.run_key(rec["algorithm"], rec["benchmark"], rec["dimension"],
                                rec["seed"]) for rec in records]
        if len(keys) != len(set(keys)) or set(keys) != expected:
            self.problem(f"{out.name}: records do not hold each grid run exactly once")
        run_wall = 0.0
        for key, rec in zip(keys, records):
            self.check_record(key, rec["final_raw"], rec["final_reported"], rec["trace"])
            self.note_zero(rec["algorithm"], rec["final_reported"])
            self.fingerprints[key] = results.fingerprint(rec["trace"], rec["final_raw"])
            run_wall += rec["wall_time"]
            self.run_us.append(rec["wall_time"] / self.spec["max_fes"] * 1e6)
        self.check_summary(out.name, files["summary.csv"], records)
        for rec in random.Random(base).sample(records, GRID_RERUNS):
            self.rerun(rec)
        return run_wall, sum(path.stat().st_size for path in files.values())

    def check_summary(self, label, path, records):
        """summary.csv against means recomputed from records.jsonl."""
        means = {}
        for rec in records:
            means.setdefault((rec["algorithm"], rec["benchmark"]), []).append(
                rec["final_reported"])
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cells = 0
        for line in lines[1:]:
            row = line.split(",")
            for algorithm, cell in zip(header[1:], row[1:]):
                values = means.get((algorithm, row[0]))
                cells += 1
                if values is None:
                    self.problem(f"{label}: summary cell {algorithm}/{row[0]} has no records")
                    continue
                mean = math.fsum(values) / len(values)
                # Cells carry 5 significant digits.
                if not abs(float(cell) - mean) <= 5.01e-5 * abs(mean):
                    self.problem(f"{label}: summary {algorithm}/{row[0]} = {cell}, "
                                 f"records give {mean!r}")
        if cells != len(means) or header[0] != "benchmark":
            self.problem(f"{label}: summary.csv does not cover the grid")

    def rerun(self, rec):
        """Re-run one grid triple serially here; it must match bit for bit."""
        variant, cfg = self.config_of[rec["algorithm"]]
        inst = self.by_label[rec["benchmark"]]
        key = results.run_key(rec["algorithm"], rec["benchmark"], rec["dimension"], rec["seed"])
        with patched(self.capture.replacements()):
            again = self.croopt.harness.execute_run(variant, cfg, inst, rec["seed"])
        if again.final_raw != rec["final_raw"] or \
                [[fe, best] for fe, best in again.trace] != rec["trace"]:
            self.problem(f"{key}: serial re-run differs from the pool run")
        self.check_result(key, inst, self.capture.result, self.capture.init)

    def check_unperturbed(self):
        """Re-run the first serial triple untraced; the traced fingerprint
        must match, so tracing leaves the random stream alone."""
        variant, cfg = self.configs[0]
        inst = self.instances[0]
        seed = self.args.seed * 10_000
        key = results.run_key(variant.value, inst.label, inst.dimension, seed)
        if key not in self.fingerprints:
            return
        with patched(self.capture.replacements()):
            record = self.croopt.harness.execute_run(variant, cfg, inst, seed)
        plain = results.fingerprint(record.trace, record.final_raw,
                                    self.capture.result.best_solution)
        if plain != self.fingerprints[key]:
            self.problem(f"{key}: traced and untraced fingerprints differ")

    def add_spans(self, snapshot, evals):
        merge(self.spans, snapshot)
        run_ns = sum(row[1] for (_, name), row in snapshot["table"].items()
                     if name == "algorithms.run")
        self.traced_run_us.append(run_ns / evals / 1e3)

    # -- driver ---------------------------------------------------------------

    def run(self):
        self.build()
        self.work.mkdir(parents=True, exist_ok=True)
        step = self.grid_round if self.grid else self.serial_round
        reps = {} if self.grid else self.probe.replacements()
        self.started = time.perf_counter()
        try:
            with patched(reps):
                r = 0
                while True:
                    step(r)
                    r += 1
                    spent = time.perf_counter() - self.started
                    if spent + spent / r > self.args.seconds:
                        break
            if self.traced and not self.grid:
                self.check_unperturbed()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        while not self.traced and len(self.setup_samples) < SETUP_REPEATS:
            self.probe_setup()
        for variant, (hits, runs) in sorted(self.zero_hits.items()):
            if hits * 5 < runs * 4:
                self.problem(f"{variant}: reported 0 in {hits} of {runs} runs on f1")
        if self.evals == 0:
            sys.exit("perfbench: every run failed; nothing was measured")

    def end_to_end(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "evals_per_s": (self.evals / self.wall, "1/s"),
            "cpu_us_per_eval": (self.cpu / self.evals * 1e6, "us"),
            "us_per_eval_p50": (statistics.median(self.run_us), "us"),
            "peak_rss_mb": (max(own, children) / 1024.0, "MB"),
        }

    def per_layer(self):
        names = {}
        for (_, name), row in self.spans["table"].items():
            acc = names.setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += row[k]

        def calls(name):
            return names.get(name, [0, 0, 0])[0]

        def us(name, column=1):
            row = names.get(name)
            return row[column] / row[0] / 1e3 if row and row[0] else 0.0

        rng = [row for name, row in names.items() if name.startswith("rng.")]
        rng_calls = sum(row[0] for row in rng)
        evals = calls("benchmarks.evaluate")
        run_row = names.get("algorithms.run", [0, 0, 0])
        rounds = self.rounds
        run_wall = sum(r["run_wall_s"] for r in rounds)
        capacity = sum(r["wall_s"] * r["workers"] for r in rounds)
        emits = [r["emit_s"] for r in rounds if r["emit_s"] is not None]
        m = {
            "rng.calls_per_eval": (rng_calls / evals if evals else 0.0, "1/eval"),
            "rng.call_us": (sum(row[1] for row in rng) / rng_calls / 1e3
                            if rng_calls else 0.0, "us"),
        }
        for op in ("neighborhood_search", "decompose_structure", "synthesize_structure"):
            m[f"operators.{op}_us"] = (us(f"operators.{op}"), "us")
            m[f"operators.{op}_calls"] = (calls(f"operators.{op}"), "count")
        for kind in REACTIONS:
            name = f"reactions.{kind}"
            m[f"{name}_self_us"] = (us(name, column=2), "us")
            m[f"{name}_calls"] = (calls(name), "count")
            m[f"{name}_success_ratio"] = (
                self.spans["successes"].get(name, 0) / calls(name) if calls(name) else 0.0,
                "ratio")
        m["core.update_best_us"] = (us("core.update_best"), "us")
        m["core.update_best_calls"] = (calls("core.update_best"), "count")
        m["benchmarks.evaluate_us"] = (us("benchmarks.evaluate"), "us")
        m["benchmarks.evaluate_calls"] = (evals, "count")
        m["benchmarks.evaluate_share"] = (
            names.get("benchmarks.evaluate", [0, 0, 0])[1] / run_row[1] if run_row[1] else 0.0,
            "ratio")
        m["algorithms.init_us"] = (us("algorithms.init"), "us")
        m["algorithms.driver_self_us_per_eval"] = (
            run_row[2] / evals / 1e3 if evals else 0.0, "us")
        m["algorithms.run_us_per_eval_p50"] = (
            statistics.median(self.traced_run_us) if self.traced_run_us else 0.0, "us")
        m["harness.pool_efficiency"] = (run_wall / capacity if capacity else 0.0, "ratio")
        m["harness.overhead_s"] = (statistics.fmean(
            r["wall_s"] - r["run_wall_s"] / r["workers"] for r in rounds), "s")
        m["harness.task_bytes"] = (self.task_bytes, "B")
        m["cli.emit_results_s"] = (statistics.fmean(emits) if emits else 0.0, "s")
        m["cli.output_bytes"] = (statistics.fmean(r["output_bytes"] for r in rounds), "B")
        return m


def _cli_error(stderr, code):
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return f"exit code {code}"


def run_one(args):
    croopt = import_croopt()
    import croopt.cli  # noqa: F401  (the grid workload calls croopt.cli.main)

    bench = Bench(args, croopt)
    started_utc = datetime.now(timezone.utc)
    bench.run()
    metrics = bench.per_layer() if bench.traced else bench.end_to_end()
    payload = {
        "schema": results.SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started_utc.isoformat(timespec="seconds"),
        "environment": results.environment(ROOT, bench.np),
        "correct": bench.problem_count == 0,
        "problems": bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "rounds": bench.rounds,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "spans": results.span_rows(bench.spans),
        "fingerprints": bench.fingerprints,
    }
    stamp = started_utc.strftime("%Y%m%dT%H%M%SZ")
    path = results.write(
        OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json",
        payload)
    print(f"result file: {path.relative_to(ROOT)}")
    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(json.dumps({key: payload[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}")
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            lines[trace] = json.loads(out[-1])
        for trace, result in lines.items():
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
        untraced = lines[0]["metrics"]["us_per_eval_p50"]["value"]
        traced = lines[1]["metrics"]["algorithms.run_us_per_eval_p50"]["value"]
        overhead = traced / untraced - 1.0
        print(f"{workload}  tracing_overhead = {overhead:.4g} ratio "
              f"(traced {traced:.4g} us/eval vs untraced {untraced:.4g} us/eval)")
        combined["metrics"][f"{workload}/tracing_overhead"] = {"value": overhead,
                                                               "unit": "ratio"}
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
