"""The names the layered benchmark in ``perfbench/`` patches, calls or reads.

A rename in the library would otherwise surface only when the benchmark
crashes, and a name a run stops looking up through its module would only
leave the benchmark's span for it empty. The patched names are read from
``perfbench/spans.py`` itself.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from croopt.algorithms import ACROConfig, CROConfig, default_config, run_acro
from croopt.benchmarks import as_objective, make_instance
from croopt.harness import execute_run, run_experiment

from helpers import PAIR_REACTIONS, REACTIONS, react

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.LAYER_NAMES]


CALLED = [
    ("croopt.harness", "run_acro"),
    ("croopt.harness", "run_cro"),
    ("croopt.harness", "execute_run"),
    ("croopt.harness", "summarize"),
    ("croopt.harness", "emit_results"),
    ("croopt.algorithms", "acro_init"),
    ("croopt.algorithms", "cro_init"),
    ("croopt.cli", "main"),
    ("croopt.cli", "emit_results"),
    ("croopt", "parse_variant"),
    ("croopt", "default_config"),
    ("croopt", "make_instance"),
]


@pytest.mark.parametrize("module, attr", _layer_names() + CALLED,
                         ids=lambda name: name.removeprefix("croopt."))
def test_benchmark_names_are_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_benchmark_reads_run_instance_and_outcome_fields():
    inst = make_instance("f3", 4)
    for name in ("func_id", "shifted", "rotated", "dimension", "lower", "upper", "label"):
        getattr(inst, name)
    for name in ("shift", "rotation", "scale"):
        getattr(inst.transform, name)
    cfg = default_config("ACRO/BP", 200)
    result = run_acro(as_objective(inst), cfg, np.random.default_rng(0))
    for name in ("best_pe", "best_solution", "trace", "fe_count", "wall_time", "state"):
        getattr(result, name)
    record = execute_run(cfg.variant, cfg, inst, 0)
    for name in ("trace", "final_raw", "wall_time"):
        getattr(record, name)
    # The benchmark counts successes on what each reaction's settle half,
    # the function the run loop calls by name, returns.
    rng = np.random.default_rng(0)
    for reaction in REACTIONS:
        molecules = (0, 1) if reaction in PAIR_REACTIONS else (0,)
        outcome = react(reaction, result.state, as_objective(inst), *molecules, rng)
        assert isinstance(outcome.success, bool)


#: Where a run of each family looks up its initializer, and where
#: ``execute_run`` looks up its runner.
INITS = {True: ("croopt.algorithms", "acro_init"), False: ("croopt.algorithms", "cro_init")}
RUNNERS = {True: ("croopt.harness", "run_acro"), False: ("croopt.harness", "run_cro")}


def _recording(returned, fn):
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        returned.append(result)
        return result

    return recorded


def test_runs_call_the_benchmark_names_through_their_modules(monkeypatch):
    # The benchmark replaces these names where the caller looks them up, so
    # both a lone run and a lockstep cell must call each one through its
    # module at call time. The configs make all four reactions occur.
    returned = {}
    for module, attr in _layer_names() + list(INITS.values()) + list(RUNNERS.values()):
        target = importlib.import_module(module)
        returned[module, attr] = []
        monkeypatch.setattr(target, attr, _recording(returned[module, attr],
                                                     getattr(target, attr)))
    settle_halves = [("croopt.algorithms", reaction.__name__) for reaction in REACTIONS]
    inst = make_instance("f5", 5)
    for config in (ACROConfig(change_rate=0.3, max_fes=1_000),
                   CROConfig(syn_thres=1e6, dec_thres=5, max_fes=1_000)):
        adaptive = isinstance(config, ACROConfig)
        for lone in (True, False):
            for results in returned.values():
                results.clear()
            if lone:
                execute_run(config.variant, config, inst, 0)
            else:
                run_experiment([config], [inst], runs=2, base_seed=0)
            expected = _layer_names() + [INITS[adaptive]] + [RUNNERS[adaptive]] * lone
            missed = [name for name in expected if not returned[name]]
            assert not missed, (config.variant.value, lone, missed)
            assert not returned[INITS[not adaptive]], (config.variant.value, lone)
            for name in settle_halves:
                assert all(type(outcome.success) is bool for outcome in returned[name]), name
