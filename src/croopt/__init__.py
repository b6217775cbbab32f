"""Chemical Reaction Optimization (CRO/ACRO) with a benchmark harness."""

from .algorithms import (
    ACROConfig,
    CROConfig,
    RunResult,
    Variant,
    default_config,
    parse_variant,
    run_acro,
    run_cro,
)
from .benchmarks import (
    FUNCTION_TABLE,
    as_objective,
    evaluate_benchmark,
    make_instance,
)
from .core import ObjectiveSpec, ReactorState, total_energy
from .harness import emit_results, run_experiment

__version__ = "0.1.0"
