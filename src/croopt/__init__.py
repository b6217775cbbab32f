"""Chemical Reaction Optimization (CRO/ACRO) with a benchmark harness."""

from .algorithms import (
    ACROConfig,
    CROConfig,
    RunResult,
    SuccessRule,
    VARIANT_ORDER,
    Variant,
    acro_init,
    cro_init,
    default_config,
    draw_loss_rate,
    parse_variant,
    population_feedback,
    run_acro,
    run_cro,
    select_reaction_acro,
)
from .benchmarks import (
    BenchmarkInstance,
    DEFAULT_TRANSFORM_SEED,
    FUNCTION_TABLE,
    TransformData,
    as_objective,
    evaluate_benchmark,
    generate_transform,
    make_instance,
    optimal_point,
    optimum_residual,
)
from .core import (
    Molecule,
    ObjectiveSpec,
    ReactorState,
    evaluate_and_count,
    total_energy,
    update_best,
)
from .harness import (
    ExperimentSummary,
    RunRecord,
    emit_results,
    execute_run,
    run_experiment,
    summarize,
    truncate,
)
from .operators import (
    BoundaryRule,
    SynthesisRule,
    apply_boundary,
    decompose_structure,
    neighborhood_search,
    synthesize_structure,
)
from .reactions import (
    ReactionKind,
    ReactionOutcome,
    decomposition,
    intermolecular_collision,
    on_wall_collision,
    synthesis,
)

__version__ = "0.1.0"
