"""Exception types shared across the package."""


class CROError(Exception):
    """Base class for all croopt errors."""


class NonFiniteObjective(CROError):
    """The objective returned NaN or infinity for an in-bounds point."""


class BudgetExhausted(CROError):
    """Too few objective evaluations left to perform the requested reaction."""


class SameMolecule(CROError):
    """A two-molecule reaction was given the same molecule twice."""


class PopulationTooSmall(CROError):
    """The population cannot support the requested reaction."""


class DimensionMismatch(CROError):
    """Vector lengths disagree with the problem dimension."""


class InvalidConfig(CROError):
    """An algorithm configuration field is missing or out of range."""


class FormatError(CROError):
    """A function id or transform data is malformed, truncated or non-finite."""


class EmptyCell(CROError):
    """A summary cell has no run records."""


class ExperimentError(CROError):
    """A run inside an experiment failed; carries its (algorithm, benchmark, seed)."""

    def __init__(self, algorithm, benchmark, seed, cause):
        super().__init__(
            f"run failed for {algorithm} on {benchmark} (seed {seed}): {cause!r}"
        )
        self.algorithm = algorithm
        self.benchmark = benchmark
        self.seed = seed
        self.cause = cause

    def __reduce__(self):
        # Rebuilt from the four constructor arguments, so the error survives
        # the trip back from a pool worker with its context intact.
        return type(self), (self.algorithm, self.benchmark, self.seed, self.cause)
