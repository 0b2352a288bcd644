"""Exception types shared across the package."""


class DynshapeError(Exception):
    """Base class for all package-specific failures."""


class IllConditionedDesignError(DynshapeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


class FitFailureError(DynshapeError):
    """Every hyperparameter search start failed.

    Carries a list of per-start diagnostics (start point, status message,
    objective value) in ``starts``.
    """

    def __init__(self, message, starts=None):
        super().__init__(message)
        self.starts = starts or []


class DegenerateResponseError(DynshapeError):
    """Response vector has zero variance, so Q2 is undefined."""


class EstimationFailureError(DynshapeError):
    """The contrast search ended at a non-finite value; ``starts`` holds its diagnostics."""

    def __init__(self, message, starts=None):
        super().__init__(message)
        self.starts = starts or []


class TrainingError(DynshapeError):
    """Surrogate training cannot proceed (e.g. time shifts wrap around)."""


class InputConsistencyError(DynshapeError):
    """Input files or arrays disagree with each other or with the format."""
