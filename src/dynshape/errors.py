"""Exception types shared across the package."""


class DynshapeError(Exception):
    """Base class for all package-specific failures."""


class IllConditionedDesignError(DynshapeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


class FitFailureError(DynshapeError):
    """Every hyperparameter search start failed."""


class DegenerateResponseError(DynshapeError):
    """Response vector has zero variance, so Q2 is undefined."""


class EstimationFailureError(DynshapeError):
    """The contrast search ended at a non-finite value."""


class TrainingError(DynshapeError):
    """Surrogate training cannot proceed (e.g. time shifts wrap around)."""


class InputConsistencyError(DynshapeError):
    """Input files or arrays disagree with each other or with the format."""
