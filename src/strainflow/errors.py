"""Exception taxonomy shared across the package."""


class StrainflowError(Exception):
    """Base class for all package errors."""


class DomainError(StrainflowError):
    """A strain value left the domain of the stress law."""


class HypothesisError(StrainflowError):
    """A construction needs a structural hypothesis that fails numerically.

    The message names the hypothesis by what it asserts (e.g. blow-up of the
    stress at zero strain, integrable stress tail).
    """


class IntegrabilityError(HypothesisError):
    """An improper integral required to be finite diverges numerically."""


class CertificationError(StrainflowError):
    """A constant that a bound construction must certify could not be found."""


class BracketError(StrainflowError):
    """A root bracket could not be established inside the admissible window."""


class IterationBudgetError(StrainflowError):
    """An iterative kernel used up its iteration budget without converging."""


class StiffnessError(StrainflowError):
    """Adaptive step size underflowed; the problem is too stiff for the stepper."""


class InvalidIntervalError(StrainflowError):
    """A stress interval overlaps critical values where branches merge."""


class ModelInconsistencyError(StrainflowError):
    """Numerical structure of the model contradicts itself (e.g. even root count)."""


class DegenerateDataError(StrainflowError):
    """Initial data carries no usable mass or no usable variation."""


class NotConvergedError(StrainflowError):
    """A diagnostic needs a converged trajectory and the input is not."""


class ConfigError(StrainflowError):
    """Experiment configuration failed to parse or validate."""
