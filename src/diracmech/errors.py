"""Exception types shared across the package."""


class DiracMechError(Exception):
    """Base class for all package errors."""


class EvaluationError(DiracMechError):
    """A user-supplied field produced a non-finite or ill-shaped value."""


class StructureError(DiracMechError):
    """A pointwise rank or isotropy check failed for a geometric structure."""


class ConstraintError(DiracMechError):
    """A constraint is incompatible with the structure it is imposed on."""


class BasePointMismatchError(DiracMechError):
    """Two fiber elements anchored at different base points were combined."""


class HyperregularityError(DiracMechError):
    """The vertical-derivative map could not be inverted at a point."""

    def __init__(self, message, x=None, xi=None):
        super().__init__(message)
        self.x = x
        self.xi = xi


class DegenerateDynamicsError(DiracMechError):
    """The implicit dynamics has no isolated rate at the given state.

    This is the expected signal for singular Lagrangians, carrying the
    singular values of the rate Jacobian for diagnosis.
    """

    def __init__(self, message, t=None, state=None, singular_values=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.singular_values = singular_values


class InitializationError(DiracMechError):
    """Projection of an initial guess onto the algebraic constraints failed."""


class SolverError(DiracMechError):
    """The integrator could not produce a trustworthy step.

    Raised when the exact rate solve leaves a residual above tolerance or
    LAPACK reports a nonzero ``info``, when an implicit midpoint step does
    not contract, when ``step_count`` rejects the time span, and when a
    monitor or its drift is not finite.
    """


class ScenarioError(DiracMechError):
    """A scenario document is malformed or inconsistent."""
