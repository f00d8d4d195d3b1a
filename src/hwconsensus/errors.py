"""Exception types shared across the package.

Every rejection path raises one of these; nothing raises bare ValueError so
callers (and the CLI exit-code mapping) can tell configuration problems from
runtime problems.
"""


class ValidationError(ValueError):
    """A scenario, config value, or argument failed validation."""


class SelfLoop(ValidationError):
    pass


class NonpositiveWeight(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class Disconnected(ValidationError):
    pass


class NotAnEdge(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class ZeroDCGain(ValidationError):
    pass


class RootSolverFailure(RuntimeError):
    """Polynomial root extraction did not converge."""


class NonFiniteValue(RuntimeError):
    """A simulated signal left the representable range (divergence flag).

    Attributes step and agent locate the failure; partial results may be
    attached by the harness as .partial.
    """

    def __init__(self, message, step=None, agent=None):
        super().__init__(message)
        self.step = step
        self.agent = agent
        self.partial = None


class IdentityViolation(RuntimeError):
    """An exact identity or bound that must hold was found violated.

    Attribute location, when set, holds the values that locate the failure.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class BracketFailure(RuntimeError):
    """Expanding bisection bracket could not enclose a sign change."""


class StepNotLogged(KeyError):
    """Requested step is absent from the trajectory log."""


class IncompleteLog(RuntimeError):
    """Log lacks fields or steps needed by the requested analysis."""
