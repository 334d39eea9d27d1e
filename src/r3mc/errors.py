"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible or SPD is numerically singular."""


class ContractViolationError(ValueError):
    """A structural precondition on an input is violated."""


class RetractionError(RuntimeError):
    """A shifted factor lost rank; the step must shrink."""


class DegenerateDirectionError(RuntimeError):
    """The search direction vanishes on the observed entries."""


class ConfigError(ValueError):
    """Invalid solver, schedule, or generator configuration."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
