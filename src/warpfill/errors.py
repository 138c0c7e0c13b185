"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnboundedError(DomainError):
    """The requested extremum is not finite."""


class PreconditionError(ValueError):
    """A documented operation precondition was violated."""


class ValidationError(ValueError):
    """Structured validation failure carrying the offending findings."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class SchemaError(ValueError):
    """An input file does not match the documented schema."""


class ResourceCapError(RuntimeError):
    """A construction would exceed the configured resource cap."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its internal iteration cap: a bug, not bad input."""
