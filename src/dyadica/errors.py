"""Exception types shared across the package."""


class DyadicaError(Exception):
    """Base class for all package errors."""


class PreconditionError(DyadicaError):
    """A documented precondition of an operation was violated.

    The message names the failing inequality or requirement so that the CLI
    can report it and exit with the refusal code.
    """


class SingularWeightError(PreconditionError):
    """A matrix weight, or an average or fit made from it, cannot be used;
    ``node`` is the point of a refused value (not Hermitian, indefinite,
    singular under a negative power, or complex where a real one is needed)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
