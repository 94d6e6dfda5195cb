"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all hgspec errors."""


class NotConnectedError(Error):
    """Raised when an operation requires a connected hypergraph."""


class EdgeError(ValueError):
    """An edge list entry that is not an edge of a simple uniform hypergraph.

    ``index`` is the input position of the first faulty edge, ``kind`` one
    of ``type``, ``arity``, ``repeated``, ``range`` and ``duplicate``.
    """

    def __init__(self, index: int, kind: str, message: str):
        super().__init__(message)
        self.index = index
        self.kind = kind


class NotRegularError(Error):
    """Raised when an operation requires (locally) constant vertex degrees."""


class DomainError(Error):
    """Raised when closed-form parameters fall outside their derivation."""


class NoConvergence(Error):
    """Iterative solver exhausted its budget, or its iterates repeat."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class DiameterTooSmall(Error):
    """The hypergraph is too small to place certificate centers."""

    def __init__(self, needed, actual, message: str | None = None):
        super().__init__(
            message or f"separation {needed} required, only {actual} available"
        )
        self.needed = needed
        self.actual = actual


class SizeOverflow(Error):
    """Generated instance would exceed the configured size cap."""


class InfeasibleParams(Error):
    """Generator parameters violate a divisibility or range constraint."""


class GenerationFailed(Error):
    """Rejection sampling gave up after the configured attempt cap."""


class CertificateError(Error):
    """A constructed certificate violated one of its guaranteed inequalities."""


class ParseError(Error):
    """Malformed edge-list input."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
