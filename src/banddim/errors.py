"""Exception types shared across the package."""


class BandDimError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(BandDimError, ValueError):
    """A construction parameter is outside its admissible range."""


class IncompatibilityError(BandDimError, ValueError):
    """Two objects live over different spaces, fibers, or algebras."""


class SizeLimitError(BandDimError):
    """An exact-mode computation exceeds its instance-size cap."""


class PreconditionError(BandDimError):
    """An operation's documented precondition does not hold."""


class CoverGapError(BandDimError):
    """A point of the space is reached by no set of the construction.

    Carries the offending point id in ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class FactorizationError(BandDimError):
    """A positive-element/homomorphism factorization identity is violated.

    ``identity`` names the violated identity, ``deviation`` its size.
    """

    def __init__(self, message, identity=None, deviation=None):
        super().__init__(message)
        self.identity = identity
        self.deviation = deviation


class InvalidFunctionError(BandDimError, ValueError):
    """A scalar function does not satisfy the calculus prerequisites."""


class DiagonalViolationError(BandDimError):
    """An element that must lie in the canonical diagonal does not."""


class AmbiguousSupportError(BandDimError):
    """A conjugated operator is not supported in a single point.

    ``indices`` carries the (color, corner, k, l, point) tuple at fault.
    """

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class InvalidWitnessError(BandDimError):
    """A witness fails a structural requirement of a downstream stage."""


class UsageError(BandDimError, ValueError):
    """A command-line or configuration input fails validation."""
