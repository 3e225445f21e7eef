"""Exception hierarchy shared across the library."""


class ChebcapError(Exception):
    """Base class for all library errors."""


class InvalidInputError(ChebcapError):
    """Malformed or out-of-contract input (bad intervals, degrees, parameters)."""


class DegreeCapError(InvalidInputError):
    """Requested degree exceeds the double-precision degree cap."""


class ConvergenceError(ChebcapError):
    """An iterative solve failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class EmptyImageError(ChebcapError):
    """The real section of an inverse polynomial image is empty."""


class NonRealImageError(ChebcapError):
    """Operation requires the full complex inverse image to be real."""


class IllConditionedError(InvalidInputError):
    """The input's own rounding is too large for the answer to be trusted."""
