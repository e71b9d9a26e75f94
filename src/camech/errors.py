"""Exception types shared across the package."""


class CamechError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CamechError):
    """An input document is malformed or not exactly representable."""


class InvalidArgument(CamechError, ValueError):
    """An argument lies outside the range the operation is defined for."""


class TiesPresent(CamechError):
    """Two distinct bids share a norm value under the reject tie rule."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class NotGranted(CamechError):
    """A blocker query was made for a bid that was denied."""


class InstanceTooLarge(CamechError):
    """The instance exceeds a solver's size guard."""


class ExponentNotSupported(CamechError):
    """No exact closed form for this quantity at the requested norm exponent."""


class NonMonotoneDetected(CamechError):
    """A denial above a granted value leaves no critical value; `witness` replays it."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BundleSpaceTooLarge(InstanceTooLarge):
    """Too many goods to enumerate every bundle."""


class TooManyTieOrders(InstanceTooLarge):
    """The tie groups admit more permutations than the enumeration guard allows."""


class UnknownScenario(CamechError):
    """The scenario name is not in the registry."""


class ValuationUndefined(CamechError):
    """A complex valuation table has no entry covering the queried bundle."""
