"""Exception types shared across the package.

Each class names a failure that some caller acts on: `cli` maps each to one
error kind and exit code.  A check's finding, such as a denial above a
grant, is a result rather than an exception.
"""


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


class InstanceTooLarge(CamechError):
    """The work an input asks for exceeds a size guard."""


class ExponentNotSupported(CamechError):
    """No exact closed form for this quantity at the requested norm exponent."""


class UnknownScenario(CamechError):
    """The scenario name is not in the registry."""
