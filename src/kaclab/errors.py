"""Exception types shared across the package.

Plain ``ValueError`` marks a malformed argument, such as a count below its
minimum or an array of the wrong shape.  ``ConfigurationError`` marks a
setting the computation cannot serve, such as a rate exponent gamma
outside [0, 1], a grid too coarse for the request or a start off the
energy sphere.  The other classes mark failures of numerical contracts
rather than caller mistakes.
"""


class ConfigurationError(Exception):
    """A setting, grid or truncation cannot support the requested
    computation."""


class AccuracyError(Exception):
    """A quadrature or tail-mass check failed its stated tolerance."""


class DegenerateTestFunctionError(Exception):
    """Rayleigh quotient requested for a statistically constant observable."""
