"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments; the classes here mark
failures of numerical contracts rather than caller mistakes.
"""


class ConfigurationError(Exception):
    """A grid / truncation choice cannot support the requested computation."""


class AccuracyError(Exception):
    """A quadrature or tail-mass check failed its stated tolerance."""


class SamplingError(Exception):
    """A rejection loop exceeded its trial budget."""


class DegenerateTestFunctionError(Exception):
    """Rayleigh quotient requested for a statistically constant observable."""
