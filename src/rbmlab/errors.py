"""Exception hierarchy shared across the package.

Process exit codes used by the CLI: validation, parameter, profile
positivity and window errors map to 2, capacity errors to 3, numeric
failures to 4.
"""


class RbmlabError(Exception):
    """Base class for all package errors."""


class ParameterError(RbmlabError, ValueError):
    """A scalar argument is outside its admissible range."""


class InvalidCoordinateError(ParameterError):
    """A lattice coordinate lies outside the canonical torus range."""


class HalfPlaneError(ParameterError):
    """A spectral parameter z was given with Im z <= 0."""


class WindowError(RbmlabError):
    """A spectral window (bulk region) contains no eigenvalues."""


class ProfilePositivityError(RbmlabError):
    """The synthesized variance kernel has a genuinely negative entry."""


class ContractError(RbmlabError):
    """An operation was called on inputs violating its documented contract."""


class UnsupportedLabelError(ContractError):
    """Graph evaluation requested for a graph carrying P/Q labels."""


class UnsupportedEdgeError(ContractError):
    """Graph evaluation requested for an edge kind with no evaluator."""


class CapacityError(RbmlabError):
    """An explicit capacity cap (term count, edge count, N guard) was hit."""


class ValidationError(RbmlabError):
    """An experiment configuration failed validation; message lists fields."""


class NumericError(RbmlabError):
    """A numerical routine failed to converge or exceeded its residual."""
