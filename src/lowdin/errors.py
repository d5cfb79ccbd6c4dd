"""Exceptions raised by the numerical routines.

File-format errors live next to the parser in :mod:`lowdin.matrixio`;
everything here signals a structural or numerical problem and maps to
exit status 3 in the CLI.
"""


class LinalgError(Exception):
    """Base class for all numerical and structural errors."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible shapes."""


class NotHermitian(LinalgError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotUnitary(LinalgError):
    """Matrix fails the unitarity residual check."""


class NoConvergence(LinalgError):
    """Eigensolver used up its sweeps before every pair passed its relative test."""

    def __init__(self, message, sweeps=None, off_norm=None):
        super().__init__(message)
        self.sweeps = sweeps
        self.off_norm = off_norm


class SingularMetric(LinalgError):
    """Metric matrix has an eigenvalue at or below the rank cutoff.

    Carries the index of the offending eigenvalue (in descending order),
    its value, and the condition estimate largest/smallest.
    """

    def __init__(self, message, eigenvalue_index, eigenvalue, condition):
        super().__init__(message)
        self.eigenvalue_index = eigenvalue_index
        self.eigenvalue = eigenvalue
        self.condition = condition
