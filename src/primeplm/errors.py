"""Exception and warning types shared across the package."""


class PrimeError(Exception):
    """Base class for all package-specific errors."""


# -- data loading / table construction --------------------------------------

class MalformedCsv(PrimeError):
    """A cell could not be parsed or a row has the wrong width."""


class MissingResponse(PrimeError):
    """The response column is absent or contains missing entries."""


class StructureMismatch(PrimeError):
    """Declared column structure does not match the data header."""


class DegenerateColumn(PrimeError):
    """A column that cannot be used as it stands: a nonlinear column with
    fewer than two distinct observed values, a column that is never
    observed, or a candidate column constant on the complete cases."""


class UnknownColumn(PrimeError):
    """A referenced column name does not exist in the table."""


# -- spline basis ------------------------------------------------------------

class InvalidDegree(PrimeError):
    """Spline degree below 1, a negative interior-knot count, or interior
    knots not strictly increasing inside (0, 1)."""


class InsufficientData(PrimeError):
    """Too few (or too tied) observations to place quantile knots."""


class OutOfDomain(PrimeError):
    """Basis evaluation requested outside [0, 1]."""


class LengthMismatch(PrimeError):
    """Vector length disagrees with the expected dimension."""


# -- fitting -----------------------------------------------------------------

class Underdetermined(PrimeError):
    """Fewer rows than design columns."""


class InsufficientCompleteCases(PrimeError):
    """Complete-case subset too small for the requested fit."""


class IncompleteRow(PrimeError):
    """Prediction rows must be fully observed."""


class InvalidConfig(PrimeError):
    """Inconsistent kernel or scenario configuration."""


class BadFitFile(PrimeError):
    """A fit file that cannot be read back: not JSON, a wrong header or
    version, or a field that is missing, unknown, malformed or non-finite."""


# -- model averaging ---------------------------------------------------------

class SingularGram(PrimeError):
    """Cross-product matrix of a candidate design is not invertible."""


# -- warnings ----------------------------------------------------------------

class DegenerateSampleWarning(UserWarning):
    """Bandwidth sample had zero variance; fell back to 1.06 * n**-0.2."""
