"""Exception and warning types shared across the package, and the one checker
that every configuration value goes through."""

import math
from collections.abc import Sequence
from numbers import Real

import numpy as np


class PrimeError(Exception):
    """Base class for all package-specific errors."""


# -- configuration -----------------------------------------------------------

class InvalidConfig(PrimeError):
    """A kernel, spline or study setting of the wrong type, out of range or
    not among its choices.  The CLI exits 2 for one, and 3 when a fit file
    holds it (as BadFitFile)."""


def _integer(name, value, error, least=None, must=None):
    """``value`` as an int: any integer, numpy's included but not a bool, that
    is at least ``least``; otherwise raises ``error``.  ``must`` words the
    bound (by default ">= least")."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise error(f"{name} must be {must or f'>= {least}'}, got {value}")
    return value


def _choice(name, value, choices, error):
    """``value`` if it is a string among ``choices``; otherwise raises ``error``."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"unknown {name} {value!r}")
    return value


def _reals(name, values, error, size=None, positive=False):
    """``values`` as a tuple of floats: a sequence (not a string) of finite
    real numbers (not bools), ``size`` of them when given, each > 0 when
    ``positive``; otherwise raises ``error``."""
    if (not isinstance(values, (Sequence, np.ndarray)) or isinstance(values, (str, bytes))
            or getattr(values, "ndim", 1) != 1 or size is not None and len(values) != size):
        shape = "a sequence of" if size is None else size
        raise error(f"{name} must be {shape} numbers, got {values!r}")
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in values):
        raise error(f"{name} must be real numbers, got {values!r}")
    floats = tuple(float(v) for v in values)
    if not all(math.isfinite(v) and (v > 0.0 or not positive) for v in floats):
        raise error(f"{name} must be finite{' and positive' if positive else ''}, got {floats}")
    return floats


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

class InvalidDegree(InvalidConfig):
    """A bad spline setting: a degree or an interior-knot count that is not an
    integer >= 1 or >= 0, an unknown placement, or interior knots that are not
    finite numbers strictly increasing inside (0, 1)."""


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


class BadFitFile(PrimeError):
    """A fit file that cannot be read back: not JSON, a wrong header or
    version, or a field that is missing, unknown, malformed or non-finite."""


# -- model averaging ---------------------------------------------------------

class SingularGram(PrimeError):
    """Cross-product matrix of a candidate design is not invertible."""


# -- warnings ----------------------------------------------------------------

class DegenerateSampleWarning(UserWarning):
    """Bandwidth sample had zero variance; fell back to 1.06 * n**-0.2."""
