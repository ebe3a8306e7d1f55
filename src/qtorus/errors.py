"""Exception types shared across the package.

Everything raised on bad data derives from DataError so callers (and the
CLI) can map validation failures to a single exit path.  _require_finite is
the package's one refusal of a non-finite scalar parameter, and
_require_integer its one refusal of a count or length that is not an integer.
"""

import math
import numbers


class QTorusError(Exception):
    """Base class for all package errors."""


class DataError(QTorusError, ValueError):
    """Invalid data: wrong shape, broken symmetry, unparseable input."""


class DimensionError(DataError):
    pass


class SymmetryError(DataError):
    """Grid fails the point symmetry z[-k,-l] = conj(z[k,l])."""


class HermiticityError(DataError):
    """Grid fails w[l,k] = conj(w[k,l])."""


class FormatError(DataError):
    """Unparseable file content; message carries a line number when known."""


class DomainError(DataError):
    """Parameter outside the valid domain (e.g. Re s <= 1, a_1 = 0)."""


def _require_finite(**scalars):
    for name, value in scalars.items():
        if value is not None and not math.isfinite(value):
            raise DomainError("%s must be finite, got %r" % (name, value))


def _require_integer(**values):
    """Refuse a value that is not a Python or numpy integer: a float such as
    2.5 or 3.0 would otherwise be rounded, truncated or used as an index."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError("%s must be an integer, got %r" % (name, value))


class EmptyRangeError(DomainError):
    """A zero-ordinate query selected no entries."""


class IntegrationError(QTorusError, RuntimeError):
    """Numerical integration produced NaN or overflow."""
