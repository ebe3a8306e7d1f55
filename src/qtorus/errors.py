"""Exception types shared across the package.

Everything raised on bad data derives from DataError, exit code 2 in the
CLI.  Only _require_integer, _require_finite (a real: a complex type is
refused, 3+0j included) and _require_finite_complex refuse an argument by kind,
and a plain lower bound is always the first argument of one of the first two.
"""

import numbers

import numpy as np


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


def _require_finite(least=None, /, **values):
    """Refuse what _require_finite_complex refuses, and any complex type, 3+0j
    and an array of complex dtype included: the argument is a real.  A scalar
    below least, when given, is refused too."""
    for name, value in values.items():
        if np.iscomplexobj(value):
            raise DomainError("entries of %s must be real" % name if np.ndim(value)
                              else "%s must be real, got %r" % (name, value))
        _require_finite_complex(**{name: value})
        if least is not None and value < least:
            raise DomainError("%s must be >= %s, got %r" % (name, least, value))


def _require_finite_complex(**values):
    """Refuse a non-finite scalar or array, a bool, a string or an int past 1e308."""
    for name, value in values.items():
        try:
            ok = value is None or not isinstance(value, bool) and np.isfinite(
                float(value) if isinstance(value, int) else value).all()
        except (TypeError, OverflowError):  # a string or an object; an int past 1e308
            ok = False
        if not ok:
            raise DomainError("entries of %s must be finite" % name if np.ndim(value)
                              else "%s must be finite, got %r" % (name, value))


def _require_integer(least=None, /, **values):
    """Refuse a float (2.5 or 3.0 would be rounded, truncated or used as an
    index), a bool, a value below least when given, or an int past 64 bits."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
                least is not None and value < least):
            raise DomainError("%s must be an integer%s, got %r"
                              % (name, "" if least is None else " >= %d" % least, value))
        if not -2**63 <= value < 2**63:
            raise DomainError("%s must fit in 64 bits" % name)


class EmptyRangeError(DomainError):
    """A zero-ordinate query selected no entries."""


class IntegrationError(QTorusError, RuntimeError):
    """Numerical integration produced NaN or overflow."""
