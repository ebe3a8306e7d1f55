"""Sobolev inner products and norms on coefficient grids.

<A|B>_alpha = sum over (k,l) of (1 + k^2 + l^2)^alpha * a[k,l] * conj(b[k,l])

The same form serves fields and operator matrices; alpha = 0 recovers the
Hilbert-Schmidt (Frobenius) pairing.  Custom weights are allowed as long
as they are finite, non-negative and depend only on k^2 + l^2.  Weights
that are not finite are refused (DomainError), whether a profile returns
them or (1 + k^2 + l^2)^alpha overflows past 1.8e308 at the corner
k = l = N.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .commutators import op_commutator
from .errors import DimensionError, DomainError
from .grids import CoeffGrid, kl_mesh, require_hermitian, require_same_size


@dataclass(frozen=True)
class SobolevWeight:
    alpha: float = 0.0
    # radial profile of k^2 + l^2, overrides alpha when set
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError("Sobolev exponent alpha must be finite, got %r" % (self.alpha,))

    def weights(self, n: int) -> np.ndarray:
        k, l = kl_mesh(n)
        r2 = (k * k + l * l).astype(np.float64)
        if self.profile is not None:
            w = np.asarray(self.profile(r2), dtype=np.float64)
            if w.shape != r2.shape:
                raise DimensionError("radial profile must map r^2 grid to same shape")
            if not np.all((w >= 0) & (w < np.inf)):  # nan fails both
                raise DomainError("radial weight profile must be finite and non-negative")
            return w
        with np.errstate(over="ignore"):
            w = (1.0 + r2) ** self.alpha
        if not np.all(np.isfinite(w)):
            raise DomainError("Sobolev weight (1 + k^2 + l^2)^%r overflows at band limit %d"
                              % (self.alpha, n))
        return w


def inner(a: CoeffGrid, b: CoeffGrid, w: SobolevWeight) -> complex:
    require_same_size(a, b)
    wgt = w.weights(a.n)
    return complex(np.sum(wgt * a.data * np.conj(b.data)))


def norm(a: CoeffGrid, w: SobolevWeight) -> float:
    return _weighted_norm(a.data, w.weights(a.n))


def _weighted_norm(data: np.ndarray, wgt: np.ndarray) -> float:
    """`norm` on raw data, for callers that fetch the weights once.

    SobolevWeight.weights is not cached: a radial profile may close over
    mutable data.  Squares overflow above ~1e154 and underflow below
    ~1e-154; only then is the sum taken again on data scaled by its largest
    entry, so every other norm keeps the bits of the plain sum.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(wgt * np.abs(data) ** 2))
        if math.isfinite(total) and (total >= sys.float_info.min or not data.any()):
            return float(np.sqrt(total))
        big = float(np.max(np.abs(data)))
        if not math.isfinite(big):  # inf or nan entries: the plain sum says it
            return float(np.sqrt(total))
        return big * float(np.sqrt(np.sum(wgt * (np.abs(data) / big) ** 2)))


def commutator_pairing(h: CoeffGrid, a: CoeffGrid, w: SobolevWeight) -> complex:
    """<[H,A]|A>_alpha for Hermitian H, A; purely imaginary up to round-off."""
    require_same_size(h, a)
    require_hermitian(h)
    require_hermitian(a)
    return inner(op_commutator(h, a), a, w)
