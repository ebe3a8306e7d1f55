"""Deterministic compensated summation.

KahanAccumulator is the package's one compensated fold: Neumaier's variant
of Kahan summation, applied in a fixed ascending order, so zero-ordinate
averages are reproducible down to the last bit.  It folds the block sums
of phase averages and of the per-zero grids of the oracle averaging route.
A complex term is folded as one float64 array, its real and imaginary
parts interleaved: the arithmetic of each part is that of a real fold.
"""

from __future__ import annotations

import numpy as np


class KahanAccumulator:
    """Elementwise Neumaier accumulator over arrays of a fixed shape.

    add() must be called in the canonical (ascending-ordinate) order;
    the accumulator itself is sequential by design.
    """

    def __init__(self, shape):
        self.total = np.zeros(shape, dtype=np.complex128)
        self.comp = np.zeros(shape, dtype=np.complex128)
        self._floats = (_float_view(self.total), _float_view(self.comp))

    def add(self, term: np.ndarray):
        term = np.asarray(term, dtype=np.complex128)
        if term.shape != self.total.shape:  # the flat float views do not broadcast
            term = np.broadcast_to(term, self.total.shape)
        self._add_part(*self._floats, _float_view(np.ascontiguousarray(term)))

    @staticmethod
    def _add_part(total, comp, x):
        t = total + x
        big = np.abs(total) >= np.abs(x)
        comp += np.where(big, (total - t) + x, (x - t) + total)
        total[...] = t

    def copy(self) -> "KahanAccumulator":
        twin = KahanAccumulator(self.total.shape)
        twin.total[...] = self.total
        twin.comp[...] = self.comp
        return twin

    def value(self) -> np.ndarray:
        return self.total + self.comp


def _float_view(z: np.ndarray) -> np.ndarray:
    """The float64 parts of a contiguous complex array, (re, im) interleaved."""
    return z.reshape(-1).view(np.float64)
