"""Deterministic compensated summation.

KahanAccumulator is the package's one compensated fold: Neumaier's variant
of Kahan summation, applied in a fixed ascending order, so zero-ordinate
averages are reproducible down to the last bit.  It folds the block sums
of phase averages and of the per-zero grids of the oracle averaging route.
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

    def add(self, term: np.ndarray):
        term = np.asarray(term, dtype=np.complex128)
        self._add_part(self.total.real, self.comp.real, term.real)
        self._add_part(self.total.imag, self.comp.imag, term.imag)

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
