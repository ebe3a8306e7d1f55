"""Commutators on operator grids and the induced bracket on fields.

The field bracket conjugates the matrix commutator by the Q-transform:

    [f, g] = q_inverse_real( i * (Qf Qg - Qg Qf) )

i[A,B] is Hermitian whenever A, B are, so the result is again a real
field (its grid passes the fourier-real check).  The bracket extends to
complex fields u = f + ig by bilinearity.
"""

from __future__ import annotations

from .grids import FOURIER_REAL, GENERAL, CoeffGrid, require_same_size
from .spectral import s_inv, s_map


def op_commutator(a: CoeffGrid, b: CoeffGrid) -> CoeffGrid:
    require_same_size(a, b)
    return CoeffGrid(a.n, a.data @ b.data - b.data @ a.data, GENERAL)


def field_commutator(f: CoeffGrid, g: CoeffGrid) -> CoeffGrid:
    k = 1j * op_commutator(s_map(f), s_map(g)).data
    return s_inv(CoeffGrid(f.n, k))


def field_commutator_complex(u, v):
    """Bracket of complex fields u = (f, g), v = (p, q); returns (re, im).

    [u, v] = ([f,p] - [g,q]) + i([f,q] + [g,p])
    """
    f, g = u
    p, q = v
    re = field_commutator(f, p).data - field_commutator(g, q).data
    im = field_commutator(f, q).data + field_commutator(g, p).data
    return (CoeffGrid(f.n, re, FOURIER_REAL), CoeffGrid(f.n, im, FOURIER_REAL))
