"""Commutators on operator grids and the induced bracket on fields.

The field bracket conjugates the matrix commutator by the Q-transform:

    [f, g] = q_inverse_real( i * (Qf Qg - Qg Qf) )

i[A,B] is Hermitian whenever A, B are, so the result is again a real
field (its grid passes the fourier-real check).  The bracket extends to
complex fields u = f + ig by bilinearity; Q is complex-linear, so that is
one commutator of Q(u) = Qf + i Qg and Q(v), split back into two fields.
"""

from __future__ import annotations

from .grids import GENERAL, CoeffGrid, require_same_size
from .spectral import q_inverse, q_transform, s_inv, s_map


def op_commutator(a: CoeffGrid, b: CoeffGrid) -> CoeffGrid:
    require_same_size(a.n, b.n)
    return CoeffGrid(a.n, a.data @ b.data - b.data @ a.data, GENERAL)


def field_commutator(f: CoeffGrid, g: CoeffGrid) -> CoeffGrid:
    k = 1j * op_commutator(s_map(f), s_map(g)).data
    return s_inv(CoeffGrid(f.n, k))


def field_commutator_complex(u, v):
    """Bracket of complex fields u = (f, g), v = (p, q); returns (re, im).

    [u, v] = ([f,p] - [g,q]) + i([f,q] + [g,p])
    """
    k = 1j * op_commutator(q_transform(*u), q_transform(*v)).data
    return q_inverse(CoeffGrid(u[0].n, k))
