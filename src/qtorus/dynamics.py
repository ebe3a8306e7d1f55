"""Heisenberg-picture evolution of observables at band limit N.

The Hamiltonian is an affine spectrum h_n = a n + b plus an optional
compact Hermitian perturbation C; the affine part is never materialized
as a matrix, it acts entrywise through the phase gaps h_k - h_l.  The
dissipative part is a finite list of Lindblad operators and/or one
diagonal operator diag(lambda_n) handled entrywise.

Closed forms:

    harmonic:          a[k,l](t) = a[k,l](0) exp(i (h_k - h_l) t)
    diagonal Lindblad: a[k,l](t) = a[k,l](0) exp(phi[k,l] t),
        phi[k,l] = conj(lam_k) lam_l - |lam_k|^2/2 - |lam_l|^2/2

Re phi = -|lam_k - lam_l|^2 / 2 <= 0, so every off-diagonal mode decays
and the diagonal is frozen; Hermiticity is preserved for any lambda since
phi[l,k] = conj(phi[k,l]).

The generator splits into an entrywise rate and a remainder,

    A -> R .* A + N(A),   R = s i Delta + phi_s,
    N(A) = sum_j L_j^+ A L_j + M A + A M^+,   M = s i C - 1/2 sum_j L_j^+ L_j,

with s = +1 and phi_s = phi in the Heisenberg picture; the Schroedinger
picture (s = -1) swaps L_j and L_j^+ in the first term and uses
phi_s = conj(phi).  An unknown picture name raises DomainError.

The integrator is Lawson's integrating-factor RK4: exp(h R) is applied
exactly each step and classical RK4 only sees N.  Every factor it
multiplies by is exp(h R) or exp(h R / 2), of modulus <= 1 since
Re phi <= 0, so no step size makes the entrywise part grow.  Without C
and L_j (harmonic and diagonal-lambda flows) N vanishes and each step is
exact up to round-off; otherwise the order is the classical 4.

`evolve_steps` is the one stepper: a generator of (t, norm, array)
records that holds only the current step, so memory is bounded in the run
length.  `evolve_rk4` collects its records into TrajectoryPoint grids.

`lindblad_rhs` and `evolve_steps` both build R and N once, as one
`_Generator`.  Its one `remainder` forms

    Y = M A + c sum_j L_j^+ A L_j   (L_j and L_j^+ swapped when s = -1)

in two matrix products for any number of operators: M stacked over the
L_j^+ times A, then the L_j^+ A blocks side by side times the stacked L_j.
With c = 1, N(A) = Y + A M^+.  On a Hermitian A each L_j term is
Hermitian and (M A)^+ = A M^+, so with c = 1/2, N(A) = Y + Y^+: one
product fewer, and the output is Hermitian bitwise.  `evolve_steps` takes
this finish when a0's data equals its conjugate transpose exactly (as
`q_transform` output does).  Every stage input then stays Hermitian
bitwise: phi is Hermitian bitwise (a complex lambda's phi mirrors its
upper triangle), so exp(h R)^T equals conj(exp(h R)) entry for entry.
Other grids and `lindblad_rhs` take the general finish.  N returns zeros
without C and L_j; the generator's `exact` flag then sends `evolve_steps`
down the exact path.  A rate or an M that overflows is left to the
per-step finiteness check, without a warning at construction.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, IntegrationError
from .grids import (
    FOURIER_REAL,
    GENERAL,
    CoeffGrid,
    index_range,
    kl_mesh,
    require_fourier_real,
    require_hermitian,
)
from .sobolev import SobolevWeight, _weighted_norm, norm

SUPPORT_RTOL = 1e-12
MAX_STEPS = 10**9  # a longer run is refused before its first step


def _require_finite(**scalars):
    for name, value in scalars.items():
        if value is not None and not math.isfinite(value):
            raise DomainError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class HarmonicSpec:
    a: float
    b: float = 0.0
    floor: Optional[int] = None  # h_n = 0 for n < floor

    def __post_init__(self):
        _require_finite(a=self.a, b=self.b)

    def levels(self, n: int) -> np.ndarray:
        idx = index_range(n)
        h = self.a * idx + self.b
        if self.floor is not None:
            h = np.where(idx < self.floor, 0.0, h)
        return h

    def gaps(self, n: int) -> np.ndarray:
        """Matrix of h_k - h_l over the index window."""
        h = self.levels(n)
        return h[:, None] - h[None, :]


def _check_initial_grid(a0: CoeffGrid, floor: Optional[int]):
    """Finite entries, and no support below the spectrum floor when one is set."""
    if not np.all(np.isfinite(a0.data)):
        raise DomainError("initial grid has non-finite entries")
    if floor is None:
        return
    bad = index_range(a0.n) < floor
    dev = float(np.max(np.abs(a0.data), where=bad[:, None] | bad[None, :], initial=0.0))
    if dev > SUPPORT_RTOL * max(a0.scale(), 1e-300):
        raise DomainError(
            "initial grid has support below the spectrum floor %d (max %.3e below it)"
            % (floor, dev)
        )


def linear_lambda(c: complex, n: int) -> np.ndarray:
    """The diagonal family lam_k = c*k on the index window [-n, n]."""
    return c * index_range(n).astype(np.complex128)


@dataclass(eq=False)
class LindbladSet:
    c: Optional[CoeffGrid] = None
    ls: List[CoeffGrid] = field(default_factory=list)
    lam: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.c is not None:
            require_hermitian(self.c)
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=np.complex128)
            if not np.all(np.isfinite(self.lam)):
                raise DomainError("lambda entries must be finite")
            if self.lam.ndim != 1 or self.lam.size % 2 != 1:
                raise DimensionError("lambda must be a 1D sequence of odd length 2N+1")
        self.n  # refuses mixed band limits

    @property
    def n(self) -> Optional[int]:
        """The band limit shared by C, the L_j and lambda; None for an empty set."""
        sizes = {g.n for g in [self.c, *self.ls] if g is not None}
        if self.lam is not None:
            sizes.add((self.lam.size - 1) // 2)
        if len(sizes) > 1:
            raise DimensionError("inconsistent band limits in LindbladSet: %r" % sizes)
        return sizes.pop() if sizes else None

    def is_empty(self) -> bool:
        return self.c is None and not self.ls and self.lam is None

    def phi_matrix(self) -> Optional[np.ndarray]:
        if self.lam is None:
            return None
        lam = self.lam
        a2 = np.abs(lam) ** 2
        phi = np.conj(lam)[:, None] * lam[None, :] - 0.5 * (a2[:, None] + a2[None, :])
        if lam.imag.any():
            # complex products round conj(lam_k) lam_l and conj(lam_l) lam_k
            # apart; mirror the upper triangle so phi is Hermitian bitwise.  A
            # real lam is already symmetric, and mirroring would only flip the
            # signs of its zero imaginary parts
            low = np.tril_indices(lam.size, -1)
            phi[low] = np.conj(phi.T[low])
        np.fill_diagonal(phi, 0.0)  # exactly zero in exact arithmetic; keep it so
        return phi


@dataclass(frozen=True)
class EvolveConfig:
    t_end: float
    dt: Optional[float] = None  # None: min(1e-3, 0.5 / max phase gap)
    alpha: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        _require_finite(t_end=self.t_end, dt=self.dt, alpha=self.alpha)
        if self.t_end < 0:
            raise DomainError("t_end must be non-negative")
        if self.dt is not None and self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")


@dataclass
class TrajectoryPoint:
    t: float
    grid: CoeffGrid
    alpha_norm: float


def heisenberg_closed(a0: CoeffGrid, h: HarmonicSpec, t: float) -> CoeffGrid:
    _require_finite(t=t)
    _check_initial_grid(a0, h.floor)
    phase = np.exp(1j * h.gaps(a0.n) * t)
    return CoeffGrid(a0.n, a0.data * phase, a0.tag)


def drift_oracle(f0: CoeffGrid, a: float, t: float) -> CoeffGrid:
    """Harmonic flow at field level: rigid transport on the torus.

    In coefficients the flow is the phase modulation
        fhat[k,l] -> fhat[k,l] * exp(i a (k - l) t),
    i.e. f_t(x, y) = f_0(x + (a/2pi) t, y - (a/2pi) t).  Matches the
    Q-conjugated closed form exactly.
    """
    _require_finite(a=a, t=t)
    require_fourier_real(f0)
    k, l = kl_mesh(f0.n)
    phase = np.exp(1j * a * (k - l) * t)
    return CoeffGrid(f0.n, f0.data * phase, FOURIER_REAL)


def diagonal_lindblad_closed(a0: CoeffGrid, lam: Sequence[complex], t: float) -> CoeffGrid:
    _require_finite(t=t)
    if t < 0:
        raise DomainError("diagonal Lindblad closed form needs t >= 0")
    lset = LindbladSet(lam=np.asarray(lam))
    if lset.n != a0.n:
        raise DimensionError("lambda length %d does not match grid n=%d"
                             % (2 * lset.n + 1, a0.n))
    factor = np.exp(lset.phi_matrix() * t)
    return CoeffGrid(a0.n, a0.data * factor, a0.tag)


_PICTURES = {"heisenberg": 1.0, "schrodinger": -1.0}


class _Generator:
    """The generator A -> R .* A + N(A) of one run, on raw data.

    Checks the operator set's band limit against n and the picture name, and
    holds the largest phase gap, R, N and whether N vanishes.  `remainder`
    costs one product with M stacked over the left_j and one with the
    stacked right_j, plus one with M^+ unless the data is Hermitian.
    """

    def __init__(self, h: HarmonicSpec, lset: Optional[LindbladSet], n: int, picture: str):
        lset = lset or LindbladSet()
        if lset.n is not None and lset.n != n:
            raise DimensionError("operator set band limit %d vs grid %d" % (lset.n, n))
        if picture not in _PICTURES:
            raise DomainError("unknown picture %r; expected 'heisenberg' or 'schrodinger'"
                              % (picture,))
        sign = _PICTURES[picture]
        gaps = h.gaps(n)
        self.gap = float(np.max(np.abs(gaps)))
        self.rate = (sign * 1j) * gaps
        self.m = self.left = self.right = None
        if lset.c is not None:
            self.m = (sign * 1j) * lset.c.data
        # a rate or an M past 1e308 is left to the stepper's per-step finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            phi = lset.phi_matrix()
            if phi is not None:
                self.rate += phi if sign > 0 else np.conj(phi)
            if lset.ls:
                ls = np.concatenate([l.data for l in lset.ls])  # (J m, m): L_j stacked by rows
                lh = np.concatenate([np.conj(l.data.T) for l in lset.ls])
                lhl = np.conj(ls.T) @ ls  # sum_j L_j^+ L_j in one product
                self.m = -0.5 * lhl if self.m is None else self.m - 0.5 * lhl
                # Heisenberg: sum_j L_j^+ A L_j; Schroedinger: sum_j L_j A L_j^+
                self.left, self.right = (lh, ls) if sign > 0 else (ls, lh)
        self.exact = self.m is None  # no C, no L_j: N vanishes and exp(h R) steps exactly
        if not self.exact:
            self.m_h = np.conj(self.m.T)
            # M over the left_j, and the right_j halved for the Hermitian finish
            self.m_left = self.m if self.left is None else np.concatenate([self.m, self.left])
            self.half_right = None if self.right is None else 0.5 * self.right

    def remainder(self, ad: np.ndarray, hermitian: bool = False) -> np.ndarray:
        """N on raw data; zeros on an exact run.

        Y = M A + sum_j left_j A right_j, the right_j halved when `hermitian`
        is set.  The general finish is Y + A M^+; on Hermitian data the
        Hermitian finish Y + Y^+ equals it and is Hermitian bitwise.
        """
        if self.exact:
            return np.zeros_like(ad)
        side = ad.shape[0]
        p = self.m_left @ ad  # M A on top of the left_j A
        y = p[:side]
        if self.left is not None:
            # rows j m .. (j+1) m - 1 of p[side:] hold left_j A; laid side by
            # side they meet the row-stacked right_j, so one product sums over j
            z = p[side:].reshape(-1, side, side).transpose(1, 0, 2)
            y += z.reshape(side, -1) @ (self.half_right if hermitian else self.right)
        return y + np.conj(y.T) if hermitian else y + ad @ self.m_h


def lindblad_rhs(a: CoeffGrid, h: HarmonicSpec, lset: Optional[LindbladSet] = None,
                 picture: str = "heisenberg") -> CoeffGrid:
    """Full generator: affine phases + compact commutator + dissipator."""
    gen = _Generator(h, lset, a.n, picture)
    return CoeffGrid(a.n, gen.rate * a.data + gen.remainder(a.data), GENERAL)


def default_dt(h: HarmonicSpec, n: int) -> float:
    gap = float(np.max(np.abs(h.gaps(n))))
    if gap == 0.0:
        return 1e-3
    return min(1e-3, 0.5 / gap)


def evolve_steps(a0: CoeffGrid, h: HarmonicSpec, lset: Optional[LindbladSet],
                 cfg: EvolveConfig, picture: str = "heisenberg"
                 ) -> Iterator[Tuple[float, float, np.ndarray]]:
    """Fixed-step Lawson RK4 with the entrywise rate R as integrating factor.

    Within each step A(t_n + u) = exp(u R) .* B(u), and classical RK4
    advances B; written back in A, every stage is multiplied by exp(h R)
    or exp(h R / 2) only, which never grow.  Flows without C and L_j are
    stepped by exp(h R) alone, exact to round-off.

    Yields (t, alpha-norm, data) at t = 0 and at every `cfg.record_every`-th
    step (always at t_end).  The data array is the stepper's own, read-only
    and never written again; nothing else is kept, so memory does not grow
    with the number of steps.  Every step is checked for finite entries.
    A run of more than MAX_STEPS steps is refused before the first record.
    """
    _check_initial_grid(a0, h.floor)
    n = a0.n
    gen = _Generator(h, lset, n, picture)
    dt = cfg.dt if cfg.dt is not None else default_dt(h, n)
    if dt * gen.gap > 0.5:
        warnings.warn(
            "dt=%g does not resolve the fastest phase gap %g (dt*gap=%.3g > 0.5)"
            % (dt, gen.gap, dt * gen.gap),
            RuntimeWarning,
        )
    if not math.isfinite(cfg.t_end / dt):
        raise DomainError("t_end=%g over dt=%g is not a finite number of steps"
                          % (cfg.t_end, dt))
    n_steps = max(1, int(np.ceil(cfg.t_end / dt - 1e-12)))
    if n_steps > MAX_STEPS:
        raise DomainError("t_end=%g over dt=%g is %.3g steps, more than the %d allowed"
                          % (cfg.t_end, dt, n_steps, MAX_STEPS))

    # the flow keeps a Hermitian a0 Hermitian; checked on the data, not the tag
    hermitian = np.array_equal(a0.data, np.conj(a0.data.T))
    wgt = SobolevWeight(cfg.alpha).weights(n)
    a = np.array(a0.data)
    a.setflags(write=False)
    yield 0.0, _weighted_norm(a, wgt), a
    if cfg.t_end == 0.0:
        return

    base_dt = cfg.t_end / n_steps  # uniform steps <= dt that land exactly on t_end
    with np.errstate(over="ignore", invalid="ignore"):  # nan rates fail the first step's check
        e_full = np.exp(base_dt * gen.rate)
        e_half = np.exp((base_dt / 2.0) * gen.rate)

    for step in range(1, n_steps + 1):
        if gen.exact:
            a = e_full * a
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite a fails the check
                ea = e_full * a
                k1 = gen.remainder(a, hermitian)
                k2 = gen.remainder(e_half * (a + (base_dt / 2.0) * k1), hermitian)
                k3 = gen.remainder(e_half * a + (base_dt / 2.0) * k2, hermitian)
                k4 = gen.remainder(ea + base_dt * (e_half * k3), hermitian)
                a = ea + (base_dt / 6.0) * (e_full * k1 + 2.0 * (e_half * (k2 + k3)) + k4)
        t = step * base_dt
        if not np.all(np.isfinite(a)):
            raise IntegrationError(
                "non-finite entries at t=%.6g (step %d); reduce dt or rescale"
                % (t, step)
            )
        if step % cfg.record_every == 0 or step == n_steps:
            a.setflags(write=False)
            yield t, _weighted_norm(a, wgt), a


def evolve_rk4(a0: CoeffGrid, h: HarmonicSpec, lset: Optional[LindbladSet],
               cfg: EvolveConfig, picture: str = "heisenberg") -> List[TrajectoryPoint]:
    """Every record of `evolve_steps` kept as a grid; memory grows with the run."""
    return [TrajectoryPoint(t, CoeffGrid(a0.n, data, a0.tag), alpha_norm)
            for t, alpha_norm, data in evolve_steps(a0, h, lset, cfg, picture)]


@dataclass(frozen=True)
class GrowthBound:
    c: float
    pure_factor: float  # exp(c t), valid for the a=0 dissipative flow
    full_factor: float  # 1 + sqrt(c t (exp(2 c t) - 1)) / (2 sqrt(2))


def growth_factors(c: float, t: float):
    """(pure, full) growth factors of a norm at time t for dissipative constant c."""
    if t == 0.0 and not math.isnan(c):
        return 1.0, 1.0  # also for c = inf, where c t is nan; a nan c stays undefined
    with np.errstate(over="ignore"):
        pure = float(np.exp(c * t))
        full = 1.0 + float(np.sqrt(c * t * (np.exp(2.0 * c * t) - 1.0))) / (2.0 * np.sqrt(2.0))
    return pure, full


def dissipative_constant(alpha: float, lset: LindbladSet) -> float:
    """c = 4 ||C||_alpha + 4 sum_j ||L_j||^2_alpha (diag lambda included)."""
    w = SobolevWeight(alpha)
    c = 0.0
    if lset.c is not None:
        c += 4.0 * norm(lset.c, w)
    with np.errstate(over="ignore"):  # a float ** 2 past 1e308 raises; here it is inf
        for l in lset.ls:
            c += 4.0 * float(np.float64(norm(l, w)) ** 2)
        if lset.lam is not None:
            wts = w.weights(lset.n).diagonal()
            c += 4.0 * float(np.sum(wts * np.abs(lset.lam) ** 2))
    return c


def growth_bound(alpha: float, lset: LindbladSet, t: float) -> GrowthBound:
    if alpha < 0:
        raise DomainError("growth bound needs alpha >= 0")
    if t < 0:
        raise DomainError("growth bound needs t >= 0")
    c = dissipative_constant(alpha, lset)
    return GrowthBound(c, *growth_factors(c, t))
