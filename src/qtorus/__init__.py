"""Band-limited torus fields as Hermitian matrices.

Core pipeline: sample a doubly periodic field, take its Fourier grid,
rearrange it into a Hermitian matrix (the Q-transform), and work there:
Sobolev norms, commutators, Lindblad-type evolution, generalized
transforms over the Dirichlet ring, and broadband averaging over
Riemann-zeta zero ordinates.
"""

__version__ = "0.1.0"

from .commutators import field_commutator, field_commutator_complex, op_commutator
from .dirichlet import (
    ArithmeticSeq,
    PeriodizedZeta,
    ZetaParams,
    apply_D,
    apply_D_inv,
    d_matrix,
    d_transform_2d,
    dirichlet_convolve,
    dirichlet_inverse,
    estimated_operator_norm,
    moebius,
    operator_norm_bound,
    periodized_zeta,
    qd_transform,
    unit_sequence,
)
from .dynamics import (
    EvolveConfig,
    GrowthBound,
    HarmonicSpec,
    LindbladSet,
    TrajectoryPoint,
    default_dt,
    diagonal_lindblad_closed,
    dissipative_constant,
    drift_oracle,
    evolve_rk4,
    growth_bound,
    growth_factors,
    heisenberg_closed,
    linear_lambda,
    lindblad_rhs,
)
from .errors import (
    DataError,
    DimensionError,
    DomainError,
    EmptyRangeError,
    FormatError,
    HermiticityError,
    IntegrationError,
    QTorusError,
    SymmetryError,
)
from .grids import (
    FOURIER_REAL,
    GENERAL,
    HERMITIAN,
    CoeffGrid,
    SampleGrid,
    fourier_real_deviation,
    hermitian_deviation,
    index_range,
    require_fourier_real,
    require_hermitian,
    single_entry,
)
from .gridio import (
    RunManifest,
    center_fit,
    grid_from_json,
    grid_to_json,
    ingest_pgm,
    read_grid,
    read_pgm,
    write_grid,
    write_pgm,
)
from .redundancy import (
    ZeroTable,
    averaging_errors,
    broadband_average_1d,
    broadband_average_2d,
    broadband_average_2d_counts,
    broadband_average_2d_per_zero,
    c_d,
    load_zero_table,
    phase_average,
)
from .sobolev import SobolevWeight, commutator_pairing, inner, norm
from .spectral import (
    analyze,
    hermitian_split,
    q_inverse,
    q_transform,
    s_inv,
    s_map,
    synthesize,
)
from .summation import KahanAccumulator
