"""smoothschur: generalized (smooth) Schur-complement reduction for dense
complex matrices, with partition-of-unity cutoffs that need not be
projections or self-adjoint.

The package constructs and validates partition pairs (chi, chibar) with
chi^2 + chibar^2 = 1, assembles operator pairs (H, T) satisfying the
commutation and block-invertibility conditions, computes the effective
operator F and its auxiliary operators Q / Q_sharp, verifies the exact
algebraic identities relating them, and exercises the isospectrality
results: invertibility equivalence with explicit mutual inverse formulas,
and the kernel isomorphisms implemented by chi and Q.
"""

from .errors import (
    BlockInvertibilityError,
    CommutationError,
    ContractionError,
    DimensionMismatchError,
    EffectiveOperatorSingularError,
    EmptyGridError,
    InstanceSpecError,
    MatrixFileError,
    NonFiniteMatrixError,
    NotDiagonalizableError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    OperatorSingularError,
    PartitionError,
    ReductionStageError,
    SingularRestrictionError,
    SmoothSchurError,
    SubspaceLeakError,
    ToleranceError,
)
from .identities import verify_alt_remark, verify_basics, verify_resolvent
from .instances import Instance, InstanceSpec, generate, generate_singular, worked_2x2
from .isospectral import (
    KernelCorrespondence,
    ScanResult,
    admissible_subspace_check,
    halving_partitions,
    invert_F_via_H,
    invert_H_via_F,
    iterated_reduction,
    kernel_correspondence,
    spectral_scan,
)
from .operator_core import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    column_space,
    kernel_basis,
    norm_bounds,
    numerical_rank,
    op_norm,
    restricted_inverse,
)
from .pairs import (
    FeshbachData,
    FeshbachPair,
    NeumannResult,
    build_pair,
    feshbach_map,
    neumann_inverse,
    sufficient_conditions,
)
from .partition import (
    Partition,
    make_nonselfadjoint,
    make_sharp,
    make_smooth_selfadjoint,
    matrix_function,
    smoothstep,
    validate_partition,
)
from .report import ResidualEntry, ResidualReport

__version__ = "0.1.0"
