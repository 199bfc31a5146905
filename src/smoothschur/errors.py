"""Exception hierarchy for the smoothschur package."""


class SmoothSchurError(Exception):
    """Base class for all package errors."""


class ToleranceError(SmoothSchurError, ValueError):
    """A tolerance is not a positive finite number."""


class NotOrthonormalError(SmoothSchurError, ValueError):
    """A subspace basis has columns that are not orthonormal."""


class DimensionMismatchError(SmoothSchurError):
    """Operands have incompatible shapes."""


class NonFiniteMatrixError(SmoothSchurError):
    """A matrix contains NaN or Inf entries."""


class SubspaceLeakError(SmoothSchurError):
    """An operator fails to map the requested subspace into itself."""

    def __init__(self, leak: float, threshold: float):
        self.leak = leak
        self.threshold = threshold
        super().__init__(
            f"operator leaks off the subspace: leak={leak:.3e} > {threshold:.3e}"
        )


class SingularRestrictionError(SmoothSchurError):
    """The compression of an operator to a subspace is numerically singular."""


class PartitionError(SmoothSchurError):
    """A candidate (chi, chibar) pair violates a partition invariant."""


class NotIdempotentError(PartitionError):
    """A candidate projection fails P^2 = P."""


class NotHermitianError(SmoothSchurError):
    """A matrix required to be Hermitian is not."""


class NotDiagonalizableError(SmoothSchurError):
    """Eigenvector matrix too ill-conditioned for functional calculus."""


class CommutationError(SmoothSchurError):
    """chi or chibar fails to commute with the reference operator T."""


class BlockInvertibilityError(SmoothSchurError):
    """T or the chibar-dressed operator is not invertible on ran(chibar)."""


class ContractionError(SmoothSchurError):
    """The geometric series does not contract (coupling norm >= 1)."""

    def __init__(self, norm: float):
        self.norm = norm
        super().__init__(f"series not contractive: coupling norm {norm:.3e} >= 1")


class EffectiveOperatorSingularError(SmoothSchurError):
    """The effective operator is singular on the chosen subspace, hence so is H."""


class OperatorSingularError(SmoothSchurError):
    """H itself is numerically singular; its full inverse does not exist."""


class ReductionStageError(SmoothSchurError):
    """A stage of an iterated reduction failed to form a valid pair."""

    def __init__(self, stage: int, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"reduction stage {stage} invalid: {cause}")


class EmptyGridError(SmoothSchurError):
    """A spectral scan was requested on an empty grid, on one with a
    non-finite point, or on one with an entry that is not a number (the
    message names it)."""


class MatrixFileError(SmoothSchurError):
    """A matrix file is malformed; message names file and position."""


class InstanceSpecError(SmoothSchurError):
    """An instance specification is invalid or could not be realized."""
