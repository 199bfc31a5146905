"""Dense complex matrix substrate: norms, kernels, column spaces, and
operators restricted to subspaces.

A gate comparing spectral norms is decided by norm_gate from the O(size)
bracket of norm_bounds, and takes the exact norm (an SVD) only when the
bracket leaves the verdict open; rel_gate is that gate for residual <=
rel_threshold(tol, factor norms).  kernel_basis decides an empty kernel from
the singular values alone when the smallest clears the rank cutoff by more
than their rounding, and takes the full SVD only otherwise.

Every operator in this package is an explicit complex ndarray.  An operator
restricted to a subspace with orthonormal basis B is kept in coordinates, as
its k x k compression B^H A B, next to the residual (1 - B B^H) A B whose
norm is its leak off the subspace; the gate deciding whether that block is
invertible (leak threshold, smallest singular value against the rank cutoff)
lives here.  restricted_inverse zero-extends the inverse block to a
full-size matrix for callers that need one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteMatrixError,
    SingularRestrictionError,
    SubspaceLeakError,
    ToleranceError,
)

#: Absolute residual floor used when every operator norm involved vanishes.
ABS_FLOOR = 1e-12

#: A basis is orthonormal when ||B^H B - 1|| is at most this.
_ORTHONORMAL_TOL = 1e-8

#: _fix_gauge pivots on the first entry above this fraction of the largest.
_GAUGE_REL = 1e-12

#: Relative slack on a bracket of a spectral norm.  It is far above the
#: rounding of either bound and of the SVD, so a verdict taken from the
#: bracket is the one the exact norm would give.
_BRACKET_SLACK = 1e-10

#: Rounding in a computed SVD, and in the products and differences a
#: certificate forms, is taken as at most this many max(shape) eps times the
#: largest singular value, or the norms of the factors.
_CERT_ROUNDING = 8

#: The note on a report entry whose value is an upper bound decided by
#: norm_gate rather than the exact norm.
BOUND_NOTE = "upper bound"


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical policy.

    rank_rel     relative singular-value cutoff for rank decisions
    residual_rel relative residual acceptance for identity checks
    """

    rank_rel: float = 1e-10
    residual_rel: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel", "residual_rel"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ToleranceError(f"{name} must be positive and finite, got {value}")


DEFAULT_TOL = Tolerances()


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteMatrixError("matrix contains NaN or Inf entries")
    return A


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value."""
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def norm_bounds(M) -> tuple[float, float]:
    """(lo, hi) with lo <= ||M||_2 <= hi, from O(size) work.

    hi is the Frobenius norm, lo the largest of the largest column norm, the
    largest row norm and ||M||_F / sqrt(min(shape)) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 6.2); each is widened
    by _BRACKET_SLACK.  The entries are scaled by the largest modulus first,
    so squaring them neither overflows nor underflows.  A non-finite entry
    gives (nan, nan), which leaves every norm_gate verdict to the exact norm.
    """
    mags = np.abs(np.asarray(M))
    if mags.size == 0:
        return 0.0, 0.0
    top = float(mags.max())
    if not math.isfinite(top):
        return math.nan, math.nan
    if top == 0.0:
        return 0.0, 0.0
    sq = (mags / top) ** 2
    cols, rows = sq.sum(axis=0), sq.sum(axis=1)
    fro = float(cols.sum())
    lo = top * math.sqrt(max(cols.max(), rows.max(), fro / min(sq.shape)))
    return lo * (1.0 - _BRACKET_SLACK), top * math.sqrt(fro) * (1.0 + _BRACKET_SLACK)


def norm_gate(residual, factors, gate: Callable) -> tuple[float, float, str]:
    """Decide value <= limit for (value, limit) = gate(||residual||, [||f||
    for f in factors]) from norm_bounds, with the exact op_norm only when the
    bracket leaves the verdict open.

    gate must be nondecreasing in the residual norm, value nonincreasing and
    limit nondecreasing in each factor norm.  The bracket's verdict is then
    the exact one, and the returned (value, limit, note) is either gate at
    the residual's upper bound and the factors' lower bounds, noted
    BOUND_NOTE, or gate at the exact norms, noted "".  So value is never below
    the exact value, limit never above the exact limit, and value <= limit
    exactly when the exact norms pass.
    """
    r_lo, r_hi = norm_bounds(residual)
    bounds = [norm_bounds(f) for f in factors]
    value, limit = gate(r_hi, [lo for lo, _ in bounds])
    if value <= limit:
        return value, limit, BOUND_NOTE
    value_lo, limit_hi = gate(r_lo, [hi for _, hi in bounds])
    if value_lo > limit_hi:
        return value, limit, BOUND_NOTE
    return (*gate(op_norm(residual), [op_norm(f) for f in factors]), "")


def rel_gate(residual, factors, tol: Tolerances) -> tuple[float, float, str]:
    """norm_gate of ||residual|| <= rel_threshold(tol, *[||f|| for f in factors])."""
    return norm_gate(residual, factors, lambda r, norms: (r, rel_threshold(tol, *norms)))


def norm_exceeds(M, limit: float) -> bool:
    """Whether ||M||_2 > limit, decided by norm_gate."""
    value, bound, _ = norm_gate(M, (), lambda r, _: (r, limit))
    return value > bound


def smallest_sv(M) -> float:
    """Smallest singular value of a (possibly rectangular) matrix."""
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def rel_threshold(tol: Tolerances, *norms: float) -> float:
    """Residual acceptance relative to the factor norms, with absolute floor."""
    scale = 1.0
    for n in norms:
        scale *= n
    if scale <= 0.0:
        return ABS_FLOOR
    return max(tol.residual_rel * scale, ABS_FLOOR)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n given by an orthonormal column basis (n x k)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = self.basis
        if B.ndim != 2 or B.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis shape {B.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        k = B.shape[1]
        if k:
            gram = B.conj().T @ B
            if norm_exceeds(gram - np.eye(k), _ORTHONORMAL_TOL):
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def zero_extended_inverse(self, block: np.ndarray) -> np.ndarray:
        """B block^-1 B^H: the inverse of a k x k block in the coordinates of
        the basis B, as an n x n matrix vanishing off the subspace."""
        return self.basis @ np.linalg.solve(block, self.basis.conj().T)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=complex))

    @classmethod
    def empty(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=complex))


def _fix_gauge(cols: np.ndarray) -> np.ndarray:
    """Make the first significant entry of each column real positive.

    Fixes the phase ambiguity of SVD bases so reports are reproducible.
    """
    cols = np.array(cols, dtype=complex)
    for j in range(cols.shape[1]):
        col = cols[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        idx = int(np.argmax(mags > _GAUGE_REL * top))
        pivot = col[idx]
        if pivot != 0:
            cols[:, j] = col * (abs(pivot) / pivot)
    return cols


def _rank_cutoff(s: np.ndarray, shape: tuple, tol: Tolerances):
    """Singular values at or below this count as zero.  s holds the singular
    values of one matrix of the given shape along its last axis, stacked along
    any leading axes (one cutoff per matrix)."""
    smax = s.max(axis=-1) if s.shape[-1] else 0.0
    return tol.rank_rel * smax * max(shape)


def numerical_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    A = as_matrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, A.shape, tol)))


def kernel_basis(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical null space of M.

    With rows >= cols the singular values alone decide an empty kernel: when
    the smallest exceeds the rank cutoff by more than _CERT_ROUNDING
    max(shape) eps times the largest, the full SVD's values, which differ
    from these by less, clear its cutoff too.  Otherwise the full SVD decides.
    """
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return Subspace(cols, np.eye(cols, dtype=complex))
    if rows >= cols:
        s = np.linalg.svd(A, compute_uv=False)
        rho = _CERT_ROUNDING * max(A.shape) * np.finfo(float).eps
        if s[-1] - _rank_cutoff(s, A.shape, tol) > rho * s[0]:
            return Subspace.empty(cols)
    _, s, vh = np.linalg.svd(A)
    cutoff = _rank_cutoff(s, A.shape, tol)
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj().T  # cols - rank columns, padded rows of vh included
    return Subspace(cols, _fix_gauge(null))


def column_space(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical column space of M."""
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return Subspace.empty(rows)
    u, s, _ = np.linalg.svd(A)
    cutoff = _rank_cutoff(s, A.shape, tol)
    rank = int(np.sum(s > cutoff))
    return Subspace(rows, _fix_gauge(u[:, :rank]))


def _compress(A, V: Subspace):
    """(B^H A B, (1 - B B^H) A B) for the basis B of V: the compression of A
    to V and the residual whose norm is the leak of A off V."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != V.ambient_dim:
        raise DimensionMismatchError(
            f"operator shape {A.shape} does not match ambient dim {V.ambient_dim}"
        )
    B = V.basis
    AB = A @ B
    coords = B.conj().T @ AB
    return coords, AB - B @ coords


def restricted_map(A, V: Subspace):
    """Coordinate representation of A on the subspace V.

    Returns (coords, leak): coords = B^H A B with B the basis of V, and
    leak = ||(1 - B B^H) A B||, the extent to which A fails to map V into V.
    """
    coords, leak = _compress(A, V)
    return coords, op_norm(leak)


def _gate_block(coords: np.ndarray, leak: float, threshold: float, tol: Tolerances):
    """Gate a compression whose leak was decided against threshold (by
    rel_gate): raise SubspaceLeakError when leak > threshold,
    SingularRestrictionError when the smallest singular value of coords is at
    or below its rank cutoff.  Returns (smallest sv, largest sv, rank cutoff);
    an empty block gives 0, 0, 0.
    """
    if leak > threshold:
        raise SubspaceLeakError(leak, threshold)
    s = np.linalg.svd(coords, compute_uv=False)
    if not s.size:
        return 0.0, 0.0, 0.0
    cutoff = _rank_cutoff(s, coords.shape, tol)
    if s[-1] <= cutoff:
        raise SingularRestrictionError(
            f"compression singular on the subspace: smallest sv {s[-1]:.3e} <= cutoff {cutoff:.3e}"
        )
    return float(s[-1]), float(s[0]), float(cutoff)


def restricted_inverse(A, V: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of A restricted to V, extended by zero off V.

    Requires A to map V into V, its leak decided by rel_gate against
    rel_threshold(tol, ||A||), and the compression B^H A B to be numerically
    invertible (see _gate_block).  The result G satisfies G A v = A G v = v
    for v in V and G w = 0 for w orthogonal to V.
    """
    A = as_matrix(A)
    coords, residual = _compress(A, V)
    leak, threshold, _ = rel_gate(residual, (A,), tol)
    _gate_block(coords, leak, threshold, tol)
    return V.zero_extended_inverse(coords)
