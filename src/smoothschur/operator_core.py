"""Dense complex matrix substrate: norms, kernels, column spaces, and
operators restricted to subspaces.

A gate comparing spectral norms is decided by norm_gate from the O(size)
bracket of norm_bounds, and takes the exact norm (an SVD) only when the
bracket leaves the verdict open; rel_gate is that gate for residual <=
rel_threshold(tol, factor norms).

One rule decides every rank: _rank_cutoff alone turns rank_rel into a
cutoff, relative to a matrix's largest singular value or to an anchor's
norm.  numerical_rank, _svd_rank and _gate_block here, and the rank tests
of pairs and isospectral, read it.  _svd_rank, read by kernel_basis and
column_space, decides full rank from the values-only SVD when the smallest
value clears the cutoff by more than its rounding, and takes the full SVD
only otherwise.

An operator restricted to a subspace with orthonormal basis B is kept as
its compression B^H A B, next to the residual (1 - B B^H) A B whose norm is
its leak; _gate_block decides whether that block is invertible.  Every
product with B goes through the Subspace, which skips it for the identity
basis of the whole space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteMatrixError,
    NotOrthonormalError,
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


def _finite(name: str, M: np.ndarray) -> np.ndarray:
    """M itself; raises NonFiniteMatrixError "<name> has NaN or Inf entries"
    where M has one, as a product taken with floating-point errors ignored
    can."""
    if not np.isfinite(M).all():
        raise NonFiniteMatrixError(f"{name} has NaN or Inf entries")
    return M


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value.  Raises
    NonFiniteMatrixError where M has a non-finite entry or its norm overflows."""
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return 0.0
    try:
        norm = float(np.linalg.norm(A, 2))
    except np.linalg.LinAlgError:  # the SVD fails on a non-finite entry
        norm = math.nan
    if not math.isfinite(norm):
        raise NonFiniteMatrixError(f"spectral norm is {norm}: a non-finite entry or overflow")
    return norm


def norm_bounds(M) -> tuple[float, float]:
    """(lo, hi) with lo <= ||M||_2 <= hi, from O(size) work.

    hi is the Frobenius norm, lo the largest of the largest column norm, the
    largest row norm and ||M||_F / sqrt(min(shape)) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 6.2); each is widened
    by _BRACKET_SLACK.  The entries are scaled by the largest modulus first,
    so squaring them neither overflows nor underflows.  A non-finite entry
    gives (nan, nan), which leaves every norm_gate verdict to op_norm, and so
    raises NonFiniteMatrixError.
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


def rel_threshold(tol: Tolerances, *norms: float) -> float:
    """Residual acceptance relative to the factor norms, with absolute floor ABS_FLOOR."""
    return max(tol.residual_rel * math.prod(norms), ABS_FLOOR)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n given by an orthonormal column basis B (n x k).

    The identity basis of the whole space is recognized once, on
    construction.  coords (B^H X), lift (B X) and restrict (X B) return X
    itself for it, so no caller multiplies by the identity."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = self.basis
        if B.ndim != 2 or B.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis shape {B.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        k = B.shape[1]
        if k and not self.is_identity:
            gram = B.conj().T @ B
            if norm_exceeds(gram - np.eye(k), _ORTHONORMAL_TOL):
                raise NotOrthonormalError("basis columns are not orthonormal")

    @cached_property
    def is_identity(self) -> bool:
        return self.dim == self.ambient_dim and np.array_equal(self.basis, np.eye(self.dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coords(self, X: np.ndarray) -> np.ndarray:
        return X if self.is_identity else self.basis.conj().T @ X

    def lift(self, X: np.ndarray) -> np.ndarray:
        return X if self.is_identity else self.basis @ X

    def restrict(self, X: np.ndarray) -> np.ndarray:
        return X if self.is_identity else X @ self.basis

    def off(self, X: np.ndarray) -> np.ndarray:
        """(1 - B B^H) X, as X - B (B^H X) with no n x n projector; for the
        whole space an empty matrix, of norm 0."""
        if self.is_identity:
            return np.zeros((0, X.shape[1]), dtype=complex)
        return X - self.lift(self.coords(X))

    def zero_extended_inverse(self, block: np.ndarray) -> np.ndarray:
        """B block^-1 B^H: the inverse of a k x k block in the coordinates of
        the basis B, as an n x n matrix vanishing off the subspace."""
        return self.lift(np.linalg.solve(block, self.basis.conj().T))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=complex))

    @classmethod
    def empty(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=complex))


def _fix_gauge(cols: np.ndarray) -> np.ndarray:
    """Make the first significant entry of each column real positive.

    Fixes the phase ambiguity of SVD bases so reports are reproducible.  Each
    column is a singular vector, of unit norm, so its largest modulus is
    positive and its first entry above _GAUGE_REL times that is nonzero.
    """
    cols = np.array(cols, dtype=complex)
    for j in range(cols.shape[1]):
        col = cols[:, j]
        mags = np.abs(col)
        pivot = col[int(np.argmax(mags > _GAUGE_REL * mags.max()))]
        cols[:, j] = col * (abs(pivot) / pivot)
    return cols


def _rank_cutoff(s: np.ndarray, shape: tuple, tol: Tolerances, anchor=None):
    """The one rank rule: singular values at or below this count as zero.
    It is rank_rel ||M|| max(shape), for M the matrix of this shape whose
    singular values s holds along its last axis (stacked along any leading
    axes, one cutoff per matrix), or the anchor when given.  ||anchor|| is
    the upper end of norm_bounds(anchor), which decides s > cutoff as the
    exact norm does, unless a value of s falls inside the bracket; then it
    is op_norm(anchor)."""
    if anchor is None:
        norm = s.max(axis=-1) if s.shape[-1] else 0.0
    else:
        lo, hi = (tol.rank_rel * b * max(shape) for b in norm_bounds(anchor))
        if not np.any((s > lo) & (s <= hi)):
            return hi
        norm = op_norm(anchor)
    return tol.rank_rel * norm * max(shape)


def numerical_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    A = as_matrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, A.shape, tol)))


def _svd_rank(A: np.ndarray, s: np.ndarray | None, tol: Tolerances, anchor=None):
    """(rank, u, vh) of a nonempty A at its _rank_cutoff.  Given s, the
    values-only singular values of an A that can have full rank, it returns
    full rank with u and vh None when the smallest clears the cutoff by more
    than _CERT_ROUNDING max(shape) eps times the largest, which bounds its
    distance from the full SVD's; otherwise the full SVD decides."""
    rounding = _CERT_ROUNDING * max(A.shape) * np.finfo(float).eps
    if s is not None and s[-1] - _rank_cutoff(s, A.shape, tol, anchor) > rounding * s[0]:
        return min(A.shape), None, None
    u, s, vh = np.linalg.svd(A)
    return int(np.sum(s > _rank_cutoff(s, A.shape, tol, anchor))), u, vh


def kernel_basis(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical null space of M (_kernel_basis)."""
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return Subspace.full(cols)
    return _kernel_basis(A, np.linalg.svd(A, compute_uv=False) if rows >= cols else None, tol)


def _kernel_basis(A: np.ndarray, s: np.ndarray | None, tol: Tolerances, anchor=None) -> Subspace:
    """kernel_basis of a nonempty A, given its values-only singular values s
    when it has rows >= cols (None otherwise), at _rank_cutoff(s, A.shape,
    tol, anchor): the rows of vh past the rank, padded rows included."""
    rank, _, vh = _svd_rank(A, s, tol, anchor)
    cols = A.shape[1]
    return Subspace.empty(cols) if vh is None else Subspace(cols, _fix_gauge(vh[rank:].conj().T))


def column_space(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical column space of M; the identity
    when the rank is the number of rows (with rows <= cols, decided from
    the values-only SVD where it can be: _svd_rank)."""
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return Subspace.empty(rows)
    rank, u, _ = _svd_rank(A, np.linalg.svd(A, compute_uv=False) if rows <= cols else None, tol)
    return Subspace.full(rows) if rank == rows else Subspace(rows, _fix_gauge(u[:, :rank]))


def _compress(A, V: Subspace):
    """(B^H A B, (1 - B B^H) A B) for the basis B of V: the compression of A
    to V and the residual whose norm is the leak of A off V.  Nothing leaks
    off the whole space: its residual is an empty matrix, of norm 0."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != V.ambient_dim:
        raise DimensionMismatchError(
            f"operator shape {A.shape} does not match ambient dim {V.ambient_dim}"
        )
    if V.is_identity:
        return A, V.off(A)
    AB = V.restrict(A)
    coords = V.coords(AB)
    return coords, AB - V.lift(coords)


def _gate_block(coords: np.ndarray, leak: float, threshold: float, tol: Tolerances, anchor=None):
    """Gate a compression whose leak was decided against threshold (by
    rel_gate): raise SubspaceLeakError when leak > threshold,
    SingularRestrictionError when the smallest singular value of coords is at
    or below its _rank_cutoff, relative to coords or, with an anchor, to the
    n x n operator that coords compresses.  Returns (smallest sv, largest
    sv, rank cutoff); an empty block gives 0, 0, 0.
    """
    if leak > threshold:
        raise SubspaceLeakError(leak, threshold)
    s = np.linalg.svd(coords, compute_uv=False)
    if not s.size:
        return 0.0, 0.0, 0.0
    if anchor is None:
        cutoff = _rank_cutoff(s, coords.shape, tol)
    else:
        cutoff = _rank_cutoff(s[-1:], anchor.shape, tol, anchor)
    if s[-1] <= cutoff:
        raise SingularRestrictionError(
            f"compression singular on the subspace: smallest sv {s[-1]:.3e} <= cutoff {cutoff:.3e}"
        )
    return float(s[-1]), float(s[0]), float(cutoff)


def restricted_inverse(A, V: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of A restricted to V, extended by zero off V.

    Requires A to map V into V, its leak decided by rel_gate against
    rel_threshold(tol, ||A||), and the compression B^H A B to be numerically
    invertible: its smallest singular value above rank_rel n ||A|| (see
    _gate_block), so a compression that is zero up to rounding is singular
    however small V is.  For the whole space B^H A B is A, whose own cutoff
    is that one.  The result G satisfies G A v = A G v = v for v in V and
    G w = 0 for w orthogonal to V.
    """
    A = as_matrix(A)
    coords, residual = _compress(A, V)
    leak, threshold, _ = rel_gate(residual, (A,), tol)
    _gate_block(coords, leak, threshold, tol, anchor=None if V.is_identity else A)
    return V.zero_extended_inverse(coords)
