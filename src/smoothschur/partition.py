"""Partition-of-unity pairs (chi, chibar) with chi^2 + chibar^2 = 1.

Three construction routes are provided: sharp projections, smooth Hermitian
partitions built from a cutoff function of a Hermitian generator, and
non-Hermitian partitions built as sin/cos of a function of a diagonalizable
generator (sin^2 + cos^2 = 1 is an entire identity, valid for complex
arguments).  A companion constructor builds reference operators T as
functions of the same generator so commutation holds by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDiagonalizableError,
    NotHermitianError,
    NotIdempotentError,
    PartitionError,
)
from .operator_core import (
    ABS_FLOOR,
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    norm_bounds,
    norm_gate,
    op_norm,
    rel_gate,
)
from .report import ResidualReport

#: Operators with norm below this count as zero (partitions must be nonzero).
ZERO_NORM = 1e-12

#: Reject generators whose eigenvector matrix condition number exceeds this.
MAX_EIGVEC_COND = 1e8


def smoothstep(x):
    """C^1 cutoff: 1 for x <= 0, 1 - 3x^2 + 2x^3 on [0, 1], 0 for x >= 1."""
    x = np.asarray(x, dtype=float)
    y = np.clip(x, 0.0, 1.0)
    return 1.0 - y * y * (3.0 - 2.0 * y)


def _hermitian_residual(A: np.ndarray, tol: Tolerances):
    """(residual, threshold, note) of ||A - A^H|| <= rel_threshold(tol, ||A||)."""
    return rel_gate(A - A.conj().T, (A,), tol)


def _eigh_function(A: np.ndarray, f: Callable) -> np.ndarray:
    w, v = np.linalg.eigh(A)
    return (v * np.asarray(f(w))) @ v.conj().T


def hermitian_function(Hf, f: Callable, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """f(Hf) for Hermitian Hf via the spectral theorem."""
    A = as_matrix(Hf)
    residual, threshold, _ = _hermitian_residual(A, tol)
    if residual > threshold:
        raise NotHermitianError(f"Hermitian residual {residual:.3e} > {threshold:.3e}")
    return _eigh_function(A, f)


def matrix_function(A, f: Callable, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """f(A) for diagonalizable A via eigen-decomposition.

    Hermitian A takes the spectral theorem, as hermitian_function does.
    Rejects generators whose eigenvector matrix is too ill-conditioned for
    the functional calculus to be trustworthy.
    """
    A = as_matrix(A)
    residual, threshold, _ = _hermitian_residual(A, tol)
    if residual <= threshold:
        return _eigh_function(A, f)
    w, v = np.linalg.eig(A)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > MAX_EIGVEC_COND:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {MAX_EIGVEC_COND:.1e}"
        )
    return (v * np.asarray(f(w))) @ np.linalg.inv(v)


@dataclass(frozen=True)
class Partition:
    """Validated pair of commuting matrices with chi^2 + chibar^2 = 1."""

    chi: np.ndarray
    chibar: np.ndarray
    evidence: ResidualReport

    @property
    def dim(self) -> int:
        return self.chi.shape[0]


def _is_zero(M: np.ndarray) -> bool:
    """Whether ||M|| < ZERO_NORM, with the exact norm only when norm_bounds
    straddle ZERO_NORM."""
    lo, hi = norm_bounds(M)
    if lo < ZERO_NORM <= hi:
        return op_norm(M) < ZERO_NORM
    return hi < ZERO_NORM


def validate_partition(chi, chibar, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Check the partition invariants and return the validated pair.

    Invariants: chi and chibar commute, chi^2 + chibar^2 = 1, and neither
    operator is zero.
    """
    chi = as_matrix(chi)
    chibar = as_matrix(chibar)
    n = chi.shape[0]
    if chi.shape != (n, n) or chibar.shape != (n, n):
        raise DimensionMismatchError(
            f"partition operators must be square and equal-sized, got {chi.shape} and {chibar.shape}"
        )
    if _is_zero(chi):
        raise PartitionError("chi is (numerically) the zero operator")
    if _is_zero(chibar):
        raise PartitionError("chibar is (numerically) the zero operator")

    def unity_gate(r, norms):
        nchi, nchibar = norms
        return r, max(tol.residual_rel * (1.0 + nchi**2 + nchibar**2), ABS_FLOOR)

    evidence = ResidualReport()
    factors = (chi, chibar)
    evidence.add("partition/commutation", *rel_gate(chi @ chibar - chibar @ chi, factors, tol))
    evidence.add("partition/unity", *norm_gate(chi @ chi + chibar @ chibar - np.eye(n), factors, unity_gate))

    if not evidence.passed:
        failing = [e for e in evidence if not e.passed]
        raise PartitionError(
            "; ".join(f"{e.label}: residual {e.residual:.3e} > {e.threshold:.3e}" for e in failing)
        )
    return Partition(chi, chibar, evidence)


def make_sharp(P, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Partition from a projection: chi = P, chibar = 1 - P."""
    P = as_matrix(P)
    idem, threshold, _ = rel_gate(P @ P - P, (P, P), tol)
    if idem > threshold:
        raise NotIdempotentError(f"P^2 - P residual {idem:.3e} > {threshold:.3e}")
    n = P.shape[0]
    return validate_partition(P, np.eye(n) - P, tol)


def make_smooth_selfadjoint(Hf, f: Callable, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Hermitian partition chi = f(Hf), chibar = sqrt(1 - f^2)(Hf).

    f must take values in [0, 1] on the spectrum of the Hermitian generator.
    """
    def fbar(w):
        vals = np.asarray(f(w), dtype=float)
        return np.sqrt(np.clip(1.0 - vals * vals, 0.0, None))

    chi = hermitian_function(Hf, f, tol)
    chibar = hermitian_function(Hf, fbar, tol)
    return validate_partition(chi, chibar, tol)


def make_nonselfadjoint(A, theta: Callable, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Non-Hermitian partition chi = sin(theta(A)), chibar = cos(theta(A))."""
    chi = matrix_function(A, lambda w: np.sin(theta(w)), tol)
    chibar = matrix_function(A, lambda w: np.cos(theta(w)), tol)
    return validate_partition(chi, chibar, tol)


def make_commuting_T(generator, g: Callable, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Reference operator T = g(generator).

    Any partition built from the same generator commutes with T
    automatically, since both are functions of one matrix.
    """
    return matrix_function(generator, g, tol)
