"""Partition-of-unity pairs (chi, chibar) with chi^2 + chibar^2 = 1.

Three construction routes are provided: sharp projections, smooth Hermitian
partitions built from a cutoff function of a Hermitian generator, and
non-Hermitian partitions built as sin/cos of a function of a diagonalizable
generator (sin^2 + cos^2 = 1 is an entire identity, valid for complex
arguments).  A reference operator T built as matrix_function of the same
generator commutes with the partition by construction.

Every function of a generator comes from one _Decomposition of it: the
Hermitian test runs once, then eigh, or eig with one condition number and
one inverse of the eigenvectors.  chi and chibar share it, and instance
generation shares it with T as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDiagonalizableError,
    NotHermitianError,
    NotIdempotentError,
    PartitionError,
)
from .operator_core import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    as_matrix,
    column_space,
    norm_exceeds,
    norm_gate,
    rel_gate,
    rel_threshold,
)
from .report import ResidualReport

#: Operators with norm at or below this count as zero (partitions must be nonzero).
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


class _Decomposition(NamedTuple):
    """A diagonalization A = V diag(w) V^-1 of a generator, with V^-1 taken
    once (V^H when A is Hermitian).  Calling it with f gives f(A), so any
    number of functions of A share one decomposition."""

    w: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray

    def __call__(self, f: Callable) -> np.ndarray:
        return (self.V * np.asarray(f(self.w))) @ self.V_inv


def _decompose(A: np.ndarray, tol: Tolerances, hermitian: bool = False) -> _Decomposition:
    """Diagonalize A after one Hermitian test: eigh when A passes it, else
    eig with the condition number of its eigenvectors gated.

    hermitian=True raises NotHermitianError where A fails the test; otherwise
    NotDiagonalizableError is raised when the eigenvector matrix is too
    ill-conditioned for the functional calculus to be trustworthy.
    """
    residual, threshold, _ = _hermitian_residual(A, tol)
    if residual <= threshold:
        w, V = np.linalg.eigh(A)
        return _Decomposition(w, V, V.conj().T)
    if hermitian:
        raise NotHermitianError(f"Hermitian residual {residual:.3e} > {threshold:.3e}")
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > MAX_EIGVEC_COND:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {MAX_EIGVEC_COND:.1e}"
        )
    return _Decomposition(w, V, np.linalg.inv(V))


def matrix_function(A, f: Callable, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """f(A) for diagonalizable A via eigen-decomposition.

    Hermitian A takes the spectral theorem.
    Rejects generators whose eigenvector matrix is too ill-conditioned for
    the functional calculus to be trustworthy.  T = g(A) commutes with every
    partition built from A, since both are functions of one matrix.
    """
    return _decompose(as_matrix(A), tol)(f)


@dataclass(frozen=True)
class Partition:
    """Validated pair of commuting matrices with chi^2 + chibar^2 = 1, and the
    Tolerances it was validated with, which everything built on it reads."""

    chi: np.ndarray
    chibar: np.ndarray
    evidence: ResidualReport
    tol: Tolerances

    @property
    def dim(self) -> int:
        return self.chi.shape[0]

    @cached_property
    def ran_chi(self) -> Subspace:
        """The numerical column space of chi at the partition's tol, taken once."""
        return column_space(self.chi, self.tol)

    @cached_property
    def ran_chibar(self) -> Subspace:
        """The numerical column space of chibar at the partition's tol, taken once."""
        return column_space(self.chibar, self.tol)


def validate_partition(chi, chibar, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Check the partition invariants and return the validated pair.

    Invariants: chi and chibar commute, chi^2 + chibar^2 = 1, and neither
    operator is zero.  The partition keeps tol.
    """
    chi = as_matrix(chi)
    chibar = as_matrix(chibar)
    n = chi.shape[0]
    if chi.shape != (n, n) or chibar.shape != (n, n):
        raise DimensionMismatchError(
            f"partition operators must be square and equal-sized, got {chi.shape} and {chibar.shape}"
        )
    for name, M in (("chi", chi), ("chibar", chibar)):
        if not norm_exceeds(M, ZERO_NORM):
            raise PartitionError(f"{name} is (numerically) the zero operator")

    def unity_gate(r, norms):  # norms: ||chi||, ||chibar||
        return r, rel_threshold(tol, 1.0 + norms[0] ** 2 + norms[1] ** 2)

    evidence = ResidualReport()
    factors = (chi, chibar)
    evidence.add("partition/commutation", *rel_gate(chi @ chibar - chibar @ chi, factors, tol))
    evidence.add("partition/unity", *norm_gate(chi @ chi + chibar @ chibar - np.eye(n), factors, unity_gate))

    if not evidence.passed:
        failing = [e for e in evidence if not e.passed]
        raise PartitionError(
            "; ".join(f"{e.label}: residual {e.residual:.3e} > {e.threshold:.3e}" for e in failing)
        )
    return Partition(chi, chibar, evidence, tol)


def make_sharp(P, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Partition from a projection: chi = P, chibar = 1 - P."""
    P = as_matrix(P)
    idem, threshold, _ = rel_gate(P @ P - P, (P, P), tol)
    if idem > threshold:
        raise NotIdempotentError(f"P^2 - P residual {idem:.3e} > {threshold:.3e}")
    n = P.shape[0]
    return validate_partition(P, np.eye(n) - P, tol)


def _smooth_partition(gen: _Decomposition, f: Callable, tol: Tolerances) -> Partition:
    """chi = f(A), chibar = sqrt(1 - f^2)(A) from one decomposition of A."""
    def fbar(w):
        vals = np.asarray(f(w), dtype=float)
        return np.sqrt(np.clip(1.0 - vals * vals, 0.0, None))

    return validate_partition(gen(f), gen(fbar), tol)


def make_smooth_selfadjoint(Hf, f: Callable, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Hermitian partition chi = f(Hf), chibar = sqrt(1 - f^2)(Hf).

    f must take values in [0, 1] on the spectrum of the Hermitian generator.
    """
    return _smooth_partition(_decompose(as_matrix(Hf), tol, hermitian=True), f, tol)


def _angle_partition(gen: _Decomposition, theta: Callable, tol: Tolerances) -> Partition:
    """chi = sin(theta(A)), chibar = cos(theta(A)) from one decomposition of A."""
    return validate_partition(gen(lambda w: np.sin(theta(w))), gen(lambda w: np.cos(theta(w))), tol)


def make_nonselfadjoint(A, theta: Callable, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Non-Hermitian partition chi = sin(theta(A)), chibar = cos(theta(A))."""
    return _angle_partition(_decompose(as_matrix(A), tol), theta, tol)

