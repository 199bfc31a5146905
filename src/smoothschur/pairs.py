"""Feshbach pairs and the smooth Feshbach map.

A pair (H, T) for a partition (chi, chibar) must satisfy:
  (a) T commutes with chi and chibar,
  (b) T and H_chibar = T + chibar*W*chibar are invertible on ran(chibar),
  (c) chibar * H_chibar^{-1} * chibar * W * chi is bounded (automatic in
      finite dimension, so no evidence is recorded for it).

Given a valid pair, the map and its auxiliary operators are

  F       = H_chi - chi W chibar H_chibar^{-1} chibar W chi
  Q       = chi - chibar H_chibar^{-1} chibar W chi
  Q_sharp = chi - chi W chibar H_chibar^{-1} chibar

with H_chi = T + chi*W*chi.  The pair keeps T and H_chibar on ran(chibar) as
k x k blocks in the coordinates of its orthonormal basis B, and the map
solves against the block K = B*H_chibar B; the zero-extended n x n inverses
are built only when read.  The pair also keeps ran(chi), and _compressed_map
gives the blocks of F compressed to it, which the spectral scan and the
iterated reduction read.

The commutation gates of (a) and the leak gates of (b) are decided by
operator_core.rel_gate from norm brackets: the evidence records an upper
bound of each residual, noted "upper bound", against a threshold from lower
bounds of the factor norms, and the exact norms only where the bracket
leaves the verdict open.  The spectral scan takes the exact norms of the
same residuals, from _shift_invariants, once per scan.  The pair keeps the
smallest and largest singular values of each block from its rank test.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BlockInvertibilityError,
    CommutationError,
    ContractionError,
    DimensionMismatchError,
    SingularRestrictionError,
    SubspaceLeakError,
)
from .operator_core import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _compress,
    _gate_block,
    as_matrix,
    column_space,
    norm_exceeds,
    op_norm,
    rel_gate,
)
from .partition import Partition
from .report import ResidualReport

#: neumann_inverse stops once a series term's norm is at or below this.
NEUMANN_TOL = 1e-12


class _ShiftInvariants(NamedTuple):
    """The part of a pair that a common shift of H and T leaves unchanged,
    but for T_block and K, which move by -lam B*B.  The commutation and leak
    residuals are kept as matrices, each gate taking their norms as it needs."""

    W: np.ndarray
    H_chi: np.ndarray
    H_chibar: np.ndarray
    ran_chibar: Subspace
    ran_chi: Subspace
    commutation: tuple  # c T - T c for c = chi, chibar
    T_block: np.ndarray  # B*TB
    T_leak: np.ndarray  # (1 - BB*) T B
    K: np.ndarray  # B*H_chibar B
    K_leak: np.ndarray  # (1 - BB*) H_chibar B


def _shift_invariants(H, T, partition: Partition, tol: Tolerances) -> _ShiftInvariants:
    """W, H_chi, H_chibar, ran(chibar), ran(chi), the commutation residuals,
    and the compressions of T and H_chibar to ran(chibar) with their leak
    residuals.

    Raises BlockInvertibilityError when ran(chibar) is numerically empty.
    The rank cutoff of a nonzero operator M is rank_rel ||M|| n, so that
    happens exactly when rank_rel n >= 1, and then ran(chi) is empty too.
    """
    n = partition.dim
    if H.shape != (n, n) or T.shape != (n, n):
        raise DimensionMismatchError(f"H {H.shape} / T {T.shape} incompatible with partition dim {n}")
    chi, chibar = partition.chi, partition.chibar
    W = H - T
    H_chibar = T + chibar @ W @ chibar
    ran_chibar = column_space(chibar, tol)
    if not ran_chibar.dim:
        nchibar = op_norm(chibar)
        cutoff = tol.rank_rel * nchibar * n
        raise BlockInvertibilityError(
            f"ran(chibar) is numerically empty: ||chibar|| {nchibar:.3e} <= rank cutoff {cutoff:.3e}"
        )
    return _ShiftInvariants(
        W, T + chi @ W @ chi, H_chibar, ran_chibar, column_space(chi, tol),
        tuple(c @ T - T @ c for c in (chi, chibar)),
        *_compress(T, ran_chibar), *_compress(H_chibar, ran_chibar),
    )


@dataclass(frozen=True)
class FeshbachPair:
    """A validated pair (H, T) for a partition, with derived operators."""

    H: np.ndarray
    T: np.ndarray
    partition: Partition
    W: np.ndarray
    H_chi: np.ndarray
    H_chibar: np.ndarray
    ran_chibar: Subspace
    ran_chi: Subspace
    T_block: np.ndarray  # B*TB, B the orthonormal basis of ran_chibar
    K: np.ndarray  # B*H_chibar B
    block_svs: dict  # "T" / "H_chibar" -> (smallest sv, largest sv) of its block
    evidence: ResidualReport

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def chi(self) -> np.ndarray:
        return self.partition.chi

    @property
    def chibar(self) -> np.ndarray:
        return self.partition.chibar

    @cached_property
    def T_inv_bar(self) -> np.ndarray:
        """T^{-1} on ran(chibar), extended by zero off it."""
        return self.ran_chibar.zero_extended_inverse(self.T_block)

    @cached_property
    def H_chibar_inv(self) -> np.ndarray:
        """H_chibar^{-1} on ran(chibar), extended by zero off it."""
        return self.ran_chibar.zero_extended_inverse(self.K)


@dataclass(frozen=True)
class FeshbachData:
    """The map F and its auxiliary operators Q and Q_sharp."""

    F: np.ndarray
    Q: np.ndarray
    Q_sharp: np.ndarray


def build_pair(H, T, partition: Partition, tol: Tolerances = DEFAULT_TOL) -> FeshbachPair:
    """Assemble and validate a pair (H, T) for the given partition.

    Each commutation and leak gate is decided by rel_gate, so it records the
    upper bound of its residual against a threshold from the lower bounds of
    the factor norms, noted "upper bound", unless the bracket leaves the
    verdict open and the exact norms decide.
    """
    H = as_matrix(H)
    T = as_matrix(T)
    fixed = _shift_invariants(H, T, partition, tol)

    evidence = ResidualReport()
    evidence.extend(partition.evidence)

    # condition (a): T commutes with chi and chibar
    for label, c, residual in zip(("chi", "chibar"), (partition.chi, partition.chibar), fixed.commutation):
        entry = evidence.add(f"pair/commutation_{label}_T", *rel_gate(residual, (c, T), tol))
        if not entry.passed:
            raise CommutationError(
                f"{label} does not commute with T: residual {entry.residual:.3e} > {entry.threshold:.3e}"
            )

    # condition (b): T and H_chibar invertible on ran(chibar); each block's
    # leak is recorded against its threshold, and its rank cutoff against its
    # smallest singular value
    block_svs = {}
    for label, A, block, residual in (
        ("T", T, fixed.T_block, fixed.T_leak),
        ("H_chibar", fixed.H_chibar, fixed.K, fixed.K_leak),
    ):
        leak, threshold, note = rel_gate(residual, (A,), tol)
        try:
            smin, smax, cutoff = _gate_block(block, leak, threshold, tol)
        except (SubspaceLeakError, SingularRestrictionError) as exc:
            raise BlockInvertibilityError(f"{label} not invertible on ran(chibar): {exc}") from exc
        evidence.add(f"pair/{label}_block_leak", leak, threshold, note)
        evidence.add(f"pair/{label}_block_rank_cutoff", cutoff, smin, note="below smallest sv")
        block_svs[label] = (smin, smax)

    return FeshbachPair(
        H=H, T=T, partition=partition, W=fixed.W, H_chi=fixed.H_chi, H_chibar=fixed.H_chibar,
        ran_chibar=fixed.ran_chibar, ran_chi=fixed.ran_chi, T_block=fixed.T_block, K=fixed.K,
        block_svs=block_svs, evidence=evidence,
    )


def _compressed_map(p: FeshbachPair | _ShiftInvariants, partition: Partition):
    """The blocks (F0, L, R, C*C) of F compressed to ran(chi), for a pair or
    its _ShiftInvariants p, C the basis of ran(chi) and B that of ran(chibar):

      C*FC = F0 - L K^{-1} R,   F0 = C*H_chi C,   L = C*chi W chibar B,
                                R = B*chibar W chi C.

    A common shift lam of H and T moves F0 by -lam C*C and K by -lam B*B.
    """
    chi, chibar, W = partition.chi, partition.chibar, p.W
    B, C = p.ran_chibar.basis, p.ran_chi.basis
    Ch = C.conj().T
    return Ch @ p.H_chi @ C, Ch @ chi @ W @ chibar @ B, B.conj().T @ chibar @ W @ chi @ C, Ch @ C


def feshbach_map(pair: FeshbachPair) -> FeshbachData:
    """Compute F, Q, and Q_sharp for a validated pair, solving against the
    block K = B*H_chibar B on ran(chibar):

      F       = H_chi - chi W chibar B K^{-1} B* chibar W chi
      Q       = chi - chibar B K^{-1} B* chibar W chi
      Q_sharp = chi - chi W chibar B K^{-1} B* chibar
    """
    chi, chibar, W, K = pair.chi, pair.chibar, pair.W, pair.K
    B = pair.ran_chibar.basis
    Bh_chibar = B.conj().T @ chibar
    left = chi @ W @ chibar @ B
    cross = np.linalg.solve(K, Bh_chibar @ W @ chi)
    F = pair.H_chi - left @ cross
    Q = chi - chibar @ B @ cross
    Q_sharp = chi - left @ np.linalg.solve(K, Bh_chibar)
    return FeshbachData(F=F, Q=Q, Q_sharp=Q_sharp)


def sufficient_conditions(pair: FeshbachPair) -> ResidualReport:
    """Report the checkable sufficient conditions for pair validity.

    The two coupling norms ||T^{-1} chibar W chibar|| and
    ||chibar W T^{-1} chibar|| are checked against 1 (the commutation
    residuals are in pair.evidence).  These conditions are sufficient, not
    necessary: a pair that passed direct validation may still fail them.
    """
    chibar, W = pair.chibar, pair.W
    report = ResidualReport()
    Tib = pair.T_inv_bar
    left = op_norm(Tib @ chibar @ W @ chibar)
    right = op_norm(chibar @ W @ Tib @ chibar)
    report.add("sufficient/contraction_left", left, 1.0, note="||T^-1 chibar W chibar|| < 1")
    report.add("sufficient/contraction_right", right, 1.0, note="||chibar W T^-1 chibar|| < 1")
    return report


@dataclass(frozen=True)
class NeumannResult:
    approx_inv: np.ndarray
    terms_used: int
    residual: float
    truncated: bool


def neumann_inverse(pair: FeshbachPair, max_terms: int = 200) -> NeumannResult:
    """Invert H_chibar on ran(chibar) by the geometric series.

    Uses the factorization H_chibar = (1 + chibar W T^{-1} chibar) T on
    ran(chibar):  the approximate inverse is
    T^{-1} * sum_n (-chibar W T^{-1} chibar)^n, truncated once the term norm
    falls to NEUMANN_TOL or after max_terms terms (then flagged truncated).
    Each term's norm is decided against NEUMANN_TOL by norm_exceeds.
    Raises ContractionError when the coupling norm is >= 1.
    """
    chibar, W = pair.chibar, pair.W
    Tib = pair.T_inv_bar
    M = chibar @ W @ Tib @ chibar
    q = op_norm(M)
    if q >= 1.0:
        raise ContractionError(q)

    total = term = np.eye(pair.dim, dtype=complex)
    terms_used, truncated = 1, False
    while norm_exceeds(term := -M @ term, NEUMANN_TOL):
        if terms_used >= max_terms:
            truncated = True
            break
        total = total + term
        terms_used += 1
    approx_inv = Tib @ total
    B = pair.ran_chibar.basis
    residual = op_norm(approx_inv @ pair.H_chibar @ B - B)
    return NeumannResult(approx_inv=approx_inv, terms_used=terms_used, residual=residual, truncated=truncated)
