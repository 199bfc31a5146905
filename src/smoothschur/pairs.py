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

with H_chi = T + chi*W*chi.  ran(chi) and ran(chibar) are the partition's.
The pair keeps what validation produces: W, H_chibar, and T and H_chibar on
ran(chibar) as k x k blocks in the coordinates of its orthonormal basis B,
T_block and K.  No gate reads H_chi, so the pair keeps none; feshbach_map
and _compressed_map form it.  Every product with a basis goes through its
Subspace, so a range that is the whole space, whose basis is the identity,
costs none: K is H_chibar itself.  What only some callers read is built on
first read and kept, with one solve against K and one against T_block per
pair: chibar H_chibar^{-1} chibar, which the map, the identities and the
inverse formulas read; T^{-1} zero-extended off ran(chibar), and from it
chibar T^{-1} chibar; the singular values of H; and ||chibar W T^-1 chibar||.
_compressed_map gives F compressed to ran(chi), for the scan and reduction.

The commutation gates of (a) and the leak gates of (b) are decided by
operator_core.rel_gate from norm brackets: the evidence records an upper
bound of each residual, noted "upper bound", against a threshold from lower
bounds of the factor norms, and the exact norms only where the bracket
leaves the verdict open.  The spectral scan takes the exact norms of the
same residuals, from _shift_invariants, once per scan and only for a
residual above ABS_FLOOR.  The pair keeps the smallest and largest singular
values of each block from its rank test.  Every gate and rank cutoff is at
partition.tol, which pair.tol forwards.
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
    Subspace,
    Tolerances,
    _compress,
    _finite,
    _gate_block,
    _rank_cutoff,
    as_matrix,
    norm_exceeds,
    op_norm,
    rel_gate,
)
from .partition import Partition
from .report import ResidualReport

#: neumann_inverse stops once a series term's norm is at or below this.
NEUMANN_TOL = 1e-12

#: neumann_inverse stops after this many terms, and flags the sum truncated.
NEUMANN_MAX_TERMS = 200


class _ShiftInvariants(NamedTuple):
    """The part of a pair that a common shift of H and T leaves unchanged,
    but for T_block and K, which move by -lam.  The commutation and leak
    residuals are kept as matrices, each gate taking their norms as it needs."""

    W: np.ndarray
    H_chibar: np.ndarray
    commutation: tuple  # c T - T c for c = chi, chibar
    T_block: np.ndarray  # B*TB
    T_leak: np.ndarray  # (1 - BB*) T B
    K: np.ndarray  # B*H_chibar B
    K_leak: np.ndarray  # (1 - BB*) H_chibar B


def _shift_invariants(H, T, partition: Partition) -> _ShiftInvariants:
    """W, H_chibar, the commutation residuals, and the compressions
    of T and H_chibar to the partition's ran(chibar) with their leak
    residuals.

    Raises BlockInvertibilityError when ran(chibar) is numerically empty.
    The rank cutoff of a nonzero operator M is rank_rel ||M|| n, so that
    happens exactly when rank_rel n >= 1, and then ran(chi) is empty too.
    """
    n = partition.dim
    if H.shape != (n, n) or T.shape != (n, n):
        raise DimensionMismatchError(f"H {H.shape} / T {T.shape} incompatible with partition dim {n}")
    chi, chibar, tol = partition.chi, partition.chibar, partition.tol
    W = H - T
    H_chibar = T + chibar @ W @ chibar
    ran_chibar = partition.ran_chibar
    if not ran_chibar.dim:
        s = np.linalg.svd(chibar, compute_uv=False)
        raise BlockInvertibilityError(
            f"ran(chibar) is numerically empty: ||chibar|| {s[0]:.3e} <= rank cutoff "
            f"{_rank_cutoff(s, chibar.shape, tol):.3e}"
        )
    return _ShiftInvariants(
        W, H_chibar,
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
    H_chibar: np.ndarray
    T_block: np.ndarray  # B*TB, B the orthonormal basis of ran_chibar
    K: np.ndarray  # B*H_chibar B
    block_svs: dict  # "T" / "H_chibar" -> (smallest sv, largest sv) of its block
    evidence: ResidualReport

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def tol(self) -> Tolerances:
        return self.partition.tol

    @property
    def chi(self) -> np.ndarray:
        return self.partition.chi

    @property
    def chibar(self) -> np.ndarray:
        return self.partition.chibar

    @property
    def ran_chi(self) -> Subspace:
        return self.partition.ran_chi

    @property
    def ran_chibar(self) -> Subspace:
        return self.partition.ran_chibar

    @cached_property
    def T_inv_bar(self) -> np.ndarray:
        """T^{-1} on ran(chibar), extended by zero off it."""
        return self.ran_chibar.zero_extended_inverse(self.T_block)

    @cached_property
    def chibar_Hinv_chibar(self) -> np.ndarray:
        """chibar H_chibar^{-1} chibar = (chibar B) K^{-1} (B* chibar), B the basis of ran(chibar)."""
        B, chibar = self.ran_chibar, self.chibar
        return B.restrict(chibar) @ np.linalg.solve(self.K, B.coords(chibar))

    @cached_property
    def chibar_Tinv_chibar(self) -> np.ndarray:
        """chibar T^{-1} chibar, from T_inv_bar: T_block is solved against once per pair."""
        return self.chibar @ (self.T_inv_bar @ self.chibar)

    @cached_property
    def H_singular_values(self) -> np.ndarray:
        """The singular values of H, largest first."""
        return np.linalg.svd(self.H, compute_uv=False)

    @cached_property
    def coupling_norm(self) -> float:
        """||chibar W T^-1 chibar||, with T^-1 taken on ran(chibar)."""
        return op_norm(self.chibar @ self.W @ self.T_inv_bar @ self.chibar)


@dataclass(frozen=True)
class FeshbachData:
    """The map F and its auxiliary operators Q and Q_sharp."""

    F: np.ndarray
    Q: np.ndarray
    Q_sharp: np.ndarray


def build_pair(H, T, partition: Partition) -> FeshbachPair:
    """Assemble and validate a pair (H, T) for the partition, at partition.tol.

    Each commutation and leak gate is decided by rel_gate, so it records the
    upper bound of its residual against a threshold from the lower bounds of
    the factor norms, noted "upper bound", unless the bracket leaves the
    verdict open and the exact norms decide.
    """
    H = as_matrix(H)
    T = as_matrix(T)
    tol = partition.tol
    fixed = _shift_invariants(H, T, partition)

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
        H=H, T=T, partition=partition, W=fixed.W, H_chibar=fixed.H_chibar,
        T_block=fixed.T_block, K=fixed.K, block_svs=block_svs, evidence=evidence,
    )


def _compressed_map(T, W, partition: Partition):
    """The blocks (F0, L, R) of the map of (T + W, T) compressed to ran(chi),
    C the basis of the partition's ran(chi) and B that of its ran(chibar):

      C*FC = F0 - L K^{-1} R,   F0 = C*H_chi C,   L = C*chi W chibar B,
                                R = B*chibar W chi C,

    with H_chi = T + chi W chi formed here, as feshbach_map forms it.  A
    common shift lam of H and T moves F0 and K by -lam: C and B are
    orthonormal, so C*C and B*B are the identity up to rounding.
    """
    chi, chibar = partition.chi, partition.chibar
    B, C = partition.ran_chibar, partition.ran_chi
    H_chi = T + chi @ W @ chi
    return C.restrict(C.coords(H_chi)), B.restrict(C.coords(chi) @ W @ chibar), C.restrict(B.coords(chibar) @ W @ chi)


def feshbach_map(pair: FeshbachPair) -> FeshbachData:
    """Compute F, Q, and Q_sharp for a validated pair from its G = chibar H_chibar^{-1} chibar:

      F       = T + chi W chi - chi W G W chi
      Q       = chi - G W chi
      Q_sharp = chi - chi W G

    Raises NonFiniteMatrixError naming the first of F, Q, Q_sharp that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G, chi, W = pair.chibar_Hinv_chibar, pair.chi, pair.W
        chi_W, cross = chi @ W, G @ (W @ chi)
        F, Q, Q_sharp = pair.T + chi_W @ chi - chi_W @ cross, chi - cross, chi - chi_W @ G
    return FeshbachData(F=_finite("F", F), Q=_finite("Q", Q), Q_sharp=_finite("Q_sharp", Q_sharp))


def sufficient_conditions(pair: FeshbachPair) -> ResidualReport:
    """Report the checkable sufficient conditions for pair validity.

    The two coupling norms ||T^{-1} chibar W chibar|| and
    ||chibar W T^{-1} chibar|| (pair.coupling_norm, which neumann_inverse
    reads too) are checked against 1 (the commutation residuals are in
    pair.evidence).  These conditions are sufficient, not necessary: a pair
    that passed direct validation may still fail them.
    """
    chibar, W = pair.chibar, pair.W
    report = ResidualReport()
    Tib = pair.T_inv_bar
    left = op_norm(Tib @ chibar @ W @ chibar)
    right = pair.coupling_norm
    report.add("sufficient/contraction_left", left, 1.0, note="||T^-1 chibar W chibar|| < 1")
    report.add("sufficient/contraction_right", right, 1.0, note="||chibar W T^-1 chibar|| < 1")
    return report


@dataclass(frozen=True)
class NeumannResult:
    approx_inv: np.ndarray
    terms_used: int
    residual: float
    truncated: bool


def neumann_inverse(pair: FeshbachPair) -> NeumannResult:
    """Invert H_chibar on ran(chibar) by the geometric series.

    Uses the factorization H_chibar = (1 + chibar W T^{-1} chibar) T on
    ran(chibar):  the approximate inverse is
    T^{-1} * sum_n (-chibar W T^{-1} chibar)^n, truncated once the term norm
    falls to NEUMANN_TOL or after NEUMANN_MAX_TERMS terms (then flagged truncated).
    Each term's norm is decided against NEUMANN_TOL by norm_exceeds.
    Raises ContractionError when the coupling norm pair.coupling_norm is >= 1.
    """
    q = pair.coupling_norm
    if q >= 1.0:
        raise ContractionError(q)
    chibar, W = pair.chibar, pair.W
    Tib = pair.T_inv_bar
    M = chibar @ W @ Tib @ chibar

    total = term = np.eye(pair.dim, dtype=complex)
    terms_used, truncated = 1, False
    while norm_exceeds(term := -M @ term, NEUMANN_TOL):
        if terms_used >= NEUMANN_MAX_TERMS:
            truncated = True
            break
        total = total + term
        terms_used += 1
    approx_inv, B = Tib @ total, pair.ran_chibar
    residual = op_norm(B.restrict(approx_inv @ pair.H_chibar) - B.basis)
    return NeumannResult(approx_inv=approx_inv, terms_used=terms_used, residual=residual, truncated=truncated)
