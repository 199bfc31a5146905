"""Isospectrality of the map: inverse formulas, kernel correspondence,
spectral scans, and iterated dimension reduction.

H is (numerically) invertible exactly when the effective operator F is
invertible on an admissible subspace V; the two inverses determine each
other by explicit formulas, and chi / Q are mutually inverse isomorphisms
between ker H and ker F restricted to ran(chi).

Every rank cutoff and residual gate here is at the Tolerances of the
partition in hand (pair.tol for a pair); none of these functions takes one.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    EffectiveOperatorSingularError,
    EmptyGridError,
    OperatorSingularError,
    ReductionStageError,
    SingularRestrictionError,
    SmoothSchurError,
    SubspaceLeakError,
)
from .operator_core import (
    _BRACKET_SLACK,
    _CERT_ROUNDING,
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _compress,
    _finite,
    _kernel_basis,
    _rank_cutoff,
    as_matrix,
    norm_bounds,
    op_norm,
    rel_threshold,
    restricted_inverse,
)
from .pairs import FeshbachData, FeshbachPair, _compressed_map, _shift_invariants, build_pair
from .partition import Partition, make_sharp
from .report import ResidualReport, _Verdict


def admissible_subspace_check(pair: FeshbachPair, V: Subspace) -> ResidualReport:
    """Check the subspace conditions: ran(chi) inside V, T maps V into V,
    and chibar T^-1 chibar maps V into V.

    V = full space and V = ran(chi) always satisfy these for a valid pair.
    """
    report = ResidualReport()
    chi, tol = pair.chi, pair.tol
    report.add("subspace/contains_ran_chi", op_norm(V.off(chi)) / (1.0 + op_norm(chi)), tol.residual_rel)
    for label, A in (("T_invariant", pair.T), ("T_inv_bar_invariant", pair.chibar_Tinv_chibar)):
        report.add(f"subspace/{label}", op_norm(_compress(A, V)[1]), rel_threshold(tol, op_norm(A)))
    return report


def invert_H_via_F(pair: FeshbachPair, data: FeshbachData, V: Subspace) -> np.ndarray:
    """Reconstruct H^{-1} from the inverse of F on V:

        H^{-1} = Q F^{-1} Q_sharp + chibar H_chibar^{-1} chibar.

    Raises EffectiveOperatorSingularError when F is not invertible on V,
    which certifies that H itself is singular, and NonFiniteMatrixError
    when H^{-1} is not finite (it overflows at the operator's scale).
    """
    try:
        F_inv_V = restricted_inverse(data.F, V, pair.tol)
    except (SubspaceLeakError, SingularRestrictionError) as exc:
        raise EffectiveOperatorSingularError(
            f"effective operator not invertible on V: {exc}"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        H_inv = data.Q @ F_inv_V @ data.Q_sharp + pair.chibar_Hinv_chibar
    return _finite("H^-1", H_inv)


def invert_F_via_H(pair: FeshbachPair, data: FeshbachData, V: Subspace) -> np.ndarray:
    """Reconstruct the inverse of F on V from H^{-1}:

        F^{-1} = chi H^{-1} chi + chibar T^{-1} chibar.

    Raises OperatorSingularError when H is numerically singular, decided
    from the pair's singular values of H, and NonFiniteMatrixError when
    F^{-1} is not finite (it overflows at the operator's scale).
    """
    H = pair.H
    s = pair.H_singular_values
    cutoff = _rank_cutoff(s, H.shape, pair.tol)
    if s[-1] <= cutoff:
        raise OperatorSingularError(
            f"H numerically singular: smallest sv {s[-1]:.3e} <= cutoff {cutoff:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        F_inv = pair.chi @ np.linalg.inv(H) @ pair.chi + pair.chibar_Tinv_chibar
    return _finite("F^-1", F_inv)


@dataclass(frozen=True)
class KernelCorrespondence(_Verdict):
    """Comparison of ker H with ker F intersected with ran(chi)."""

    dim_ker_H: int
    dim_ker_F: int
    chi_maps_residual: float
    q_maps_residual: float
    roundtrip_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.dim_ker_H == self.dim_ker_F and all(
            r <= self.threshold
            for r in (self.chi_maps_residual, self.q_maps_residual, self.roundtrip_residual)
        )


#: Acceptance for the kernel correspondence residuals.
_KERNEL_THRESHOLD = 1e-8


def _max_column_norm(X: np.ndarray) -> float:
    """Largest Euclidean norm of a column of X; 0 when X has no columns."""
    return float(np.linalg.norm(X, axis=0).max(initial=0.0))


def kernel_correspondence(pair: FeshbachPair, data: FeshbachData) -> KernelCorrespondence:
    """Verify that chi maps ker H onto ker F (within ran chi) and Q maps it
    back, each residual within _KERNEL_THRESHOLD.

    ker F is computed inside ran(chi): vectors v = C c with F C c = 0, C the
    orthonormal basis of pair.ran_chi.  ker H is decided from the pair's
    singular values of H, at its rank cutoff.  The rank of F C is cut at
    rank_rel n ||F||, not at a cutoff relative to ||F C||, so an F C that
    is zero up to rounding has a full kernel.
    """
    chi, Q, tol = pair.chi, data.Q, pair.tol
    ker_H = _kernel_basis(pair.H, pair.H_singular_values, tol)

    C = pair.ran_chi
    FC = C.restrict(data.F)
    coeffs = _kernel_basis(FC, np.linalg.svd(FC, compute_uv=False), tol, anchor=data.F)
    ker_F = Subspace(pair.dim, C.lift(coeffs.basis))  # orthonormal: C has orthonormal columns

    chi_V = chi @ ker_H.basis
    Q_W = Q @ ker_F.basis

    return KernelCorrespondence(
        dim_ker_H=ker_H.dim,
        dim_ker_F=coeffs.dim,
        chi_maps_residual=_max_column_norm(ker_F.off(chi_V)),
        q_maps_residual=_max_column_norm(ker_H.off(Q_W)),
        roundtrip_residual=max(
            _max_column_norm(Q @ chi_V - ker_H.basis), _max_column_norm(chi @ Q_W - ker_F.basis)
        ),
        threshold=_KERNEL_THRESHOLD,
    )


@dataclass
class ScanResult:
    """Grid scan of the smallest singular value of F compressed to ran(chi)."""

    grid: list
    f_smallest_sv: list
    pair_valid: list
    flagged_eigenvalues: list
    reference_eigenvalues: list

    def to_dict(self) -> dict:
        """The scan as JSON-ready lists; a gap's singular value, NaN here, is None."""
        return {
            "grid": [[z.real, z.imag] for z in self.grid],
            "f_smallest_sv": [sv if ok else None for sv, ok in zip(self.f_smallest_sv, self.pair_valid)],
            "pair_valid": self.pair_valid,
            "flagged_eigenvalues": [[z.real, z.imag] for z in self.flagged_eigenvalues],
            "reference_eigenvalues": [[z.real, z.imag] for z in self.reference_eigenvalues],
        }


def _grid_resolution(grid) -> float:
    """Smallest nonzero distance between consecutive grid points; 1.0 when
    there is none.  A distance beyond the largest float is inf.  hypot rounds
    as Python's abs of a complex does, which np.abs of a complex array does
    not always."""
    with np.errstate(over="ignore"):
        steps = np.diff(np.asarray(grid, dtype=complex))
        gaps = np.hypot(steps.real, steps.imag)
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if gaps.size else 1.0


def _dip_minima(svs: np.ndarray, cut: float) -> np.ndarray:
    """Indices of the eigenvalue candidates among the singular values svs
    (NaN at a gap): points at or below cut that are a local minimum, strict
    on the left to break plateau ties, and well below the larger of their
    neighbours that are not gaps."""
    dips = np.flatnonzero(svs <= cut)
    padded = np.concatenate(([np.nan], svs, [np.nan]))
    mid, left, right = svs[dips], padded[dips], padded[dips + 2]
    return dips[~(mid >= left) & ~(mid > right) & ~(mid > 0.5 * np.fmax(left, right))]


#: Bytes allowed per stacked array in a spectral scan's batched gates,
#: SVDs and solves.  The budget is per worker: the F_c pass holds about two
#: stacks per worker at once (see spectral_scan).  NumPy 2.4's values-only
#: batched SVD of a stack of p m x m matrices drops the GIL only when
#: p m > 500, and only then do the workers overlap.  At k = m = 64 a chunk
#: holds 8 F_c matrices, and 8 x 64 = 512 drops it; at m = 128 a chunk holds
#: 2 and at m = 256 one, which keep it, so there the F_c pass runs serially.
_SCAN_CHUNK_BYTES = 512 * 1024

#: Eigenvalue candidates dip below this many grid resolutions, times 1 + ||H||.
_FLAG_SCALE = 10.0

#: Relative slack of the eigenvector certificate: a shifted chibar block
#: skips its SVD only when its lower bound, less this fraction, exceeds every
#: term against it plus this fraction.  It also caps cond(V), so that the
#: computed condition number is itself accurate within the slack.
_CERT_SLACK = 1e-3

#: Relative widening of a threshold gate's bound nu on each side, a few ulps:
#: nu and the product in rel_threshold each round at two operations.
_NU_ROUNDING = 4 * np.finfo(float).eps

#: The accuracy a scan keeps: each smallest singular value is within this
#: times 1 + ||F(lam)|| of the per-point path's (build_pair, feshbach_map),
#: away from the eigenvalues of the chibar block K (see _ShiftedScan).
_SCAN_ACCURACY = 1e-12

#: The largest cond(V) at which a scan takes the pole form of (K - lam)^-1
#: (see _ShiftedScan): _SCAN_ACCURACY over the rounding _CERT_ROUNDING eps of
#: one term of a k x k product or solve, about 560.
_POLE_MAX_COND = _SCAN_ACCURACY / (_CERT_ROUNDING * np.finfo(float).eps)


def _frobenius(mags: np.ndarray, extra=0.0) -> np.ndarray:
    """sqrt(extra^2 + sum of mags^2 along axis 0), each column scaled by its
    largest entry first (as in norm_bounds) so no square over- or underflows."""
    top = np.maximum(mags.max(axis=0, initial=0.0), extra)
    scale = np.where(top > 0.0, top, 1.0)
    mags = mags / scale
    return top * np.sqrt((mags * mags).sum(axis=0) + (extra / scale) ** 2)


def _chunk_points(point_bytes: int) -> int:
    """The entries of a chunk: _SCAN_CHUNK_BYTES // point_bytes, at least one,
    for a stack of point_bytes per entry."""
    return max(1, _SCAN_CHUNK_BYTES // point_bytes)


def _chunks(idx: np.ndarray, point_bytes: int):
    """idx in consecutive pieces of _chunk_points(point_bytes) entries (the
    last may hold fewer)."""
    step = _chunk_points(point_bytes)
    return (idx[start : start + step] for start in range(0, len(idx), step))


def _shift(M: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """M - lam for each shift in lams, stacked along a new first axis."""
    stack = np.repeat(M[None], len(lams), axis=0)
    diag = np.arange(M.shape[0])
    stack[:, diag, diag] -= lams[:, None]
    return stack


class _EigenCertificate(NamedTuple):
    """A lower bound on sigma_min(M - lam) at every lam, from one
    eigendecomposition M V = V diag(w) + R of a k x k block M:

        M - lam = V (diag(w) - lam) V^-1 + R V^-1,

    so sigma_min(M - lam) >= min_i |w_i - lam| / kappa - e - |lam| rho sqrt(k)
    with kappa = cond(V), e >= ||R V^-1|| and rho = _CERT_ROUNDING k eps (the
    Bauer-Fike argument; Trefethen & Embree, Spectra and Pseudospectra, 2005).
    e includes the rounding of R and of the SVD, and |lam| rho sqrt(k) bounds
    the rounding of lam in the k diagonal entries of the computed M - lam, so
    a block whose bound clears the rank cutoff is one the SVD passes as well.
    V is kept for the scan's pole form of (K - lam)^-1, and M_norm = ||M||_F
    for the rank cutoff.
    """

    w: np.ndarray
    V: np.ndarray
    kappa: float
    e: float
    M_norm: float

    def clears(self, lams: np.ndarray, tol: Tolerances) -> np.ndarray:
        """Whether sigma_min(M - lam) certainly exceeds the rank cutoff that
        _gate_block applies at each shift.  That cutoff is at most
        _rank_cutoff of ||M||_F + |lam| >= ||M - lam||_2; the slack absorbs
        the rounding of the sum.  A sum that overflows clears nothing."""
        k = len(self.w)
        gap = np.abs(self.w[:, None] - lams).min(axis=0)
        lower = (1.0 - _CERT_SLACK) * gap / self.kappa
        with np.errstate(over="ignore"):
            size = self.M_norm + np.abs(lams)
            rounding = np.abs(lams) * (_CERT_ROUNDING * k * np.finfo(float).eps * np.sqrt(k))
            return lower > (1.0 + _CERT_SLACK) * (self.e + rounding + _rank_cutoff(size[:, None], (k, k), tol))


def _eigen_certificate(M: np.ndarray) -> _EigenCertificate | None:
    """The _EigenCertificate of the block M, or None when eig fails, the
    eigenvectors V are non-finite or singular, or cond(V) exceeds
    _CERT_SLACK / rho for rounding unit rho = _CERT_ROUNDING k eps.

    e = (||R||_F + rho ||M||_F ||V||_F) / sigma_min(V) bounds ||R V^-1||
    without forming V^-1.
    """
    k = M.shape[0]
    rho = _CERT_ROUNDING * k * np.finfo(float).eps
    try:
        w, V = np.linalg.eig(M)
        if not np.isfinite(V).all():
            return None
        s = np.linalg.svd(V, compute_uv=False)
    except np.linalg.LinAlgError:
        return None
    if rho * s[0] > _CERT_SLACK * s[-1]:
        return None
    R_norm, M_norm, V_norm = (_frobenius(np.abs(X).ravel()) for X in (M @ V - V * w, M, V))
    return _EigenCertificate(w, V, s[0] / s[-1], (R_norm + rho * M_norm * V_norm) / s[-1], float(M_norm))


class _Gate(NamedTuple):
    """A scan's threshold gate on A: each (residual, factor) check passes
    where residual <= rel_threshold(tol, factor, ||A - lam||), as in
    build_pair.  It keeps only residuals above the floor rel_threshold(tol,
    0), which the floor no longer passes: each then passes exactly where
    ||A - lam|| is at least residual / (residual_rel factor), and nu is the
    largest such bound.  off is the Frobenius norm of A off its diagonal,
    which a shift leaves alone."""

    A: np.ndarray
    off: float
    checks: list
    nu: float

    @classmethod
    def of(cls, A: np.ndarray, checks, tol: Tolerances) -> "_Gate | None":
        """The gate over (residual, factor) matrices (a factor None is 1), or None
        if it keeps no check; a residual under the floor takes no exact norm."""
        floor = rel_threshold(tol, 0.0)
        kept = []
        for residual, factor in checks:
            if not norm_bounds(residual)[1] <= floor and (norm := op_norm(residual)) > floor:
                kept.append((norm, 1.0 if factor is None else op_norm(factor)))
        if not kept:
            return None
        # a bound whose divisor underflows to 0 fails at every shift
        bounds = [r / d if (d := tol.residual_rel * f) else np.inf for r, f in kept]
        mags = np.abs(A)
        np.fill_diagonal(mags, 0.0)
        return cls(A, float(_frobenius(mags.ravel())), kept, max(bounds))

    def norms(self, lams: np.ndarray) -> np.ndarray:
        """||A - lam||_F at each shift, at O(n) work per shift."""
        return _frobenius(np.abs(np.diagonal(self.A)[:, None] - lams), self.off)


class _ShiftedScan:
    """The shifted pairs (H - lam, T - lam) of one partition, for many lam.

    A common shift leaves W, both commutation residuals and both leaks off
    ran(chibar) unchanged.  In the orthonormal coordinates of ran(chibar)
    and ran(chi) it moves only diagonals, each by -lam: those of T,
    H_chibar, their k x k blocks T_block and K, and F0.  (B*B and C*C are
    the identity up to rounding, and the per-point path rounds B*(T - lam)B
    at rho ||T - lam|| anyway.)  Everything else is computed once, by the
    _shift_invariants that build_pair uses (which raises
    BlockInvertibilityError when ran(chibar), and so ran(chi), is
    numerically empty) and by _compressed_map.  The exact norms of the
    commutation and leak residuals are taken once per scan, only for a
    residual above ABS_FLOOR; each threshold gate, on T and on H_chibar, is
    one bound nu on ||A - lam|| (_Gate), dropped when it keeps no residual.
    Each chibar block is its matrix M and its _EigenCertificate, and M - lam
    is stacked only for the points the certificate leaves open to the SVD,
    and for the batched solve.  Where H_chibar is bitwise T, as when chibar
    W chibar vanishes, _shift_invariants gives K as T_block itself: the scan
    then keeps one block, K last in self.blocks either way, and drops
    H_chibar's gate, whose operator and check are T's.

    A scan takes two passes, each chunked (_chunks) by its own footprint
    per shift under _SCAN_CHUNK_BYTES: valid, O(n) numbers per shift, its
    open k x k blocks in sub-chunks of the same budget, then smallest_svs at
    the valid shifts alone, self.point_bytes per shift, about two stacks at
    once per thread.  A batched SVD, solve or product returns each matrix
    as it would in any other stack, so neither chunks nor threads change an
    answer.

    A scan over a grid of `points` shifts runs on self.workers workers, one
    per usable CPU up to the number of F_c chunks the whole grid could
    need, decided once _shift_invariants has passed; a grid that fits in
    one chunk starts no thread.  The blocks' certificates run side by side
    (_run_tasks), each kept beside its block in self.blocks.

    The coupling term of F_c(lam) = F0 - lam - L (K - lam)^-1 R is a
    rational function of lam with its poles at the eigenvalues w of K.  From
    the certificate's K = V diag(w) V^-1 it is taken in pole form,

        L (K - lam)^-1 R = (L V) diag(1 / (w - lam)) (V^-1 R),

    with L V and V^-1 R formed once per scan, so a point costs one k x m
    scaling and one product and no solve.  The batched solve of
    (K - lam) X = R is kept where K has no certificate (eig failed, or V is
    singular or too ill-conditioned for it), or where the pole form could
    miss the scan's accuracy:

    - Both forms return the coupling of a block near K - lam.  The solve is
      backward stable: its block is within rho ||K - lam|| of it, for
      rho = _CERT_ROUNDING k eps.  The pole form's block V diag(w) V^-1 - lam
      is within the certificate's e of it, at most about rho cond(V) ||K||,
      and its products through V and V^-1 add about rho cond(V) ||K - lam||.
    - To first order a block moved by d moves the coupling, and so
      sigma_min(F_c), by at most ||L|| ||R|| ||X||^2 ||d||, X = (K - lam)^-1.
      The two forms' m x m SVDs of F_c round at _CERT_ROUNDING m eps ||F_c||
      each.  So at every valid point

          |sigma_pole - sigma_solve| <= 4 rho cond(V) (||K|| + |lam|) ||L|| ||R|| ||X||^2
                                        + 2 _CERT_ROUNDING m eps ||F_c||:

      the pole form's error bound is the solve's, with rho multiplied by
      about cond(V).
    - The scan keeps each sigma within _SCAN_ACCURACY (1 + ||F||) of the
      per-point path, a contract that does not grow with k.  It leaves the
      factor _SCAN_ACCURACY / (_CERT_ROUNDING eps), about 560, over the
      rounding of one of the k terms that each entry of a k x k product or
      solve sums, and the solve and the pole form sum them alike.  The pole
      form is taken where cond(V) <= _POLE_MAX_COND, that factor.
    - The contract excludes the neighbourhood of an eigenvalue of K.  The
      per-point path's B*(H_chibar - lam)B and the scan's K - lam are two
      roundings of one block, so by the first-order term their sigma differ
      by up to rho (||K|| + |lam|) ||L|| ||R|| ||X||^2 on either form, and
      ||X|| grows like cond(V) / min_i |w_i - lam|: 3.7e-11 (1 + ||F||) at
      cond(V) 1e5, 1e4 rank cutoffs from an eigenvalue.

    F_c is formed with floating-point errors ignored: one that overflows is
    a gap, and warns of nothing.
    """

    def __init__(self, H, T, partition: Partition, points: int = 1):
        fixed = _shift_invariants(H, T, partition)
        self.tol = partition.tol
        # a K that is T_block (H_chibar is T) is one block, with T's gate
        shared = fixed.K is fixed.T_block
        gates = (
            _Gate.of(T, [*zip(fixed.commutation, (partition.chi, partition.chibar)), (fixed.T_leak, None)], self.tol),
            None if shared else _Gate.of(fixed.H_chibar, [(fixed.K_leak, None)], self.tol),
        )
        self.gates = [gate for gate in gates if gate is not None]
        self.n = partition.dim
        k, m = partition.ran_chibar.dim, partition.ran_chi.dim
        self.point_bytes = 16 * max(k * k, k * m, m * m)
        self.workers = min(_usable_cpus(), -(-points // _chunk_points(self.point_bytes)))
        blocks = (fixed.T_block,) if shared else (fixed.T_block, fixed.K)
        self.blocks = list(zip(blocks, _run_tasks([partial(_eigen_certificate, M) for M in blocks], self.workers)))
        self.diagonal = np.concatenate([np.diagonal(T), np.diagonal(fixed.H_chibar)])
        self.F0, self.left, self.right = _compressed_map(T, fixed.W, partition)
        self.poles = self._pole_form(self.blocks[-1][1])  # K's certificate

    def _pole_form(self, certificate: _EigenCertificate | None):
        """(w, L V, V^-1 R) from the certificate of K, or None where the
        batched solve is kept: no certificate, or cond(V) > _POLE_MAX_COND."""
        if certificate is None or certificate.kappa > _POLE_MAX_COND:
            return None
        with np.errstate(all="ignore"):
            return certificate.w, self.left @ certificate.V, np.linalg.solve(certificate.V, self.right)

    def valid(self, lams: np.ndarray) -> np.ndarray:
        """Indices of the shifts in lams where the shifted pair is valid.

        Each gate reads O(n) numbers per shift, so the shifts run in chunks
        of _SCAN_CHUNK_BYTES // (16 n), every remaining gate once per chunk.
        """
        found = []
        for idx in _chunks(np.arange(len(lams)), 16 * self.n):
            for gate in self.gates:
                idx = idx[self._within_thresholds(gate, lams[idx])]
            for M, certificate in self.blocks:
                idx = idx[self._nonsingular(M, certificate, lams[idx])]
            found.append(idx)
        found = np.concatenate(found)
        # build_pair rejects an overflowing T - lam or H_chibar - lam; only a far lam overflows
        with np.errstate(over="ignore"):
            far = np.flatnonzero(np.abs(lams) >= np.finfo(float).max / 2 - np.abs(self.diagonal).max())
            far = far[~np.isfinite(self.diagonal[:, None] - lams[far]).all(axis=0)]
        return found[~np.isin(found, far)] if far.size else found

    def smallest_svs(self, at: np.ndarray) -> np.ndarray:
        """The smallest singular value of F_c at each valid shift in at, NaN
        where F_c is not finite; at is one chunk at self.point_bytes.

        F_c is assembled in the coupling's own stack, entry by entry as
        (F0 - lam) - coupling, so no further stack is allocated."""
        sv = np.full(at.shape, np.nan)
        with np.errstate(all="ignore"):
            if self.poles is None:
                right = np.broadcast_to(self.right, (len(at),) + self.right.shape)
                Fc = self.left @ np.linalg.solve(_shift(self.blocks[-1][0], at), right)  # K - lam
            else:
                w, left, right = self.poles
                Fc = left @ (right / (w[:, None] - at[:, None, None]))
            diag = np.arange(Fc.shape[-1])
            coupling_diag = Fc[:, diag, diag]
            np.subtract(self.F0, Fc, out=Fc)
            Fc[:, diag, diag] = (np.diagonal(self.F0) - at[:, None]) - coupling_diag
            finite = np.isfinite(Fc).all(axis=(1, 2))
            if not finite.all():
                Fc = Fc[finite]
            if Fc.shape[-1] == 1:  # m = 1: sigma_min(F_c) is |F_c|
                sv[finite] = np.abs(Fc[:, 0, 0])
            elif finite.any():
                sv[finite] = np.linalg.svd(Fc, compute_uv=False)[:, -1]
        return sv

    def _within_thresholds(self, gate: _Gate, lams) -> np.ndarray:
        """Whether every check of the gate passes at ||A - lam||: a pass where
        ||A - lam||_F / sqrt(n) clears gate.nu, a fail where ||A - lam||_F
        falls below it (each widened), and the exact norm and rel_threshold
        of each check, as in build_pair, in the band between."""
        fro = gate.norms(lams)
        ok = fro / np.sqrt(self.n) * (1.0 - _BRACKET_SLACK) >= gate.nu * (1.0 + _NU_ROUNDING)
        open_ = ~ok & (fro * (1.0 + _BRACKET_SLACK) >= gate.nu * (1.0 - _NU_ROUNDING))
        for i in np.flatnonzero(open_):
            norm = op_norm(_shift(gate.A, lams[i : i + 1])[0])
            ok[i] = all(residual <= rel_threshold(self.tol, factor, norm) for residual, factor in gate.checks)
        return ok

    def _nonsingular(self, M, certificate: _EigenCertificate | None, lams) -> np.ndarray:
        """Whether each shifted k x k block M - lam passes the rank cutoff
        that _gate_block applies; a block that is not finite fails.  A block
        the certificate clears passes; M - lam is stacked and the SVD decides
        only for the rest.
        """
        ok = np.zeros(lams.shape, dtype=bool)
        if certificate is not None:
            ok = certificate.clears(lams, self.tol)
        for idx in _chunks(np.flatnonzero(~ok), 16 * M.size):
            stack = _shift(M, lams[idx])
            finite = np.isfinite(stack).all(axis=(1, 2))
            if finite.any():
                s = np.linalg.svd(stack[finite], compute_uv=False)
                ok[idx[finite]] = s[:, -1] > _rank_cutoff(s, M.shape, self.tol)
        return ok


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(tasks: list, workers: int) -> list:
    """Call each task in tasks and return their results in order.

    Workers take tasks from one shared iterator under a lock, so a
    worker that finishes early takes the next task instead of waiting on a
    share dealt in advance.  The calling thread is the first worker.  Each
    time it claims a task it doubles the workers, starting helper threads
    up to min(workers, len(tasks)) - 1 of them but never more than there
    are tasks still unclaimed, and then runs its task.  So no helper starts
    once every task is taken, the calling thread holds a task before each
    start (a start can wait long for the threads already running), and
    with one task or one worker it runs every task in turn.  A worker stops
    pulling once any worker has failed, in a task or in starting a helper.
    Every helper started is joined before this returns or raises, and then
    the first exception caught is re-raised.
    """
    results = [None] * len(tasks)
    pending = enumerate(tasks)
    lock = threading.Lock()
    errors = []
    helpers = []
    spare = min(workers, len(tasks)) - 1

    def pull(spawn=None):
        # the calling thread passes pull itself as spawn, so pull holds no
        # reference to itself: no cycle keeps the tasks and results alive
        while not errors:
            with lock:
                claimed = next(pending, None)
            if claimed is None:
                return
            i, task = claimed
            try:
                if spawn and len(helpers) < spare:
                    for _ in range(min(len(helpers) + 1, spare - len(helpers), len(tasks) - i - 1)):
                        helper = threading.Thread(target=spawn)
                        helper.start()
                        helpers.append(helper)
                results[i] = task()
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

    try:
        pull(spawn=pull)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return results


def _grid_points(grid) -> np.ndarray:
    """The grid as a 1-d complex array, each entry at complex(entry).

    A grid of numbers (bool, integer, real or complex) converts in one call.
    Any other grid, a list with strings or other objects that complex()
    takes or an iterator, converts one entry at a time, and EmptyGridError
    names the first entry complex() rejects.  A grid that converts to more
    than one dimension (an entry that is itself a sequence) is rejected too.
    """
    try:
        points = np.asarray(grid)
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is not None and points.dtype.kind in "biufc":
        if points.ndim == 1:
            return points.astype(complex, copy=False)
        if points.ndim > 1 and points.shape[0]:
            raise EmptyGridError(
                f"spectral scan grid entry {next(iter(grid))!r} is not a number: the grid has shape {points.shape}"
            )
    try:
        entries = iter(grid)
    except TypeError as exc:
        raise EmptyGridError(f"spectral scan grid {grid!r} is not a sequence of numbers") from exc
    lams = []
    for z in entries:
        try:
            lams.append(complex(z))
        except (TypeError, ValueError, OverflowError) as exc:
            raise EmptyGridError(f"spectral scan grid entry {z!r} is not a number: {exc}") from exc
    return np.array(lams, dtype=complex)


def spectral_scan(H, T, partition: Partition, grid) -> ScanResult:
    """Scan shifts lambda: wherever (H - lambda, T - lambda) is a valid pair,
    record the smallest singular value of F(lambda) compressed to ran(chi).

    Shifting H and T together moves only diagonals, so everything else is
    computed once per scan (_ShiftedScan) and each point costs k x k, k x m
    and m x m work, for m = dim ran(chi) and k = dim ran(chibar):

        F_c(lambda) = C*H_chi C - lambda
                      - (C*chi W chibar B) (K - lambda)^-1 (B*chibar W chi C),

    with K = B*H_chibar B, B and C the orthonormal bases of ran(chibar) and
    ran(chi).  A point is a gap (pair_valid False, singular value NaN)
    exactly where build_pair rejects the shifted pair, or where F_c
    overflows.  The exact norms of the commutation and leak residuals are
    taken only for a residual above ABS_FLOOR.  Each threshold gate is one
    bound on ||T - lambda|| or ||H_chibar - lambda||, met first against its
    Frobenius bracket, and each rank test against an eigenvector certificate
    of the block; the exact norm or the SVD decides only where those leave
    the verdict open, so every verdict is the exact one.

    The workers (_ShiftedScan.workers) take two task lists in turn, each
    pulled by whichever worker is free (_run_tasks).  The first holds the
    eigenvector certificates of the chibar blocks, one where K is T_block
    (_ShiftedScan).  Then the validity pass runs over the whole grid, and
    the second list holds the reference data, ||H|| and the eigenvalues of
    H, which do not depend on validity, then the chunks of about 512 KB
    (_SCAN_CHUNK_BYTES) in which F_c and its SVD are taken at the valid
    points alone.  Each chunk returns its singular values and the calling
    thread writes them at its points, so the result is bit-identical to one
    worker's.  A grid that fits in one chunk starts no thread.

    Eigenvalue candidates are grid points whose singular value dips below
    _FLAG_SCALE * resolution * (1 + ||H||); local minima of the dip are
    flagged (_dip_minima).  The grid is converted once (_grid_points),
    each entry at complex(entry).  Raises
    EmptyGridError when the grid is empty, has a non-finite point or an
    entry that is not a number, or is not one-dimensional, and
    DimensionMismatchError when H or T does not match the partition.
    """
    H = as_matrix(H)
    T = as_matrix(T)
    lams = _grid_points(grid)
    grid = lams.tolist()
    if not grid:
        raise EmptyGridError("spectral scan requires a nonempty grid")
    finite = np.isfinite(lams)
    if not finite.all():
        raise EmptyGridError(f"spectral scan grid has a non-finite point {grid[int(np.argmin(finite))]}")
    scan = _ShiftedScan(H, T, partition, len(lams))
    chunks = list(_chunks(scan.valid(lams), scan.point_bytes))
    H_norm, eigenvalues, *chunk_svs = _run_tasks(
        [partial(op_norm, H), partial(np.linalg.eigvals, H), *(partial(scan.smallest_svs, lams[at]) for at in chunks)],
        scan.workers,
    )
    svs = np.full(len(grid), np.nan)
    for at, sv in zip(chunks, chunk_svs):
        svs[at] = sv
    valid = ~np.isnan(svs)

    cut = _FLAG_SCALE * _grid_resolution(lams) * (1.0 + H_norm)
    return ScanResult(
        grid=grid,
        f_smallest_sv=svs.tolist(),
        pair_valid=valid.tolist(),
        flagged_eigenvalues=lams[_dip_minima(svs, cut)].tolist(),
        reference_eigenvalues=[complex(z) for z in eigenvalues],
    )


def iterated_reduction(H, T, partitions):
    """Iteratively compress the problem: at each stage, form the pair for the
    stage partition, at its tolerance, and take F compressed to ran(chi),
    F0 - L K^{-1} R from the pair's blocks, without building the n x n F.

    T is carried along by compression, C*TC.  Each partition must match the
    stage's dimension, and its ran(chi) must be a proper subspace, so
    dimensions strictly decrease.  Returns a list of (effective_operator,
    subspace_dim) per stage, innermost last.  Raises ReductionStageError for
    a stage whose pair is invalid or whose effective operator is not finite
    (a NonFiniteMatrixError cause).
    """
    H_k = as_matrix(H)
    T_k = as_matrix(T)
    stages = []
    for k, partition in enumerate(partitions):
        try:
            pair = build_pair(H_k, T_k, partition)
            C = partition.ran_chi
            m = C.dim
            if m >= pair.dim or m == 0:
                raise SmoothSchurError(f"ran(chi) dim {m} is not a proper subspace")
            with np.errstate(over="ignore", invalid="ignore"):
                F0, L, R = _compressed_map(pair.T, pair.W, partition)
                H_k = _finite("effective operator", F0 - L @ np.linalg.solve(pair.K, R))
                T_k = C.restrict(C.coords(pair.T))
        except SmoothSchurError as exc:
            raise ReductionStageError(k, exc) from exc
        stages.append((H_k, m))
    return stages


def halving_partitions(n: int, stages: int, tol: Tolerances = DEFAULT_TOL):
    """Sharp coordinate partitions that halve the dimension `stages` times,
    each chi the projection onto the first ceil(dim/2) axes."""
    parts = []
    dim = n
    for _ in range(stages):
        if dim < 2:
            break
        half = (dim + 1) // 2
        parts.append(make_sharp(np.diag(np.arange(dim) < half).astype(complex), tol))
        dim = half
    return parts
