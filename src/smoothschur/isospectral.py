"""Isospectrality of the map: inverse formulas, kernel correspondence,
spectral scans, and iterated dimension reduction.

H is (numerically) invertible exactly when the effective operator F is
invertible on an admissible subspace V; the two inverses determine each
other by explicit formulas, and chi / Q are mutually inverse isomorphisms
between ker H and ker F restricted to ran(chi).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
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
    ABS_FLOOR,
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _rank_cutoff,
    as_matrix,
    kernel_basis,
    op_norm,
    rel_threshold,
    restricted_inverse,
    restricted_map,
)
from .pairs import FeshbachData, FeshbachPair, _compressed_map, _shift_invariants, build_pair
from .partition import Partition, make_sharp
from .report import ResidualReport


def admissible_subspace_check(
    pair: FeshbachPair, V: Subspace, tol: Tolerances = DEFAULT_TOL
) -> ResidualReport:
    """Check the subspace conditions: ran(chi) inside V, T maps V into V,
    and chibar T^-1 chibar maps V into V.

    V = full space and V = ran(chi) always satisfy these for a valid pair.
    """
    report = ResidualReport()
    chi = pair.chi
    P = V.projector()
    eye = np.eye(pair.dim)

    containment = op_norm((eye - P) @ chi) / (1.0 + op_norm(chi))
    report.add("subspace/contains_ran_chi", containment, tol.residual_rel)

    _, t_leak = restricted_map(pair.T, V)
    report.add("subspace/T_invariant", t_leak, rel_threshold(tol, op_norm(pair.T)))

    Tb = pair.chibar @ pair.T_inv_bar @ pair.chibar
    _, tb_leak = restricted_map(Tb, V)
    report.add("subspace/T_inv_bar_invariant", tb_leak, rel_threshold(tol, op_norm(Tb)))
    return report


def invert_H_via_F(
    pair: FeshbachPair, data: FeshbachData, V: Subspace, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Reconstruct H^{-1} from the inverse of F on V:

        H^{-1} = Q F^{-1} Q_sharp + chibar H_chibar^{-1} chibar.

    Raises EffectiveOperatorSingularError when F is not invertible on V,
    which certifies that H itself is singular.
    """
    try:
        F_inv_V = restricted_inverse(data.F, V, tol)
    except (SubspaceLeakError, SingularRestrictionError) as exc:
        raise EffectiveOperatorSingularError(
            f"effective operator not invertible on V: {exc}"
        ) from exc
    chibar = pair.chibar
    return data.Q @ F_inv_V @ data.Q_sharp + chibar @ pair.H_chibar_inv @ chibar


def invert_F_via_H(
    pair: FeshbachPair, data: FeshbachData, V: Subspace, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Reconstruct the inverse of F on V from H^{-1}:

        F^{-1} = chi H^{-1} chi + chibar T^{-1} chibar.

    Raises OperatorSingularError when H is numerically singular.
    """
    H = pair.H
    s = np.linalg.svd(H, compute_uv=False)
    cutoff = _rank_cutoff(s, H.shape, tol)
    if s[-1] <= cutoff:
        raise OperatorSingularError(
            f"H numerically singular: smallest sv {s[-1]:.3e} <= cutoff {cutoff:.3e}"
        )
    H_inv = np.linalg.inv(H)
    chi, chibar = pair.chi, pair.chibar
    return chi @ H_inv @ chi + chibar @ pair.T_inv_bar @ chibar


@dataclass(frozen=True)
class KernelCorrespondence:
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

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


#: Acceptance for the kernel correspondence residuals.
_KERNEL_THRESHOLD = 1e-8


def _max_column_norm(X: np.ndarray) -> float:
    """Largest Euclidean norm of a column of X; 0 when X has no columns."""
    return float(np.linalg.norm(X, axis=0).max(initial=0.0))


def kernel_correspondence(
    pair: FeshbachPair, data: FeshbachData, tol: Tolerances = DEFAULT_TOL
) -> KernelCorrespondence:
    """Verify that chi maps ker H onto ker F (within ran chi) and Q maps it
    back, each residual within _KERNEL_THRESHOLD.

    ker F is computed inside ran(chi): vectors v = C c with F C c = 0, C the
    orthonormal basis of pair.ran_chi.
    """
    chi, Q = pair.chi, data.Q
    ker_H = kernel_basis(pair.H, tol)

    C = pair.ran_chi.basis
    coeffs = kernel_basis(data.F @ C, tol)
    ker_F_basis = C @ coeffs.basis  # orthonormal: C has orthonormal columns
    dim_ker_F = ker_F_basis.shape[1]

    P_F = ker_F_basis @ ker_F_basis.conj().T
    P_H = ker_H.projector()
    ker_H_basis = ker_H.basis
    chi_V = chi @ ker_H_basis
    Q_W = Q @ ker_F_basis

    return KernelCorrespondence(
        dim_ker_H=ker_H.dim,
        dim_ker_F=dim_ker_F,
        chi_maps_residual=_max_column_norm(chi_V - P_F @ chi_V),
        q_maps_residual=_max_column_norm(Q_W - P_H @ Q_W),
        roundtrip_residual=max(
            _max_column_norm(Q @ chi_V - ker_H_basis), _max_column_norm(chi @ Q_W - ker_F_basis)
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
        return {
            "grid": [[z.real, z.imag] for z in self.grid],
            "f_smallest_sv": self.f_smallest_sv,
            "pair_valid": self.pair_valid,
            "flagged_eigenvalues": [[z.real, z.imag] for z in self.flagged_eigenvalues],
            "reference_eigenvalues": [[z.real, z.imag] for z in self.reference_eigenvalues],
        }


def _grid_resolution(grid) -> float:
    """Smallest nonzero distance between consecutive grid points; 1.0 when
    there is none.  hypot rounds as Python's abs of a complex does, which
    np.abs of a complex array does not always."""
    steps = np.diff(np.asarray(grid, dtype=complex))
    gaps = np.hypot(steps.real, steps.imag)
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if gaps.size else 1.0


#: Bytes allowed per stacked array in a spectral scan's batched solves.
_SCAN_CHUNK_BYTES = 256 * 1024

#: Eigenvalue candidates dip below this many grid resolutions, times 1 + ||H||.
_FLAG_SCALE = 10.0

#: Relative slack of the eigenvector certificate: a shifted chibar block
#: skips its SVD only when its lower bound, less this fraction, exceeds every
#: term against it plus this fraction.  It also caps cond(V), so that the
#: computed condition number is itself accurate within the slack.
_CERT_SLACK = 1e-3


class _EigenCertificate(NamedTuple):
    """A lower bound on sigma_min(M - lam G) at every lam, from one
    eigendecomposition M V = V diag(w) + R of a k x k block M, G the Gram
    matrix of the basis of ran(chibar):

        M - lam G = V (diag(w) - lam) V^-1 + R V^-1 - lam (G - 1),

    so sigma_min(M - lam G) >= min_i |w_i - lam| / kappa - e - |lam| g with
    kappa = cond(V), e >= ||R V^-1|| and g >= ||G - 1|| (the Bauer-Fike
    argument; Trefethen & Embree, Spectra and Pseudospectra, 2005).  e and g
    include the rounding of R, of forming M - lam G and of its SVD, so a
    block whose bound clears the rank cutoff is one the SVD passes as well.
    """

    w: np.ndarray
    kappa: float
    e: float
    g: float

    def clears(self, lams: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Whether sigma_min(M - lam G) certainly exceeds each cutoff."""
        gap = np.abs(self.w[None, :] - lams[:, None]).min(axis=1)
        lower = (1.0 - _CERT_SLACK) * gap / self.kappa
        return lower > (1.0 + _CERT_SLACK) * (self.e + np.abs(lams) * self.g + cutoffs)


def _eigen_certificate(M: np.ndarray, G: np.ndarray) -> _EigenCertificate | None:
    """The _EigenCertificate of the block M, or None when eig fails, the
    eigenvectors V are non-finite or singular, or cond(V) exceeds
    _CERT_SLACK / rho for rounding unit rho = _CERT_ROUNDING k eps.

    e = (||R||_F + rho ||M||_F ||V||_F) / sigma_min(V) bounds ||R V^-1||
    without forming V^-1, and g = ||G - 1||_F + rho ||G||_F.
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
    R = M @ V - V * w
    e = (np.linalg.norm(R) + rho * np.linalg.norm(M) * np.linalg.norm(V)) / s[-1]
    g = np.linalg.norm(G - np.eye(k)) + rho * np.linalg.norm(G)
    return _EigenCertificate(w, s[0] / s[-1], e, g)


def _off_diagonal_sq(A: np.ndarray) -> float:
    """Sum of |A_ij|^2 over i != j."""
    off = np.abs(A) ** 2
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


class _ShiftedScan:
    """The shifted pairs (H - lam, T - lam) of one partition, for many lam.

    Shifting H and T together leaves W, ran(chi), ran(chibar), both
    commutation residuals and both leaks off ran(chibar) unchanged; only the
    k x k compressions of T and H_chibar to ran(chibar) move, and F0 by
    -lam C*C.  Everything else is computed here, once, by the
    _shift_invariants that build_pair uses, with the blocks of F compressed
    to ran(chi) from _compressed_map.  That raises BlockInvertibilityError
    when ran(chibar) is numerically empty, which is exactly when ran(chi)
    is, so both ranges here have dimension at least 1.  The exact norms of
    the commutation and leak residuals are taken here once per scan, where
    build_pair decides the same gates from norm brackets; both reach the
    exact verdict.

    Each k x k block M also gets one _EigenCertificate, from eig(M): a lower
    bound on sigma_min(M - lam B*B) that costs O(k) per shift.  Where it
    clears the rank cutoff the SVD would pass the block too, so the rank test
    skips the SVD there; near an eigenvalue of M, for non-finite blocks, and
    at every shift when eig fails or its eigenvectors are singular or too
    ill-conditioned, the SVD decides as before.
    """

    def __init__(self, H, T, partition: Partition, tol: Tolerances):
        fixed = _shift_invariants(H, T, partition, tol)
        B = fixed.ran_chibar.basis
        # (operator A, its squared Frobenius norm off the diagonal, which a
        # shift leaves alone, [(residual norm, factor norm)]): each residual
        # must stay within rel_threshold(factor, ||A - lam||), as in build_pair
        commutation = [
            (op_norm(r), op_norm(c)) for r, c in zip(fixed.commutation, (partition.chi, partition.chibar))
        ]
        self.gates = [
            (T, _off_diagonal_sq(T), [*commutation, (op_norm(fixed.T_leak), 1.0)]),
            (fixed.H_chibar, _off_diagonal_sq(fixed.H_chibar), [(op_norm(fixed.K_leak), 1.0)]),
        ]
        self.blocks = (fixed.T_block, fixed.K)
        self.gram_B = B.conj().T @ B
        self.certificates = [_eigen_certificate(M, self.gram_B) for M in self.blocks]
        self.F0, self.left, self.right, self.gram_C = _compressed_map(fixed, partition)
        self.tol = tol
        self.n = partition.dim
        k, m = B.shape[1], fixed.ran_chi.dim
        self.chunk = max(1, _SCAN_CHUNK_BYTES // (16 * max(k * k, k * m, m * m, self.n)))

    def points(self, lams: np.ndarray):
        """(smallest sv of F_c, pair valid) at each finite shift in lams."""
        sv = np.full(lams.shape, np.nan)
        idx = np.arange(len(lams))
        for gate in self.gates:
            idx = idx[self._within_thresholds(*gate, lams[idx])]
        for block, certificate in zip(self.blocks, self.certificates):
            shifted = block - lams[idx, None, None] * self.gram_B
            keep = self._nonsingular(shifted, certificate, lams[idx])
            idx, shifted = idx[keep], shifted[keep]
        # shifted is K - lam, the last block, at the points still valid
        shift = lams[idx, None, None]
        right = np.broadcast_to(self.right, (len(idx),) + self.right.shape)
        Fc = self.F0 - shift * self.gram_C - self.left @ np.linalg.solve(shifted, right)
        finite = np.isfinite(Fc).all(axis=(1, 2))
        sv[idx[finite]] = np.linalg.svd(Fc[finite], compute_uv=False)[:, -1]
        return sv, ~np.isnan(sv)

    def _within_thresholds(self, A, off_diag_sq, checks, lams) -> np.ndarray:
        """Whether every residual passes its threshold at ||A - lam||.

        ||A - lam||_F / sqrt(n) <= ||A - lam||_2 <= ||A - lam||_F decides
        most verdicts; the exact norm is computed only for the rest.
        """
        tol = self.tol
        diag = np.abs(np.diagonal(A)[None, :] - lams[:, None]) ** 2
        fro = np.sqrt(off_diag_sq + diag.sum(axis=1))
        lo = fro / np.sqrt(self.n) * (1.0 - _BRACKET_SLACK)
        hi = fro * (1.0 + _BRACKET_SLACK)
        ok = np.ones(lams.shape, dtype=bool)
        open_ = np.zeros(lams.shape, dtype=bool)
        for residual, factor in checks:
            ok &= residual <= np.maximum(tol.residual_rel * (factor * hi), ABS_FLOOR)
            open_ |= residual > np.maximum(tol.residual_rel * (factor * lo), ABS_FLOOR)
        eye = np.eye(self.n)
        for i in np.flatnonzero(ok & open_):
            norm = op_norm(A - lams[i] * eye)
            ok[i] = all(residual <= rel_threshold(tol, factor, norm) for residual, factor in checks)
        return ok

    def _nonsingular(self, blocks: np.ndarray, certificate, lams) -> np.ndarray:
        """Whether each stacked k x k block M - lam B*B passes the rank cutoff
        that _gate_block applies; non-finite blocks fail.

        The cutoff is at most _rank_cutoff of ||M - lam B*B||_F.  A block the
        certificate clears against that passes; the SVD decides the rest.
        """
        shape = blocks.shape[-2:]
        ok = np.isfinite(blocks).all(axis=(1, 2))
        undecided = ok.copy()
        if certificate is not None:
            norms = np.linalg.norm(blocks, axis=(1, 2))
            undecided &= ~certificate.clears(lams, _rank_cutoff(norms[:, None], shape, self.tol))
        s = np.linalg.svd(blocks[undecided], compute_uv=False)
        ok[undecided] = s[:, -1] > _rank_cutoff(s, shape, self.tol)
        return ok


def spectral_scan(H, T, partition: Partition, grid, tol: Tolerances = DEFAULT_TOL) -> ScanResult:
    """Scan shifts lambda: wherever (H - lambda, T - lambda) is a valid pair,
    record the smallest singular value of F(lambda) compressed to ran(chi).

    Shifting H and T together changes only the k x k compressions of T and
    H_chibar to ran(chibar), so everything else is computed once per scan
    and each point costs k x k and k x m work for m = dim ran(chi):

        F_c(lambda) = C*H_chi C - lambda C*C
                      - (C*chi W chibar B) (K - lambda)^-1 (B*chibar W chi C),

    with K = B*H_chibar B.  A point is a gap (pair_valid False, singular
    value NaN) exactly where build_pair rejects the shifted pair: a
    commutation residual or leak above rel_threshold of ||T - lambda|| or
    ||H_chibar - lambda||, or a compression of T - lambda or H_chibar -
    lambda whose smallest singular value is at or below its rank cutoff.
    Each threshold is first decided from the Frobenius bracket
    ||A||_F / sqrt(n) <= ||A||_2 <= ||A||_F; the exact spectral norm is
    computed only when a residual falls inside it.
    Each rank test is first decided from one eigendecomposition of the block
    per scan (M = K or B*TB, V its eigenvectors, w its eigenvalues):

        sigma_min(M - lambda B*B) >= min_i |w_i - lambda| / cond(V) - e - |lambda| g,

    e bounding ||M - V diag(w) V^-1|| and g ||B*B - 1||, both with their
    rounding.  A block whose bound exceeds rank_rel k ||M - lambda B*B||_F,
    an upper bound on its cutoff, with relative slack _CERT_SLACK, is one
    the SVD passes, so only the blocks the bound leaves open (near an
    eigenvalue of M, or all of them when V is singular or too
    ill-conditioned) reach the SVD, and every verdict is the SVD's.
    The grid runs in chunks sized from n, k and m so that each stacked
    array stays within about 256 KB however long the grid (one point per
    chunk once a single k x k block is larger).

    Eigenvalue candidates are grid points whose singular value dips below
    _FLAG_SCALE * resolution * (1 + ||H||); local minima of the dip are
    flagged.  Raises EmptyGridError when the grid is empty or has a
    non-finite point, and DimensionMismatchError when H or T does not match
    the partition.
    """
    H = as_matrix(H)
    T = as_matrix(T)
    grid = [complex(z) for z in grid]
    if not grid:
        raise EmptyGridError("spectral scan requires a nonempty grid")
    lams = np.array(grid, dtype=complex)
    finite = np.isfinite(lams)
    if not finite.all():
        raise EmptyGridError(f"spectral scan grid has a non-finite point {grid[int(np.argmin(finite))]}")
    scan = _ShiftedScan(H, T, partition, tol)
    svs = np.empty(len(grid))
    valid = np.empty(len(grid), dtype=bool)
    for start in range(0, len(grid), scan.chunk):
        part = slice(start, start + scan.chunk)
        svs[part], valid[part] = scan.points(lams[part])
    svs = svs.tolist()
    valid = valid.tolist()

    resolution = _grid_resolution(lams)
    cut = _FLAG_SCALE * resolution * (1.0 + op_norm(H))
    flagged = []
    for i, lam in enumerate(grid):
        if not valid[i] or not (svs[i] <= cut):
            continue
        left = svs[i - 1] if i > 0 and valid[i - 1] else None
        right = svs[i + 1] if i + 1 < len(grid) and valid[i + 1] else None
        # local minimum of the dip; strict on the left to break plateau ties
        if left is not None and not svs[i] < left:
            continue
        if right is not None and not svs[i] <= right:
            continue
        # the dip must be genuine: well below the larger finite neighbor
        finite = [x for x in (left, right) if x is not None]
        if finite and svs[i] > 0.5 * max(finite):
            continue
        flagged.append(lam)

    reference = [complex(z) for z in np.linalg.eigvals(H)]
    return ScanResult(
        grid=grid,
        f_smallest_sv=svs,
        pair_valid=valid,
        flagged_eigenvalues=flagged,
        reference_eigenvalues=reference,
    )


def iterated_reduction(H, T, partitions, tol: Tolerances = DEFAULT_TOL):
    """Iteratively compress the problem: at each stage, form the pair for the
    stage partition and take F compressed to ran(chi), F0 - L K^{-1} R from
    the pair's blocks, without building the n x n F.

    T is carried along by compression, C*TC.  Each partition must match the
    stage's dimension, and its ran(chi) must be a proper subspace, so
    dimensions strictly decrease.  Returns a list of (effective_operator,
    subspace_dim) per stage, innermost last.
    """
    H_k = as_matrix(H)
    T_k = as_matrix(T)
    stages = []
    for k, partition in enumerate(partitions):
        try:
            pair = build_pair(H_k, T_k, partition, tol)
        except SmoothSchurError as exc:
            raise ReductionStageError(k, exc) from exc
        m = pair.ran_chi.dim
        if m >= pair.dim or m == 0:
            raise ReductionStageError(
                k, SmoothSchurError(f"ran(chi) dim {m} is not a proper subspace")
            )
        F0, L, R, _ = _compressed_map(pair, partition)
        C = pair.ran_chi.basis
        H_k = F0 - L @ np.linalg.solve(pair.K, R)
        T_k = C.conj().T @ pair.T @ C
        stages.append((H_k, m))
    return stages


def halving_projection(n: int) -> np.ndarray:
    """Coordinate projection onto the first ceil(n/2) axes; reduction helper."""
    r = (n + 1) // 2
    P = np.zeros((n, n), dtype=complex)
    P[:r, :r] = np.eye(r)
    return P


def halving_partitions(n: int, stages: int, tol: Tolerances = DEFAULT_TOL):
    """Sharp coordinate partitions that halve the dimension `stages` times."""
    parts = []
    dim = n
    for _ in range(stages):
        if dim < 2:
            break
        parts.append(make_sharp(halving_projection(dim), tol))
        dim = (dim + 1) // 2
    return parts
