"""Reference computations the benchmark checks the package against.

Nothing here imports the package: the effective operator is computed
straight from the paper's formula

    F(lam) = (T - lam) + chi W chi - chi W chibar B K(lam)^-1 B* chibar W chi,
    K(lam) = B* (T - lam + chibar W chibar) B,

with W = H - T and B an orthonormal basis of ran(chibar), so a change to
the package cannot pass by agreeing with itself.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Relative singular-value cutoff; the package's default rank policy
#: (rank_rel * largest sv * dimension) is mirrored so validity verdicts agree.
RANK_REL = 1e-10
#: A scan value differs from the reference by at most this times 1 + ||F||.
SV_REL = 1e-9
#: A block whose smallest sv is within this factor of the cutoff may be
#: declared singular or not; both verdicts are accepted there.
MARGIN = 10.0


def basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical column space of M."""
    u, s, _ = np.linalg.svd(M)
    cutoff = RANK_REL * s[0] * max(M.shape) if s.size else 0.0
    return u[:, : int(np.sum(s > cutoff))]


def _margin(M: np.ndarray) -> float:
    """Smallest singular value of a square block over its rank cutoff."""
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = RANK_REL * s[0] * M.shape[0]
    return float(s[-1] / cutoff) if cutoff > 0 else 0.0


class FeshbachOracle:
    """F(lam) of the shifted pair (H - lam, T - lam) for a fixed partition."""

    def __init__(self, H, T, chi, chibar):
        H, T, chi, chibar = (np.asarray(M, dtype=complex) for M in (H, T, chi, chibar))
        W = H - T
        self.n = H.shape[0]
        self.C = basis(chi)
        B = basis(chibar)
        Bh = B.conj().T
        self.H_chi = T + chi @ W @ chi
        self.left = chi @ W @ chibar @ B
        self.right = Bh @ chibar @ W @ chi
        self.K0 = Bh @ (T + chibar @ W @ chibar) @ B
        self.T0 = Bh @ T @ B

    def F(self, lam: complex = 0.0) -> np.ndarray:
        k = self.K0.shape[0]
        K = self.K0 - lam * np.eye(k)
        return self.H_chi - lam * np.eye(self.n) - self.left @ np.linalg.solve(K, self.right)

    def scan_point(self, lam: complex) -> tuple[float, float, float]:
        """(sigma_min of F compressed to ran chi, ||F||, block margin).

        The margin is the smaller of the chibar-block margins of H_chibar - lam
        and T - lam; at or below MARGIN the point may validly be a gap, and
        sigma and ||F|| are NaN.
        """
        k = self.K0.shape[0]
        margin = min(_margin(self.K0 - lam * np.eye(k)), _margin(self.T0 - lam * np.eye(k)))
        if margin <= MARGIN:
            return float("nan"), float("nan"), margin
        F = self.F(lam)
        Fc = self.C.conj().T @ F @ self.C
        sigma = float(np.linalg.svd(Fc, compute_uv=False)[-1])
        return sigma, float(np.linalg.norm(F, 2)), margin


def scan_point_ok(sv: float, valid: bool, ref: tuple[float, float, float]) -> bool:
    """Whether a scan's (sigma_min, valid) at one point agrees with the reference."""
    sigma, fnorm, margin = ref
    if margin <= MARGIN:
        return True
    return bool(valid) and abs(sv - sigma) <= SV_REL * (1.0 + fnorm)


def flags_ok(flagged, eigenvalues, distance: float) -> bool:
    """Criterion 6: every eigenvalue has a flagged grid point within `distance`."""
    return bool(flagged) and all(min(abs(z - e) for z in flagged) <= distance for e in eigenvalues)


def sample_indices(seed: int, size: int, count: int) -> np.ndarray:
    """A seeded sample of `count` distinct indices below `size`, sorted."""
    rng = np.random.default_rng([seed, size, count])
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def read_matrix_json(path: Path) -> np.ndarray:
    """Read a matrix file ({"rows", "cols", "re", "im"}) without the package."""
    obj = json.loads(Path(path).read_text())
    shape = (obj["rows"], obj["cols"])
    return np.reshape(obj["re"], shape) + 1j * np.reshape(obj["im"], shape)


def rel_residual(R: np.ndarray, *factors: np.ndarray) -> float:
    """||R|| / (1 + product of the factors' spectral norms).  The Frobenius
    norm of R bounds its spectral norm from above, so this is never looser
    than the spectral form, and it is cheaper."""
    scale = 1.0
    for f in factors:
        scale *= np.linalg.norm(f, 2)
    return float(np.linalg.norm(R) / (1.0 + scale))
