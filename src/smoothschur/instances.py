"""Seeded random instance generation for tests, fuzzing, and the CLI.

Every instance is built from a single generator matrix: the partition and the
reference operator T are both functions of it, so commutation holds by
construction.  H = T + W with W a random complex perturbation scaled relative
to ||T||.  Draws that produce an ill-conditioned dressed block are rejected
and redrawn (deterministically, from the same stream).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InstanceSpecError, SmoothSchurError
from .operator_core import DEFAULT_TOL, Tolerances, op_norm
from .pairs import FeshbachPair, build_pair
from .partition import (
    Partition,
    make_commuting_T,
    make_nonselfadjoint,
    make_sharp,
    make_smooth_selfadjoint,
    smoothstep,
)

KINDS = ("sharp", "smooth", "nonselfadjoint")

#: reject draws whose dressed block has relative smallest sv below this
_CONDITION_MARGIN = 1e-3
_MAX_REDRAWS = 64

#: generate_singular plants a kernel only in an H whose smallest sv is at
#: least this, and keeps a draw only if the singular values that survive
#: stay above this fraction of the largest
_PLANT_BASE_MIN_SV = 1e-3
_PLANT_SURVIVOR_REL = 1e-4


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one random instance."""

    dim: int
    partition_kind: str
    perturbation_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise InstanceSpecError(f"dim must be >= 2, got {self.dim}")
        if self.partition_kind not in KINDS:
            raise InstanceSpecError(
                f"partition_kind must be one of {KINDS}, got {self.partition_kind!r}"
            )
        if not (0 <= self.perturbation_scale < np.inf):
            raise InstanceSpecError(
                f"perturbation_scale must be finite and nonnegative, got {self.perturbation_scale}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Instance:
    spec: InstanceSpec
    H: np.ndarray
    T: np.ndarray
    partition: Partition


def derived_seed(base: int, *indices: int) -> int:
    """Stable per-trial seed derived from a base seed and trial indices."""
    state = np.random.SeedSequence([int(base) & (2**63 - 1), *[int(i) for i in indices]])
    return int(state.generate_state(1, dtype=np.uint64)[0])


def _crandn(rng, n: int, m: int) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_crandn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _build_partition_and_T(rng, spec: InstanceSpec, tol: Tolerances):
    n = spec.dim
    kind = spec.partition_kind
    if kind == "sharp":
        rank = n // 2
        U = random_unitary(rng, n)
        P = U[:, :rank] @ U[:, :rank].conj().T
        partition = make_sharp(P, tol)
        t = rng.uniform(1.0, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        T = (U * t) @ U.conj().T
        return partition, T
    if kind == "smooth":
        U = random_unitary(rng, n)
        Hf = (U * rng.uniform(0.1, 0.9, n)) @ U.conj().T
        Hf = (Hf + Hf.conj().T) / 2
        partition = make_smooth_selfadjoint(Hf, smoothstep, tol)
        T = make_commuting_T(Hf, lambda w: w + 1.2 + 0.3j, tol)
        return partition, T
    # nonselfadjoint
    U = random_unitary(rng, n)
    R = _crandn(rng, n, n)
    R /= op_norm(R)
    V = U @ (np.eye(n) + 0.3 * R)
    a = rng.uniform(0.3, 1.2, n) + 0.1j * rng.uniform(-1.0, 1.0, n)
    A = (V * a) @ np.linalg.inv(V)
    partition = make_nonselfadjoint(A, lambda w: w, tol)
    T = make_commuting_T(A, lambda w: w + 1.2, tol)
    return partition, T


def _well_conditioned(pair: FeshbachPair) -> bool:
    """Whether both chibar blocks have smallest sv at least _CONDITION_MARGIN
    times their largest, read from the values build_pair's rank tests took."""
    return all(smin >= _CONDITION_MARGIN * smax for smin, smax in pair.block_svs.values())


def generate(spec: InstanceSpec, tol: Tolerances = DEFAULT_TOL) -> Instance:
    """Realize the instance: deterministic in (spec, tol)."""
    rng = np.random.default_rng(spec.seed)
    partition, T = _build_partition_and_T(rng, spec, tol)
    n = spec.dim
    scale = spec.perturbation_scale * op_norm(T)
    for _ in range(_MAX_REDRAWS):
        if spec.perturbation_scale == 0:
            W = np.zeros((n, n), dtype=complex)
        else:
            W = _crandn(rng, n, n)
            W *= scale / op_norm(W)
        H = T + W
        try:
            if _well_conditioned(build_pair(H, T, partition, tol)):
                return Instance(spec=spec, H=H, T=T, partition=partition)
        except SmoothSchurError:
            pass
        if spec.perturbation_scale == 0:
            break
    raise InstanceSpecError(
        f"could not realize a well-conditioned instance for seed {spec.seed}"
    )


def generate_singular(
    spec: InstanceSpec, kernel_dim: int, tol: Tolerances = DEFAULT_TOL
) -> Instance:
    """Instance whose H has an exactly planted kernel of the given dimension.

    H = H0 (1 - V V^H) with H0 the generic draw and V a random orthonormal
    frame, so ker H = span(V) whenever H0 is invertible.
    """
    if not (1 <= kernel_dim < spec.dim):
        raise InstanceSpecError(f"kernel_dim must be in [1, dim), got {kernel_dim}")
    base = generate(spec, tol)
    n = spec.dim
    rng = np.random.default_rng(derived_seed(spec.seed, 0xC0FFEE, kernel_dim))
    if np.linalg.svd(base.H, compute_uv=False)[-1] < _PLANT_BASE_MIN_SV:
        raise InstanceSpecError("base instance too close to singular for kernel planting")
    for _ in range(_MAX_REDRAWS):
        V, _ = np.linalg.qr(_crandn(rng, n, kernel_dim))
        H = base.H @ (np.eye(n) - V @ V.conj().T)
        try:
            pair = build_pair(H, base.T, base.partition, tol)
        except SmoothSchurError:
            continue
        if not _well_conditioned(pair):
            continue
        s = np.linalg.svd(H, compute_uv=False)
        if s[n - kernel_dim - 1] > _PLANT_SURVIVOR_REL * s[0]:
            return Instance(spec=spec, H=H, T=base.T, partition=base.partition)
    raise InstanceSpecError(
        f"could not plant a clean kernel of dim {kernel_dim} for seed {spec.seed}"
    )


def worked_2x2() -> Instance:
    """The hand-checked 2x2 instance used as a fixture throughout.

    H = [[2,1],[1,3]], T = diag(2,3), chi = diag(1,0): the effective
    operator is diag(5/3, 3) and Q = [[1,0],[-1/3,0]].
    """
    spec = InstanceSpec(dim=2, partition_kind="sharp", perturbation_scale=0.0, seed=0)
    H = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    T = np.diag([2.0, 3.0]).astype(complex)
    partition = make_sharp(np.diag([1.0, 0.0]).astype(complex))
    return Instance(spec=spec, H=H, T=T, partition=partition)
