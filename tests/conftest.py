import math

import numpy as np
import pytest
from hypothesis import settings

from smoothschur import (
    SmoothSchurError,
    Tolerances,
    build_pair,
    make_nonselfadjoint,
    make_sharp,
    make_smooth_selfadjoint,
    matrix_function,
    op_norm,
    operator_core,
    smoothstep,
)
from smoothschur.instances import InstanceSpec, _well_conditioned, generate, random_unitary

KINDS = ("sharp", "smooth", "nonselfadjoint")

#: The two forms of overlap_instance.
OVERLAP_FORMS = ("overlap-hermitian", "overlap-nonselfadjoint")

#: The two Hermitian forms of overlap_instance in which one range is the
#: whole space and the other is proper: ran(chi) in the first, ran(chibar)
#: in the second.
MIXED_FORMS = ("mixed-chi-full", "mixed-chibar-full")

#: The ends of the generator's spectrum in each form of overlap_instance.
_SPECTRUM = {
    "overlap-hermitian": (-0.5, 1.5),
    "overlap-nonselfadjoint": (-0.5, 1.5),
    "mixed-chi-full": (-0.5, 0.9),
    "mixed-chibar-full": (0.1, 1.5),
}

# every property draws the same examples on every run and keeps no example
# database, so no run depends on an earlier one
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def tol():
    return Tolerances()


def crandn(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def restricted_map(A, V):
    """(B* A B, ||(1 - B B*) A B||) for the basis B of V, from the literal
    formulas: a reference for operator_core._compress."""
    B = V.basis
    AB = np.asarray(A, dtype=complex) @ B
    coords = B.conj().T @ AB
    return coords, op_norm(AB - B @ coords)


def smallest_sv(M):
    """Smallest singular value of M; 0 when M is empty."""
    A = np.asarray(M, dtype=complex)
    return float(np.linalg.svd(A, compute_uv=False)[-1]) if A.size else 0.0


@pytest.fixture
def exact_norms(monkeypatch):
    """Run a callable with norm_bounds returning (0, inf), which leaves every
    norm_gate verdict open: every gate then takes the exact spectral norms,
    the path the bracket replaces."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(operator_core, "norm_bounds", lambda M: (0.0, math.inf))
            return fn(*args)

    return run


def overlap_instance(form, n, seed, scale=0.1, kernel_dim=0):
    """(H, T, partition) whose chi and chibar overlap: m = dim ran(chi) and
    k = dim ran(chibar) are both below n, and m + k > n (for n >= 3).  In
    the MIXED_FORMS one of m and k is n instead.

    The generator A has spectrum linspace(-0.5, 1.5, n), which straddles
    [0, 1]; in the MIXED_FORMS it is linspace(-0.5, 0.9, n), so that chibar
    vanishes only where A <= 0, or linspace(0.1, 1.5, n), so that chi
    vanishes only where A >= 1.  The Hermitian forms are chi = smoothstep(A)
    for A Hermitian; the
    non-selfadjoint form is chi = sin theta(A), chibar = cos theta(A) for a
    non-normal A whose eigenvalues also carry imaginary parts up to 0.1,
    with theta = (pi/2) smoothstep(Re w), which is pi/2 where Re w <= 0 and 0
    where Re w >= 1.  T is a function of A, and H = T + W with ||W|| = scale
    ||T||; kernel_dim > 0 plants ker H = span(V) by H (1 - V V*), V a random
    orthonormal frame.  Draws are redrawn, as generate does, until the pair
    builds with well-conditioned chibar blocks.
    """
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, n)
    w = np.linspace(*_SPECTRUM[form], n)
    if form != "overlap-nonselfadjoint":
        A = (U * w) @ U.conj().T
        A = (A + A.conj().T) / 2
        partition = make_smooth_selfadjoint(A, smoothstep)
        T = matrix_function(A, lambda z: z + 1.2 + 0.3j)
    else:
        R = crandn(rng, n)
        V = U @ (np.eye(n) + 0.3 * R / np.linalg.norm(R, 2))
        A = (V * (w + 0.1j * rng.uniform(-1.0, 1.0, n))) @ np.linalg.inv(V)
        partition = make_nonselfadjoint(A, lambda z: 0.5 * np.pi * smoothstep(z.real))
        T = matrix_function(A, lambda z: z + 1.2)
    for _ in range(64):
        W = crandn(rng, n)
        H = T + scale * np.linalg.norm(T, 2) / np.linalg.norm(W, 2) * W
        if kernel_dim:
            K, _ = np.linalg.qr(crandn(rng, n, kernel_dim))
            H = H @ (np.eye(n) - K @ K.conj().T)
        try:
            if _well_conditioned(build_pair(H, T, partition)):
                return H, T, partition
        except SmoothSchurError:
            pass
    raise AssertionError(f"no well-conditioned {form} overlap draw at n={n}, seed={seed}")


def corank_one_instance(n, seed, scale=0.1):
    """(H, T, partition) with dim ran(chibar) = 1: chi the projection onto
    the span of n - 1 columns of a random unitary U, T = U diag(t) U* for
    complex t with Re t in [1, 2], and H = T + W with ||W|| = scale ||T||."""
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, n)
    chi = (U * np.r_[np.ones(n - 1), 0.0]) @ U.conj().T
    T = (U * (rng.uniform(1.0, 2.0, n) + 1j * rng.uniform(-0.5, 0.5, n))) @ U.conj().T
    W = crandn(rng, n)
    return T + scale * op_norm(T) / op_norm(W) * W, T, make_sharp(chi)


def instance(kind, n, seed, scale):
    """(H, T, partition): generate's instance for a kind in KINDS,
    overlap_instance's for a form in OVERLAP_FORMS or MIXED_FORMS, or
    corank_one_instance's for "corank-one"."""
    if kind in _SPECTRUM:
        return overlap_instance(kind, n, seed, scale)
    if kind == "corank-one":
        return corank_one_instance(n, seed, scale)
    inst = generate(InstanceSpec(dim=n, partition_kind=kind, perturbation_scale=scale, seed=seed))
    return inst.H, inst.T, inst.partition
