import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothschur import (
    SingularRestrictionError,
    Subspace,
    ToleranceError,
    Tolerances,
    column_space,
    kernel_basis,
    norm_bounds,
    numerical_rank,
    op_norm,
    restricted_inverse,
    restricted_map,
)
from smoothschur.errors import NonFiniteMatrixError, SubspaceLeakError
from smoothschur.operator_core import BOUND_NOTE, _fix_gauge, norm_gate

from conftest import crandn


class TestOpNorm:
    def test_zero_matrix(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0)

    def test_permutation(self):
        # oracle: singular values via the eigenvalues of M^H M = I
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        oracle = np.sqrt(np.linalg.eigvalsh(M.conj().T @ M)).max()
        assert op_norm(M) == pytest.approx(oracle) == pytest.approx(1.0)

    def test_rejects_nan(self):
        from smoothschur.operator_core import as_matrix

        with pytest.raises(NonFiniteMatrixError):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestKernelBasis:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(np.eye(5)).dim == 0

    def test_rank_one_symmetric(self):
        # oracle: eigen-decomposition of [[1,1],[1,1]] has null vector (1,-1)/sqrt(2)
        M = np.ones((2, 2))
        w, v = np.linalg.eigh(M)
        oracle = v[:, np.argmin(np.abs(w))]
        K = kernel_basis(M)
        assert K.dim == 1
        overlap = abs(np.vdot(oracle, K.basis[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(K.basis[:, 0]), np.abs(expected))

    def test_zero_matrix_full_kernel(self):
        K = kernel_basis(np.zeros((2, 2)))
        assert K.dim == 2

    def test_gauge_first_entry_real_positive(self):
        rng = np.random.default_rng(3)
        M = crandn(rng, 6, 6)
        M[:, 5] = M[:, 0]  # force rank deficiency of M^T
        K = kernel_basis(M.T)
        for j in range(K.dim):
            col = K.basis[:, j]
            lead = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_full_svd_only_when_the_values_leave_the_kernel_open(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(5)
        M = crandn(rng, 6, 4)
        assert kernel_basis(M).basis.shape == (4, 0) and calls == [False]
        calls.clear()
        M[:, 3] = M[:, 0]
        assert kernel_basis(M).dim == 1 and calls == [False, True]
        calls.clear()
        assert kernel_basis(M.T).dim == 3 and calls == [True]  # rows < cols: never empty


def _kernel_reference(M, tol=Tolerances()):
    """The basis kernel_basis gives, from the full SVD alone: the path its
    value-only certificate skips when the kernel is certainly empty."""
    A = np.asarray(M, dtype=complex)
    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > tol.rank_rel * s[0] * max(A.shape)))
    return _fix_gauge(vh[rank:].conj().T)


def _orthonormal(rng, n, k, real):
    G = rng.standard_normal((n, k)) if real else crandn(rng, n, k)
    return np.linalg.qr(G)[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    seed=st.integers(0, 10**6),
    ratio=st.one_of(
        st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        st.sampled_from([1 - 1e-6, 1 + 1e-9, 1 + 1e-6, 1 + 3e-5, 1 + 1e-4]),
    ),
    planted=st.integers(0, 2),
    exponent=st.integers(-100, 100),
    real=st.booleans(),
)
def test_kernel_basis_matches_full_svd(rows, cols, seed, ratio, planted, exponent, real):
    """Singular values 1, then uniform in [0.1, 1], then one at ratio times
    the rank cutoff, then `planted` exact zeros: the certificate decides the
    clear cases, the full SVD the rest, and the kernel is the full SVD's."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = rng.uniform(0.1, 1.0, k)
    s[0] = 1.0
    zeros = min(planted, k - 1)
    if k - zeros > 1:
        s[k - zeros - 1] = ratio * 1e-10 * max(rows, cols)
    s[k - zeros:] = 0.0
    U, V = _orthonormal(rng, rows, k, real), _orthonormal(rng, cols, k, real)
    M = (U * s) @ V.conj().T * 10.0**exponent
    K = kernel_basis(M)
    want = _kernel_reference(M)
    assert K.dim == want.shape[1]
    assert np.array_equal(K.basis, want)


class TestColumnSpace:
    def test_coordinate_projection(self):
        C = column_space(np.diag([1.0, 0.0]))
        assert C.dim == 1
        assert np.allclose(C.basis[:, 0], [1.0, 0.0])

    def test_single_column(self):
        C = column_space(np.array([[1.0], [1.0]]))
        assert C.dim == 1
        assert np.allclose(C.basis[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))

    def test_identity_full(self):
        assert column_space(np.eye(3)).dim == 3


class TestRestrictedMap:
    def test_identity_any_subspace(self):
        rng = np.random.default_rng(0)
        B, _ = np.linalg.qr(crandn(rng, 5, 2))
        V = Subspace(5, B)
        coords, leak = restricted_map(np.eye(5), V)
        assert np.allclose(coords, np.eye(2))
        assert leak == pytest.approx(0.0, abs=1e-14)

    def test_invariant_axis(self):
        V = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
        coords, leak = restricted_map(np.diag([2.0, 3.0]), V)
        assert coords == pytest.approx(np.array([[3.0]]))
        assert leak == pytest.approx(0.0, abs=1e-15)

    def test_nilpotent_leak(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        e2 = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
        coords1, leak1 = restricted_map(A, e1)
        assert coords1 == pytest.approx(np.zeros((1, 1))) and leak1 == pytest.approx(0.0)
        coords2, leak2 = restricted_map(A, e2)
        assert coords2 == pytest.approx(np.zeros((1, 1))) and leak2 == pytest.approx(1.0)


class TestRestrictedInverse:
    def test_scalar_inversion_on_axis(self):
        V = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
        G = restricted_inverse(np.diag([2.0, 3.0]), V)
        assert np.allclose(G, np.diag([0.0, 1.0 / 3.0]))

    def test_full_space_identity(self):
        G = restricted_inverse(np.eye(3), Subspace.full(3))
        assert np.allclose(G, np.eye(3))

    def test_singular_on_subspace(self):
        V = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(SingularRestrictionError):
            restricted_inverse(np.diag([0.0, 3.0]), V)

    def test_vanishes_off_subspace(self):
        rng = np.random.default_rng(1)
        B, _ = np.linalg.qr(crandn(rng, 6, 3))
        V = Subspace(6, B)
        A = B @ crandn(rng, 3, 3) @ B.conj().T + np.eye(6)
        G = restricted_inverse(A, V)
        comp = np.eye(6) - V.projector()
        assert op_norm(G @ comp) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_kernel_annihilation_property(seed, n):
    rng = np.random.default_rng(seed)
    M = crandn(rng, n, n)
    M[:, -1] = M[:, 0]  # guarantee a nontrivial kernel
    K = kernel_basis(M)
    assert K.dim >= 1
    assert op_norm(M @ K.basis) <= 1e-9 * op_norm(M)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 12), drop=st.integers(0, 3))
def test_rank_nullity(seed, n, drop):
    rng = np.random.default_rng(seed)
    M = crandn(rng, n, n)
    for j in range(min(drop, n - 1)):
        M[:, j + 1] = M[:, 0] * (j + 2)
    assert column_space(M).dim + kernel_basis(M).dim == n


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_op_norm_submultiplicative(seed, n):
    rng = np.random.default_rng(seed)
    A, B = crandn(rng, n, n), crandn(rng, n, n)
    assert op_norm(A @ B) <= op_norm(A) * op_norm(B) * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10), k=st.integers(1, 3))
def test_restricted_inverse_contract(seed, n, k):
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    B, _ = np.linalg.qr(crandn(rng, n, k))
    V = Subspace(n, B)
    # A maps V into V by construction and is invertible there
    inner = crandn(rng, k, k) + 3 * np.eye(k)
    A = B @ inner @ B.conj().T + (np.eye(n) - B @ B.conj().T)
    G = restricted_inverse(A, V)
    assert op_norm(G @ A @ B - B) <= 1e-9 * op_norm(A) * max(op_norm(G), 1.0)
    assert op_norm(A @ G @ B - B) <= 1e-9 * op_norm(A) * max(op_norm(G), 1.0)


def test_numerical_rank_cutoff_policy():
    tol = Tolerances(rank_rel=1e-6)
    M = np.diag([1.0, 1e-3, 1e-9])
    assert numerical_rank(M, tol) == 2


@pytest.mark.parametrize(
    "field, value", [("rank_rel", 0.0), ("residual_rel", -1.0), ("rank_rel", math.nan), ("residual_rel", math.inf)]
)
def test_tolerances_reject_non_positive_and_non_finite(field, value):
    with pytest.raises(ToleranceError, match="positive and finite") as info:
        Tolerances(**{field: value})
    assert isinstance(info.value, ValueError)


def _matrix(kind, rows, cols, seed, exponent):
    """A rows x cols test matrix of the given kind, scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    if kind == "real":
        M = rng.standard_normal((rows, cols))
    elif kind == "complex":
        M = crandn(rng, rows, cols)
    else:  # rank one: ||M||_F = ||M||_2, so only the slack keeps hi above the SVD's value
        M = np.outer(crandn(rng, rows, 1), crandn(rng, 1, cols))
    return M * 10.0**exponent


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["real", "complex", "rank1"]),
    rows=st.integers(0, 9),
    cols=st.integers(0, 9),
    seed=st.integers(0, 10**6),
    exponent=st.integers(-150, 150),
)
def test_norm_bounds_bracket_op_norm(kind, rows, cols, seed, exponent):
    M = _matrix(kind, rows, cols, seed, exponent)
    lo, hi = norm_bounds(M)
    assert lo <= op_norm(M) <= hi
    if M.size:
        assert hi <= math.sqrt(min(M.shape)) * lo * (1 + 1e-9)


def test_norm_bounds_edges():
    assert norm_bounds(np.zeros((0, 3))) == (0.0, 0.0)
    assert norm_bounds(np.zeros((2, 3))) == (0.0, 0.0)
    assert all(math.isnan(b) for b in norm_bounds(np.array([[1.0, np.inf]])))


def _exact_verdict(residual, factors, gate):
    """The verdict of gate at the exact spectral norms: the path norm_gate
    replaces with its bracket wherever the bracket decides."""
    value, limit = gate(op_norm(residual), [op_norm(f) for f in factors])
    return value <= limit


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 12),
    log_ratio=st.floats(-1.0, 1.0),
    nfactors=st.integers(0, 3),
)
def test_norm_gate_matches_exact_verdict_near_threshold(seed, n, log_ratio, nfactors):
    """Residuals within 10x of the gate on either side: the bracket often
    straddles the gate there, so the exact fallback decides."""
    rng = np.random.default_rng(seed)
    factors = [crandn(rng, n, n) for _ in range(nfactors)]
    scale = 1.0 + math.prod(op_norm(f) for f in factors)
    D = crandn(rng, n, n)
    D *= 1e-9 * scale * 10.0**log_ratio / op_norm(D)

    def gate(r, norms):
        return r / (1.0 + math.prod(norms)), 1e-9

    value, limit, note = norm_gate(D, factors, gate)
    assert (value <= limit) == _exact_verdict(D, factors, gate)
    exact_value, exact_limit = gate(op_norm(D), [op_norm(f) for f in factors])
    assert limit == exact_limit
    assert value >= exact_value * (1 - 1e-12)
    assert note in (BOUND_NOTE, "")
    if note == "":
        assert value == exact_value


def test_norm_gate_falls_back_only_when_open():
    calls = []

    def gate(r, norms):
        calls.append(r)
        return r, 1.0

    # ||diag(1, 1)||_2 = 1, and the bracket [1, sqrt(2)] straddles the limit
    value, limit, note = norm_gate(np.eye(2), (), gate)
    assert (value, limit, note) == (pytest.approx(1.0), 1.0, "") and len(calls) == 3
    calls.clear()
    value, limit, note = norm_gate(0.5 * np.eye(2), (), gate)
    assert value <= limit and note == BOUND_NOTE and len(calls) == 1
    calls.clear()
    value, limit, note = norm_gate(3.0 * np.eye(2), (), gate)
    assert value > limit and note == BOUND_NOTE and len(calls) == 2


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
def test_restricted_inverse_leak_near_the_threshold(exact_norms, ratio):
    """A leak at ratio times rel_threshold(||A||): restricted_inverse raises
    SubspaceLeakError exactly when ratio > 1, with the bracket or without."""
    rng = np.random.default_rng(83)
    for n, k in ((4, 2), (9, 3), (16, 8)):
        B, _ = np.linalg.qr(crandn(rng, n, n))
        V = Subspace(n, B[:, :k])
        A = B @ np.diag(rng.uniform(1.0, 2.0, n)) @ B.conj().T
        A = A + 1e-7 * crandn(rng, n, n)
        _, leak = restricted_map(A, V)
        tol = Tolerances(residual_rel=leak / (ratio * op_norm(A)))
        for run in (lambda f, *a: f(*a), exact_norms):
            if ratio > 1:
                with pytest.raises(SubspaceLeakError):
                    run(restricted_inverse, A, V, tol)
            else:
                run(restricted_inverse, A, V, tol)
