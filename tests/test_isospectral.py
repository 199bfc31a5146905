import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothschur import (
    BlockInvertibilityError,
    FeshbachData,
    DimensionMismatchError,
    EffectiveOperatorSingularError,
    EmptyGridError,
    NonFiniteMatrixError,
    OperatorSingularError,
    ReductionStageError,
    SmoothSchurError,
    Subspace,
    Tolerances,
    admissible_subspace_check,
    build_pair,
    column_space,
    feshbach_map,
    halving_partitions,
    invert_F_via_H,
    invert_H_via_F,
    iterated_reduction,
    kernel_basis,
    kernel_correspondence,
    make_sharp,
    numerical_rank,
    op_norm,
    spectral_scan,
    validate_partition,
    verify_basics,
    worked_2x2,
)
from smoothschur import isospectral
from smoothschur.instances import InstanceSpec, derived_seed, generate, generate_singular, random_unitary
from smoothschur.isospectral import _POLE_MAX_COND, _Shifted, _ShiftedScan, _dip_minima, _grid_resolution
from smoothschur.operator_core import _CERT_ROUNDING, _kernel_basis
from smoothschur.pairs import _compressed_map

from conftest import MIXED_FORMS, OVERLAP_FORMS, crandn, instance, overlap_instance, restricted_map, smallest_sv

KINDS = ("sharp", "smooth", "nonselfadjoint")

#: Operator scales a scan's verdicts must not depend on: squared entries
#: underflow below about 1e-154 and overflow above about 1e154.
_SCALES = (1e-160, 1e-8, 1e8, 1e160, 1e300)


def _pair_and_data(i, base_seed=61, scale=0.3, dim=None):
    spec = InstanceSpec(
        dim=dim or (3 + i % 10),
        partition_kind=KINDS[i % 3],
        perturbation_scale=scale,
        seed=derived_seed(base_seed, i),
    )
    inst = generate(spec)
    pair = build_pair(inst.H, inst.T, inst.partition)
    return pair, feshbach_map(pair)


class TestAdmissibleSubspace:
    def test_full_space(self):
        pair, _ = _pair_and_data(0)
        rep = admissible_subspace_check(pair, Subspace.full(pair.dim))
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_ran_chi_always_admissible(self):
        for i in range(9):
            pair, _ = _pair_and_data(i)
            rep = admissible_subspace_check(pair, column_space(pair.chi))
            assert rep.passed, rep.pretty()

    def test_bad_subspace(self):
        inst = worked_2x2()
        pair = build_pair(inst.H, inst.T, inst.partition)
        V = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
        rep = admissible_subspace_check(pair, V)
        assert rep["subspace/contains_ran_chi"].residual == pytest.approx(0.5)
        assert not rep.passed


class TestInverseFormulas:
    def test_zero_w_collapses_to_T_inverse(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 3.0]).astype(complex)
        pair = build_pair(T, T, part)
        data = feshbach_map(pair)
        R = invert_H_via_F(pair, data, Subspace.full(2))
        assert np.allclose(R @ T, np.eye(2))

    def test_worked_2x2_inverse(self):
        inst = worked_2x2()
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        R = invert_H_via_F(pair, data, Subspace.full(2))
        assert np.allclose(R, np.array([[3.0, -1.0], [-1.0, 2.0]]) / 5.0)

    def test_singular_H_detected_via_F(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        H = np.ones((2, 2), dtype=complex)
        pair = build_pair(H, np.eye(2), part)
        data = feshbach_map(pair)
        with pytest.raises(EffectiveOperatorSingularError):
            invert_H_via_F(pair, data, column_space(pair.chi))

    def test_zero_compression_on_ran_chi_is_singular(self):
        # m = 1 and H singular: C*FC is about 5e-15 against ||F|| of order 1,
        # zero up to rounding, though it is all of its own 1 x 1 spectrum
        inst = generate_singular(InstanceSpec(3, "sharp", 0.2, derived_seed(9, 3, 1)), 1)
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        assert pair.ran_chi.dim == 1
        with pytest.raises(EffectiveOperatorSingularError):
            invert_H_via_F(pair, data, pair.ran_chi)

    def test_worked_2x2_effective_inverse(self):
        inst = worked_2x2()
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        V = column_space(pair.chi)
        S = invert_F_via_H(pair, data, V)
        assert S[0, 0] == pytest.approx(3.0 / 5.0)  # = (5/3)^{-1}
        assert np.allclose(S @ data.F @ V.basis, V.basis)

    def test_singular_H_raises(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        H = np.ones((2, 2), dtype=complex)
        pair = build_pair(H, np.eye(2), part)
        data = feshbach_map(pair)
        with pytest.raises(OperatorSingularError):
            invert_F_via_H(pair, data, column_space(pair.chi))

    def test_random_duality(self):
        for i in range(18):
            self._assert_duality(*_pair_and_data(i, base_seed=67))

    @pytest.mark.parametrize("form", [*OVERLAP_FORMS, *MIXED_FORMS])
    @pytest.mark.parametrize("n", [3, 8, 32])
    def test_overlap_duality(self, form, n):
        pair = build_pair(*overlap_instance(form, n, derived_seed(67, n), 0.3))
        self._assert_duality(pair, feshbach_map(pair))

    @staticmethod
    def _assert_duality(pair, data):
        """invert_H_via_F inverts H, and invert_F_via_H inverts F on V, for
        V the whole space and ran(chi)."""
        n = pair.dim
        for V in (Subspace.full(n), column_space(pair.chi)):
            R = invert_H_via_F(pair, data, V)
            assert op_norm(R @ pair.H - np.eye(n)) <= 1e-9 * (
                1 + op_norm(R) * op_norm(pair.H)
            )
            assert op_norm(pair.H @ R - np.eye(n)) <= 1e-9 * (
                1 + op_norm(R) * op_norm(pair.H)
            )
            S = invert_F_via_H(pair, data, V)
            B = V.basis
            assert op_norm(S @ data.F @ B - B) <= 1e-9 * (1 + op_norm(S) * op_norm(data.F))
            assert op_norm(B.conj().T @ data.F @ S @ B - np.eye(V.dim)) <= 1e-9 * (
                1 + op_norm(S) * op_norm(data.F)
            )
            # S maps V into V
            leak = op_norm((np.eye(n) - B @ B.conj().T) @ S @ B)
            assert leak <= 1e-9 * (1 + op_norm(S))


class TestKernelCorrespondence:
    def test_invertible_H(self):
        pair, data = _pair_and_data(1, base_seed=71)
        kc = kernel_correspondence(pair, data)
        assert kc.dim_ker_H == 0 and kc.dim_ker_F == 0
        assert kc.passed

    def test_hand_computed_rank_one(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        H = np.ones((2, 2), dtype=complex)
        pair = build_pair(H, np.eye(2), part)
        data = feshbach_map(pair)
        assert np.allclose(data.F, np.diag([0.0, 1.0]))
        assert np.allclose(data.Q, [[1.0, 0.0], [-1.0, 0.0]])
        kc = kernel_correspondence(pair, data)
        assert kc.dim_ker_H == 1 and kc.dim_ker_F == 1
        assert kc.roundtrip_residual <= 1e-14
        assert kc.passed

    def test_constructed_kernels(self):
        for i in range(20):
            kd = 1 + i % 3
            spec = InstanceSpec(
                dim=5 + i % 8,
                partition_kind=KINDS[i % 3],
                perturbation_scale=0.2,
                seed=derived_seed(73, i),
            )
            inst = generate_singular(spec, kd)
            pair = build_pair(inst.H, inst.T, inst.partition)
            data = feshbach_map(pair)
            kc = kernel_correspondence(pair, data)
            assert kc.dim_ker_H == kc.dim_ker_F == kd
            assert kc.roundtrip_residual <= 1e-8
            assert kc.passed

    @pytest.mark.parametrize("form", [*OVERLAP_FORMS, *MIXED_FORMS])
    @pytest.mark.parametrize("n, kd", [(3, 1), (8, 1), (8, 2), (32, 2)])
    def test_overlap_constructed_kernels(self, form, n, kd):
        H, T, partition = overlap_instance(form, n, derived_seed(73, n, kd), 0.2, kernel_dim=kd)
        pair = build_pair(H, T, partition)
        data = feshbach_map(pair)
        kc = kernel_correspondence(pair, data)
        assert kd < pair.ran_chi.dim
        assert kc.dim_ker_H == kc.dim_ker_F == kd
        assert kc.passed
        got = (kc.chi_maps_residual, kc.q_maps_residual, kc.roundtrip_residual)
        assert got == pytest.approx(_kernel_residuals_by_vector(pair, data), rel=1e-12,
                                    abs=64 * np.finfo(float).eps)

    @pytest.mark.parametrize("form", OVERLAP_FORMS)
    def test_kernel_filling_ran_chi(self, form):
        # dim ker H = dim ran(chi) = 2: ker F contains all of ran(chi), so F C
        # is zero up to rounding, and its kernel should be 2-dimensional
        H, T, partition = overlap_instance(form, 3, derived_seed(73, 3, 2), 0.2, kernel_dim=2)
        pair = build_pair(H, T, partition)
        kc = kernel_correspondence(pair, feshbach_map(pair))
        assert pair.ran_chi.dim == kc.dim_ker_H == 2
        assert kc.dim_ker_F == 2

    def test_H_singular_values_taken_once_per_pair(self, monkeypatch):
        spec = InstanceSpec(dim=12, partition_kind="nonselfadjoint", perturbation_scale=0.2,
                            seed=derived_seed(71, 12))
        for inst in (generate(spec), generate_singular(spec, 2)):
            pair = build_pair(inst.H, inst.T, inst.partition)
            data = feshbach_map(pair)
            svd, of_H = np.linalg.svd, []

            def recording(A, *args, **kwargs):
                of_H.append(A is pair.H and not kwargs.get("compute_uv", True))
                return svd(A, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", recording)
            kc = kernel_correspondence(pair, data)
            try:
                invert_F_via_H(pair, data, Subspace.full(spec.dim))
            except OperatorSingularError:
                assert kc.dim_ker_H == 2
            monkeypatch.undo()
            assert of_H.count(True) == 1
            assert np.array_equal(
                _kernel_basis(pair.H, pair.H_singular_values, Tolerances()).basis, kernel_basis(pair.H).basis
            )

    def test_residuals_match_per_vector_loop(self):
        # a perturbed Q makes the Q-map and roundtrip residuals O(0.1), a
        # scale at which a wrong axis or a dropped term shows
        rng = np.random.default_rng(79)
        for i in range(6):
            spec = InstanceSpec(dim=6 + i, partition_kind=KINDS[i % 3], perturbation_scale=0.2,
                                seed=derived_seed(79, i))
            inst = generate_singular(spec, 1 + i % 2)
            pair = build_pair(inst.H, inst.T, inst.partition)
            data = feshbach_map(pair)
            E = crandn(rng, spec.dim)
            data = FeshbachData(F=data.F, Q=data.Q + 0.1 * E / op_norm(E), Q_sharp=data.Q_sharp)
            kc = kernel_correspondence(pair, data)
            got = (kc.chi_maps_residual, kc.q_maps_residual, kc.roundtrip_residual)
            want = _kernel_residuals_by_vector(pair, data)
            assert min(want[1:]) > 1e-3
            assert got == pytest.approx(want, rel=1e-12, abs=64 * np.finfo(float).eps)


def _kernel_residuals_by_vector(pair, data):
    """kernel_correspondence's three residuals, one basis vector at a time."""
    chi, Q = pair.chi, data.Q
    ker_H = kernel_basis(pair.H)
    B = column_space(chi).basis
    ker_F = B @ kernel_basis(data.F @ B).basis
    P_F, P_H = ker_F @ ker_F.conj().T, ker_H.basis @ ker_H.basis.conj().T
    chi_res = q_res = roundtrip = 0.0
    for v in ker_H.basis.T:
        cv = chi @ v
        chi_res = max(chi_res, np.linalg.norm(cv - P_F @ cv))
        roundtrip = max(roundtrip, np.linalg.norm(Q @ cv - v))
    for w in ker_F.T:
        qw = Q @ w
        q_res = max(q_res, np.linalg.norm(qw - P_H @ qw))
        roundtrip = max(roundtrip, np.linalg.norm(chi @ qw - w))
    return chi_res, q_res, roundtrip


def _dip_minima_by_loop(svs, cut):
    """_dip_minima one dip at a time."""
    valid = [not np.isnan(x) for x in svs]
    flagged = []
    for i, x in enumerate(svs):
        if not (valid[i] and x <= cut):
            continue
        left = svs[i - 1] if i > 0 and valid[i - 1] else None
        right = svs[i + 1] if i + 1 < len(svs) and valid[i + 1] else None
        if left is not None and not x < left:
            continue
        if right is not None and not x <= right:
            continue
        finite = [y for y in (left, right) if y is not None]
        if finite and x > 0.5 * max(finite):
            continue
        flagged.append(i)
    return flagged


def _grid_resolution_by_loop(grid):
    """_grid_resolution one consecutive pair at a time."""
    gaps = [abs(grid[i + 1] - grid[i]) for i in range(len(grid) - 1)]
    gaps = [g for g in gaps if g > 0]
    return min(gaps) if gaps else 1.0


def _reference_point(H, T, partition, lam):
    """(sigma_min of F compressed to ran chi, pair valid, ||F||, block margin)
    at one shift, through the per-point path: build_pair, feshbach_map,
    restricted_map.  The margin is the smaller of the chibar-block smallest
    singular values of T - lam and H_chibar - lam over their rank cutoffs."""
    eye = np.eye(H.shape[0])
    B = column_space(partition.chibar).basis
    H_chibar = T + partition.chibar @ (H - T) @ partition.chibar
    margin = np.inf
    for A in (T, H_chibar):
        s = np.linalg.svd(B.conj().T @ (A - lam * eye) @ B, compute_uv=False)
        cutoff = 1e-10 * s[0] * len(s)
        margin = min(margin, s[-1] / cutoff if cutoff > 0 else 0.0)
    try:
        pair = build_pair(H - lam * eye, T - lam * eye, partition)
    except SmoothSchurError:
        return float("nan"), False, float("nan"), margin
    data = feshbach_map(pair)
    coords, _ = restricted_map(data.F, column_space(partition.chi))
    return smallest_sv(coords), True, op_norm(data.F), margin


def _chibar_blocks(H, T, partition):
    """The compressions of T and H_chibar to ran(chibar)."""
    B = column_space(partition.chibar).basis
    H_chibar = T + partition.chibar @ (H - T) @ partition.chibar
    return [B.conj().T @ A @ B for A in (T, H_chibar)]


def _near_cutoff_shifts(H, T, partition, factors=(0.01, 0.3, 3.0, 30.0, 300.0)):
    """Shifts a few rank cutoffs away from an eigenvalue of each chibar block."""
    shifts = []
    for block in _chibar_blocks(H, T, partition):
        mu = np.linalg.eigvals(block)[0]
        cutoff = 1e-10 * op_norm(block) * block.shape[0]
        shifts += [mu + c * cutoff for c in factors]
    return shifts


def _reference_instance(kind, dim):
    """(H, T, partition, grid): an instance of the kind and a grid across its
    spectrum, near three eigenvalues of H and near each chibar block's
    rank cutoff."""
    H, T, partition = instance(kind, dim, derived_seed(97, dim), 0.3)
    ev = np.linalg.eigvals(H)
    grid = list(np.linspace(ev.real.min() - 0.1, ev.real.max() + 0.1, 12) + 0.05j)
    grid += list(ev[:3] + 1e-3) + _near_cutoff_shifts(H, T, partition)
    return H, T, partition, grid


def _stacked_counter(monkeypatch, name):
    """A one-item list counting the matrices passed to np.linalg.<name> in
    stacks; only spectral_scan batches its SVDs and solves over grid points.
    The F_c pass calls it from several threads, so it counts under a lock."""
    count = [0]
    lock = threading.Lock()
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            with lock:
                count[0] += len(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return count


@pytest.fixture
def stacked_svds(monkeypatch):
    return _stacked_counter(monkeypatch, "svd")


@pytest.fixture
def stacked_solves(monkeypatch):
    return _stacked_counter(monkeypatch, "solve")


@pytest.fixture
def gate_calls(monkeypatch):
    """A one-item list counting the calls of _ShiftedScan._within_thresholds,
    one per threshold gate per chunk of the validity pass."""
    count = [0]
    lock = threading.Lock()
    original = _ShiftedScan._within_thresholds

    def counting(self, *args):
        with lock:
            count[0] += 1
        return original(self, *args)

    monkeypatch.setattr(_ShiftedScan, "_within_thresholds", counting)
    return count


def _far_shifts(H, T, partition, grid):
    """The shifts of the grid at least 1e-3 from every chibar-block eigenvalue."""
    eigs = np.concatenate([np.linalg.eigvals(b) for b in _chibar_blocks(H, T, partition)])
    return [z for z in grid if np.abs(eigs - z).min() >= 1e-3]


def _conditioned_instance(m, k, kappa, seed):
    """(H, T, partition): the sharp partition onto the first m axes of
    C^(m + k), T diagonal, and H = T + W with the chibar block of H, which is
    K, set to 1.5 + 0.5 D / ||D||.  D = S diag(w) S^-1 for a random S with
    cond(S) = kappa and w in [1, 2] x [-0.5i, 0.5i], so that K's eigenvalues
    cluster around 1.5 as kappa grows; kappa None gives the exact Jordan
    block D = N, the nilpotent upper shift."""
    rng = np.random.default_rng(seed)
    if kappa is None:
        D = np.eye(k, k=1)
    else:
        U, _ = np.linalg.qr(crandn(rng, k))
        Q, _ = np.linalg.qr(crandn(rng, k))
        S = (U * np.geomspace(1.0, 1.0 / kappa, k)) @ Q
        D = (S * (rng.uniform(1.0, 2.0, k) + 0.5j * rng.uniform(-1.0, 1.0, k))) @ np.linalg.inv(S)
    n = m + k
    T = np.diag(np.r_[rng.uniform(1.0, 2.0, m), rng.uniform(3.0, 4.0, k)]).astype(complex)
    W = crandn(rng, n)
    H = T + 0.3 / op_norm(W) * W
    H[m:, m:] = 1.5 * np.eye(k) + 0.5 / op_norm(D) * D
    return H, T, make_sharp(np.diag(np.r_[np.ones(m), np.zeros(k)]))


class TestSpectralScan:
    def test_diagonal_flags_and_gap(self):
        part = validate_partition(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        T = np.diag([1.0, 2.0]).astype(complex)
        grid = np.linspace(0.0, 3.0, 61)  # step 0.05, contains 1.0 and 2.0
        result = spectral_scan(T, T, part, grid)
        flagged = sorted(z.real for z in result.flagged_eigenvalues)
        assert flagged == pytest.approx([1.0])  # 2.0 sits in the invalid-pair gap
        idx_gap = int(np.argmin(np.abs(np.asarray(grid) - 2.0)))
        assert not result.pair_valid[idx_gap]

    def test_worked_2x2_eigenvalues(self):
        inst = worked_2x2()
        grid = np.arange(0.0, 5.0, 0.01)
        result = spectral_scan(inst.H, inst.T, inst.partition, grid)
        eigs = sorted(z.real for z in result.reference_eigenvalues)
        assert eigs == pytest.approx([(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
        for e in eigs:
            assert min(abs(z - e) for z in result.flagged_eigenvalues) <= 0.01

    def test_grid_resolution_matches_loop(self):
        rng = np.random.default_rng(101)
        grids = [[], [1.0], [2.0, 2.0], [0.0, 1e-3, 1e-3, 3.0], list(np.arange(0.0, 5.0, 0.01))]
        grids += [list(crandn(rng, 1, 1 + i % 7)[0]) for i in range(40)]
        for grid in grids:
            assert _grid_resolution(grid) == _grid_resolution_by_loop(grid), grid

    def test_dip_minima_match_loop(self):
        # few distinct values, so ties and gaps (NaN) next to dips are common
        rng = np.random.default_rng(103)
        values = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, np.nan])
        for i in range(600):
            size = 1 + i % 11
            svs = rng.choice(values, size) if i % 2 else np.where(rng.random(size) < 0.2, np.nan, rng.random(size))
            cut = (0.0, 0.2, 0.5, 2.0)[i % 4]
            assert _dip_minima(svs, cut).tolist() == _dip_minima_by_loop(svs, cut), (svs, cut)

    def test_empty_grid(self):
        inst = worked_2x2()
        with pytest.raises(EmptyGridError):
            spectral_scan(inst.H, inst.T, inst.partition, [])

    def test_non_finite_shifts_are_rejected(self):
        inst = worked_2x2()
        nan, inf = float("nan"), float("inf")
        for bad in (nan, inf, -inf, complex(0.5, inf), complex(nan, 1.0)):
            with pytest.raises(EmptyGridError, match="non-finite"):
                spectral_scan(inst.H, inst.T, inst.partition, [1.0, 2.0, bad, 4.5])

    def test_grid_entries_that_are_not_numbers(self):
        inst = worked_2x2()
        for bad in ("a", None, [1, 2], b"1", 10**400, np.array([1.0])):
            with pytest.raises(EmptyGridError, match=re.escape(repr(bad))):
                spectral_scan(inst.H, inst.T, inst.partition, [1.0, bad, 4.5])
        for grid in ([[1, 2], [3, 4]], np.ones((3, 1)), [[]]):
            with pytest.raises(EmptyGridError, match=rf"{re.escape(repr(grid[0]))}.*shape"):
                spectral_scan(inst.H, inst.T, inst.partition, grid)
        with pytest.raises(EmptyGridError, match="not a sequence"):
            spectral_scan(inst.H, inst.T, inst.partition, 2.5)

    def test_grid_entries_keep_their_values(self):
        # each entry is at complex(entry), whether the grid converts in one
        # call or entry by entry
        inst = worked_2x2()
        grids = [
            ["1+2j", True, np.float32(0.1), np.int64(4), 2.5, 1j],
            [True, np.float32(0.1), np.int64(4), 2**60 + 1, 2.5, 1j],
            np.array([0.5, 2.0], dtype=np.float16),
            "12",
        ]
        for grid in grids:
            want = [complex(z) for z in grid]
            assert spectral_scan(inst.H, inst.T, inst.partition, grid).grid == want
        assert spectral_scan(inst.H, inst.T, inst.partition, (z for z in want)).grid == want

    def test_scan_bracket_slack_comes_from_operator_core(self):
        from smoothschur import isospectral, operator_core

        assert isospectral._BRACKET_SLACK is operator_core._BRACKET_SLACK

    def test_dimension_mismatch(self):
        inst = worked_2x2()
        with pytest.raises(DimensionMismatchError):
            spectral_scan(np.eye(3), np.eye(3), inst.partition, [0.5])

    def test_empty_ran_chibar(self):
        inst = worked_2x2()
        with pytest.raises(BlockInvertibilityError, match="numerically empty"):
            spectral_scan(inst.H, inst.T, make_sharp(np.diag([1.0, 0.0]), Tolerances(rank_rel=10)), [0.0, 1.0])

    def test_scale_invariance(self, stacked_svds):
        # the non-commuting T = [[2, 0.5], [0.5, 3]] is rejected at every
        # shift from 1e-8 up, 1e160 included, where a squared entry
        # overflows; at 1e-160 its commutation residual is below ABS_FLOOR,
        # so build_pair accepts it, and so must the scan.  No RuntimeWarning
        # escapes at any scale
        inst = worked_2x2()
        grid = np.arange(0.0, 5.0, 0.01)
        for T in (inst.T, np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)):
            commuting = T is inst.T
            H = inst.H - inst.T + T
            base = spectral_scan(H, T, inst.partition, grid)
            assert len(base.flagged_eigenvalues) == (2 if commuting else 0)
            for s in _SCALES:
                scaled = spectral_scan(s * H, s * T, inst.partition, s * grid)
                for lam, valid in zip(s * grid[::10], scaled.pair_valid[::10]):
                    assert valid == _reference_point(s * H, s * T, inst.partition, lam)[1], (s, lam)
                if commuting or s > 1e-8:
                    assert scaled.pair_valid == base.pair_valid
                    flags = [z / s for z in scaled.flagged_eigenvalues]
                    assert flags == pytest.approx(base.flagged_eigenvalues, rel=1e-12)
        # k = 8 chibar blocks, where the certificate's e is nonzero: it must
        # leave the same points to the SVD at every scale
        H, T, partition, grid = _reference_instance("nonselfadjoint", 8)
        mus = [np.linalg.eigvals(block)[0] for block in _chibar_blocks(H, T, partition)]
        grid = np.array(grid[:15] + [mu + d for mu in mus for d in (1e-9, 1e-6, 1e-3)])
        stacked_svds[0] = 0
        base = spectral_scan(H, T, partition, grid)
        base_svds = stacked_svds[0]
        assert sum(base.pair_valid) < base_svds < len(grid) + sum(base.pair_valid)
        for s in _SCALES:
            stacked_svds[0] = 0
            scaled = spectral_scan(s * H, s * T, partition, s * grid)
            assert stacked_svds[0] == base_svds, s
            assert scaled.pair_valid == base.pair_valid, s

    def test_worked_2x2_matches_per_point_reference(self):
        inst = worked_2x2()
        grid = [0.0, 1.0, (5 - np.sqrt(5)) / 2, 2.5, 3.0, 3.0 + 1e-12, 3.0 - 1e-9, 4.0, 2 + 1j]
        result = spectral_scan(inst.H, inst.T, inst.partition, grid)
        assert result.pair_valid[grid.index(3.0)] is False
        self._assert_matches_reference(inst.H, inst.T, inst.partition, grid, result)

    @pytest.mark.parametrize("kind", [*KINDS, *OVERLAP_FORMS, *MIXED_FORMS])
    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_per_point_reference(self, kind, dim):
        H, T, partition, grid = _reference_instance(kind, dim)
        result = spectral_scan(H, T, partition, grid)
        margins = self._assert_matches_reference(H, T, partition, grid, result)
        # the near-cutoff shifts reach the verdict boundary and cross it
        assert any(0.1 <= m <= 10 for m in margins)
        assert any(m < 0.1 for m in margins)

    @pytest.mark.parametrize("kind", [*KINDS, *OVERLAP_FORMS, *MIXED_FORMS])
    def test_blocks_are_the_pairs_compressed_map(self, kind):
        H, T, partition, _ = _reference_instance(kind, 8)
        pair = build_pair(H, T, partition)
        scan = _ShiftedScan(H, T, partition)
        want = _compressed_map(pair.T, pair.W, partition)
        for got, block in zip((scan.F0, scan.left, scan.right), want, strict=True):
            assert np.array_equal(got, block)

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("k", [1, 8])
    def test_shifted_norms_are_frobenius_norms(self, k, scale):
        # ||M - lam||_F from the diagonal and the mass off it, without
        # overflow or underflow, at shifts across and on the spectrum of M
        rng = np.random.default_rng(k)
        M = crandn(rng, k)
        lams = np.r_[3 * crandn(rng, 1, 20)[0], np.linalg.eigvals(M), 0.0]
        got = _Shifted.of(scale * M, False).norms(scale * lams)
        want = scale * np.linalg.norm(M[None] - lams[:, None, None] * np.eye(k), axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_certificate_spares_block_svds(self, stacked_svds):
        # away from every chibar-block eigenvalue the eigenvector certificate
        # decides both rank-cutoff tests, so F_c is the only SVD per point
        H, T, partition, grid = _reference_instance("nonselfadjoint", 64)
        far = _far_shifts(H, T, partition, grid)
        assert len(far) >= 12
        stacked_svds[0] = 0
        result = spectral_scan(H, T, partition, far)
        assert all(result.pair_valid)
        assert stacked_svds[0] == len(far)

    @pytest.mark.parametrize("kind, n", [("sharp", 2), ("sharp", 3), ("corank-one", 3), ("corank-one", 8)])
    def test_one_dimensional_ranges_match_per_point_reference(self, kind, n):
        # m = 1 (sharp) or k = 1 (corank-one): sigma_min(F_c) is |F_c|, or
        # (K - lam)^-1 R a quotient, on complex instances.  The first 15
        # shifts cross the spectrum; the rest come within a few rank cutoffs
        # of a chibar-block eigenvalue, where F_c grows like 1 / (K - lam) and
        # forming K another way moves it by eps ||K|| / |K - lam| relative,
        # so only the verdicts are compared there
        H, T, partition, grid = _reference_instance(kind, n)
        assert 1 in (partition.ran_chi.dim, partition.ran_chibar.dim)
        result = spectral_scan(H, T, partition, grid)
        self._assert_matches_reference(H, T, partition, grid[:15], result)
        for lam, ok in zip(grid[15:], result.pair_valid[15:]):
            _, ref_ok, _, margin = _reference_point(H, T, partition, lam)
            if not 0.1 <= margin <= 10:
                assert ok == ref_ok, (lam, margin)

    @pytest.mark.parametrize(
        "kind, n",
        [("sharp", 2)] + [(kind, n) for kind in (*KINDS, *OVERLAP_FORMS, *MIXED_FORMS, "corank-one") for n in (3, 8, 64)],
    )
    def test_one_dimensional_ranges_take_no_svd_or_solve(self, kind, n, stacked_svds, stacked_solves):
        # away from every chibar-block eigenvalue the certificate decides both
        # rank tests, so F_c is the only stacked SVD, and none is left with
        # m = 1; the coupling takes the pole form for any k, so no point
        # takes a solve
        H, T, partition, grid = _reference_instance(kind, n)
        m = partition.ran_chi.dim
        far = _far_shifts(H, T, partition, grid)
        assert len(far) >= 12
        B = partition.ran_chibar
        if kind == "sharp" and n > 3:
            # a sharp basis is orthonormal only up to rounding; the pole form
            # is chosen on the certificate alone
            assert np.linalg.norm(B.coords(B.basis) - np.eye(B.dim)) > 0
        assert _ShiftedScan(H, T, partition).poles is not None
        stacked_svds[0] = stacked_solves[0] = 0
        result = spectral_scan(H, T, partition, far)
        assert all(result.pair_valid)
        assert stacked_svds[0] == (0 if m == 1 else len(far))
        assert stacked_solves[0] == 0

    @pytest.mark.parametrize(
        "kappa", [1.0, 1e2, 1e5, 1e6, 1e10, None], ids=["cond-1", "cond-1e2", "cond-1e5", "cond-1e6", "cond-1e10", "jordan"]
    )
    def test_pole_gate_decides_the_batched_solve(self, kappa, stacked_solves):
        # cond(V) at most _POLE_MAX_COND takes the pole form and no solve;
        # above it, or with no certificate at all for a Jordan block, every
        # point that reaches the coupling term solves for it.  The property
        # test on clustered blocks draws from this family on both sides
        H, T, partition = _conditioned_instance(3, 5, kappa, 7)
        scan = _ShiftedScan(H, T, partition)
        solved = kappa is None or kappa > _POLE_MAX_COND
        assert (scan.poles is None) == solved
        assert (scan.blocks[1].certificate is None) == (kappa is None)
        grid = np.linspace(0.0, 5.0, 41) + 0.05j
        stacked_solves[0] = 0
        result = spectral_scan(H, T, partition, grid)
        assert sum(result.pair_valid) > 0
        assert stacked_solves[0] == (sum(result.pair_valid) if solved else 0)

    @pytest.mark.parametrize("kind", [*KINDS, *OVERLAP_FORMS, *MIXED_FORMS, "corank-one"])
    @pytest.mark.parametrize("dim", [3, 8, 32])
    def test_chunking_leaves_every_answer_bit_identical(self, kind, dim, monkeypatch):
        # a batched SVD, solve or product returns each matrix as it would in
        # any other stack, and each F_c chunk writes only its own points, so
        # a scan in a single chunk of each pass and one a shift at a time,
        # its F_c chunks split across one, two or three workers, agree to
        # the bit
        H, T, partition, grid = _reference_instance(kind, dim)
        results = []
        for budget, workers in ((2**30, 1), (1, 1), (1, 2), (1, 3)):
            monkeypatch.setattr(isospectral, "_SCAN_CHUNK_BYTES", budget)
            monkeypatch.setattr(isospectral, "_usable_cpus", lambda n=workers: n)
            results.append(spectral_scan(H, T, partition, grid))
        assert sum(results[0].pair_valid) > 3
        assert [repr(r.to_dict()) for r in results[1:]] == [repr(results[0].to_dict())] * 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_grid_with_no_valid_point(self, workers, monkeypatch):
        # T does not commute with chi, so no shift gives a valid pair and the
        # F_c pass has no chunk to share
        monkeypatch.setattr(isospectral, "_usable_cpus", lambda: workers)
        inst = worked_2x2()
        T = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)
        result = spectral_scan(inst.H - inst.T + T, T, inst.partition, np.arange(0.0, 5.0, 0.01))
        assert not any(result.pair_valid)
        assert all(np.isnan(result.f_smallest_sv))

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert isospectral._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert isospectral._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert isospectral._usable_cpus() == 1

    def test_more_workers_than_cpus_under_fast_thread_switching(self, monkeypatch, stacked_svds):
        # eight workers, each switching threads every microsecond: every
        # worker writes only its own points and the counter counts under its
        # lock, so no update is lost
        H, T, partition, grid = _reference_instance("nonselfadjoint", 64)
        far = _far_shifts(H, T, partition, grid)
        want = repr(spectral_scan(H, T, partition, far).to_dict())
        monkeypatch.setattr(isospectral, "_SCAN_CHUNK_BYTES", 1)
        monkeypatch.setattr(isospectral, "_usable_cpus", lambda: 8)
        threads = set()
        original = _ShiftedScan.smallest_svs

        def recording(self, at):
            threads.add(threading.current_thread())
            return original(self, at)

        monkeypatch.setattr(_ShiftedScan, "smallest_svs", recording)
        interval = sys.getswitchinterval()
        stacked_svds[0] = 0
        sys.setswitchinterval(1e-6)
        try:
            got = spectral_scan(H, T, partition, far)
        finally:
            sys.setswitchinterval(interval)
        assert repr(got.to_dict()) == want
        assert len(threads) == 8
        assert stacked_svds[0] == len(far)

    @pytest.mark.parametrize("raising", ["calling thread", "helper thread"])
    def test_worker_error_surfaces_unchanged(self, raising, monkeypatch):
        # an error in either worker leaves spectral_scan as it was raised,
        # after every helper thread has been joined
        H, T, partition, grid = _reference_instance("nonselfadjoint", 8)
        monkeypatch.setattr(isospectral, "_SCAN_CHUNK_BYTES", 1)
        monkeypatch.setattr(isospectral, "_usable_cpus", lambda: 2)
        error = np.linalg.LinAlgError("SVD did not converge")
        caller = threading.current_thread()
        original = _ShiftedScan.smallest_svs

        def failing(self, at):
            if (threading.current_thread() is caller) == (raising == "calling thread"):
                raise error
            return original(self, at)

        monkeypatch.setattr(_ShiftedScan, "smallest_svs", failing)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as raised:
            spectral_scan(H, T, partition, grid)
        assert raised.value is error
        assert threading.active_count() == before

    def test_every_stack_is_within_the_budget(self, monkeypatch, gate_calls):
        # K is a Jordan block, so it has no certificate: every shift that
        # reaches it takes the block SVD, and each F_c the batched solve.  At
        # 1280 bytes the validity pass takes 10 shifts of n = 8 per chunk,
        # the k = 5 block SVDs 3 and F_c 3
        H, T, partition = _conditioned_instance(3, 5, None, 7)
        grid = np.linspace(0.0, 5.0, 41) + 0.05j
        want = spectral_scan(H, T, partition, grid)
        budget = 1280
        monkeypatch.setattr(isospectral, "_SCAN_CHUNK_BYTES", budget)
        stacks = []
        for name in ("svd", "solve"):
            original = getattr(np.linalg, name)

            def recording(*args, _original=original, **kwargs):
                stacks.extend((len(a), a[0].nbytes) for a in args if np.ndim(a) == 3)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        gate_calls[0] = 0
        got = spectral_scan(H, T, partition, grid)
        assert repr(got.to_dict()) == repr(want.to_dict())
        assert gate_calls[0] == 2 * 5
        assert max(count for count, _ in stacks) == 3
        for count, nbytes in stacks:
            assert 0 < count <= max(1, budget // nbytes), (count, nbytes)

    def test_validity_gates_run_once_per_chunk(self, gate_calls):
        # the gates read O(n) numbers per shift, so at n = 64 a chunk holds
        # 512 shifts and a 200-point grid is one chunk: each threshold gate
        # runs once for the scan, not once per chunk of F_c stacks
        H, T, partition, _ = _reference_instance("nonselfadjoint", 64)
        ev = np.linalg.eigvals(H)
        grid = (np.linspace(ev.real.min(), ev.real.max(), 20)[None] + 1j * np.linspace(-0.1, 0.1, 10)[:, None]).ravel()
        assert sum(spectral_scan(H, T, partition, grid).pair_valid) > 0
        assert isospectral._SCAN_CHUNK_BYTES // (16 * 64) >= len(grid) == 200
        assert gate_calls[0] == 2

    @pytest.mark.parametrize("kind", [*KINDS, *OVERLAP_FORMS, *MIXED_FORMS, "corank-one"])
    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_pole_form_agrees_with_batched_solve(self, kind, dim, monkeypatch):
        # the bound stated in _ShiftedScan: sigma_min of the pole form is within
        # 4 rho cond(V) (||K|| + |lam|) ||L|| ||R|| ||X||^2, X = (K - lam)^-1,
        # plus the rounding of two m x m SVDs, of the batched solve's, and
        # every verdict and flag is the same
        H, T, partition, grid = _reference_instance(kind, dim)
        scan = _ShiftedScan(H, T, partition)
        assert scan.poles is not None
        pole = spectral_scan(H, T, partition, grid)
        monkeypatch.setattr(_ShiftedScan, "_pole_form", lambda self, certificate: None)
        solve = spectral_scan(H, T, partition, grid)
        assert pole.pair_valid == solve.pair_valid
        assert pole.flagged_eigenvalues == solve.flagged_eigenvalues
        K, certificate = scan.blocks[1].M, scan.blocks[1].certificate
        k, m = K.shape[0], scan.F0.shape[0]
        eps = np.finfo(float).eps
        rho = _CERT_ROUNDING * k * eps
        coupling = 4 * rho * certificate.kappa * op_norm(scan.left) * op_norm(scan.right)
        for lam, a, b, ok in zip(grid, pole.f_smallest_sv, solve.f_smallest_sv, pole.pair_valid):
            if not ok:
                continue
            x = 1.0 / smallest_sv(K - lam * np.eye(k))
            Fc = scan.F0 - lam * np.eye(m) - scan.left @ np.linalg.solve(K - lam * np.eye(k), scan.right)
            bound = coupling * (op_norm(K) + abs(lam)) * x**2 + 2 * _CERT_ROUNDING * m * eps * op_norm(Fc)
            assert abs(a - b) <= bound, (lam, a, b, bound)

    @pytest.mark.parametrize("n, m", [(2, 1), (4, 2)], ids=["closed-forms", "solve-and-svd"])
    def test_overflowing_effective_operator_is_a_gap(self, n, m, monkeypatch):
        # T = diag(2, 3, ...), chi the first m axes and W = 1e160 between
        # ran(chi) and ran(chibar): each shifted pair is valid, but
        # L (K - lam)^-1 R overflows, so F_c is not finite there.  Split
        # across three workers, each helper thread ignores the overflow too,
        # though a new thread does not inherit np.errstate
        T = np.diag(np.arange(2.0, 2.0 + n)).astype(complex)
        W = np.zeros((n, n), dtype=complex)
        W[:m, m:] = W[m:, :m] = 1e160
        partition = make_sharp(np.diag([1.0] * m + [0.0] * (n - m)))
        grid = [0.5, 1.0 + 0.5j, 10.0]
        build_pair(T + W - grid[0] * np.eye(n), T - grid[0] * np.eye(n), partition)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = spectral_scan(T + W, T, partition, grid)
            monkeypatch.setattr(isospectral, "_SCAN_CHUNK_BYTES", 1)
            monkeypatch.setattr(isospectral, "_usable_cpus", lambda: 3)
            split = spectral_scan(T + W, T, partition, grid)
        assert result.pair_valid == [False] * len(grid)
        assert all(np.isnan(result.f_smallest_sv))
        assert repr(split.to_dict()) == repr(result.to_dict())

    @pytest.mark.parametrize(
        "diagonal",
        [np.zeros(8), 0.25 - 0.25 * np.arange(8)],
        ids=["defective", "cond-5e9"],
    )
    def test_non_normal_chibar_block(self, diagonal):
        # T's chibar block is 10 N + diag(diagonal), N the nilpotent upper
        # shift, and H = T.  With diagonal 0 every eigenvalue is 0, yet
        # sigma_min(10 N - lam), about lam^8 / 1e7, is below the rank cutoff
        # at lam = 0.5 and 0.3; eig returns singular eigenvectors, so inv(V)
        # would raise LinAlgError.  With diagonal 0.25 - 0.25 i, cond(V) is
        # about 5e9 and lam = 0.3, 0.05 from the spectrum, still fails the
        # cutoff: a bound without cond(V) would pass it.
        n = 9
        chi = np.zeros((n, n))
        chi[0, 0] = 1.0
        partition = make_sharp(chi)
        T = np.zeros((n, n), dtype=complex)
        T[0, 0] = 1.0
        T[1:, 1:] = 10.0 * np.eye(n - 1, k=1) + np.diag(diagonal)
        grid = [0.5, 0.3, 2.0, 5.0, 20.0]
        result = spectral_scan(T, T, partition, grid)
        assert result.pair_valid[1] is False
        for lam, sv, ok in zip(grid, result.f_smallest_sv, result.pair_valid):
            ref_sv, ref_ok, f_norm, _ = _reference_point(T, T, partition, lam)
            assert ok == ref_ok, lam
            if ok:
                assert abs(sv - ref_sv) <= 1e-12 * (1 + f_norm)
        if not diagonal.any():
            assert result.pair_valid == [False, False, True, True, True]

    @pytest.mark.parametrize(
        "chi, chibar, T, grid",
        [
            # ran(chibar) is the whole space, so only commutation can fail:
            # residual 2e-7 against 1e-9 * 0.8 * ||T - lam||, which fails
            # where ||T - lam|| < 250, i.e. for lam between 150 and 251
            (
                np.diag([0.8, 0.6]),
                np.diag([0.6, 0.8]),
                np.array([[1.0, 1e-6], [1e-6, 400.0]]),
                [0.0, 100.0, 130.0, 160.0, 200.0, 245.0, 255.0, 300.0, -300.0],
            ),
            # chibar is 1e-6 on e1, so coupling e0 and e1 nearly commutes but
            # leaks 1e-2 off ran(chibar): the leak flips at ||T - lam|| = 1e7
            (
                np.diag([1.0, np.sqrt(1.0 - 1e-12), 0.0]),
                np.diag([0.0, 1e-6, 1.0]),
                np.array([[1.0, 1e-2, 0.0], [1e-2, 2.0, 0.0], [0.0, 0.0, 3.0]]),
                [0.5, 100.0, 0.98e7, 1.02e7, -0.98e7, -1.02e7, 5e7],
            ),
        ],
    )
    def test_threshold_gates_match_reference(self, chi, chibar, T, grid):
        partition = validate_partition(chi, chibar)
        result = spectral_scan(T, T, partition, grid)
        self._assert_matches_reference(T, T, partition, grid, result)
        assert True in result.pair_valid and False in result.pair_valid

    @staticmethod
    def _assert_matches_reference(H, T, partition, grid, result):
        margins = []
        for lam, sv, ok in zip(grid, result.f_smallest_sv, result.pair_valid):
            ref_sv, ref_ok, f_norm, margin = _reference_point(H, T, partition, lam)
            margins.append(margin)
            # within 10x of the rank cutoff either verdict is right
            if not 0.1 <= margin <= 10:
                assert ok == ref_ok, (lam, margin)
            if ok and ref_ok:
                assert abs(sv - ref_sv) <= 1e-12 * (1 + f_norm), (lam, sv, ref_sv)
            if not ok:
                assert np.isnan(sv)
        return margins


@st.composite
def _shift(draw, H, blocks):
    """A shift across the spectrum of H, or one 1e-3 to 1e4 rank cutoffs from
    an eigenvalue of one of the chibar blocks."""
    if draw(st.booleans()):
        ev = np.linalg.eigvals(H)
        return complex(draw(st.floats(ev.real.min() - 1, ev.real.max() + 1)), draw(st.floats(-1, 1)))
    block = draw(st.sampled_from(blocks))
    mu = draw(st.sampled_from(list(np.linalg.eigvals(block))))
    cutoff = 1e-10 * op_norm(block) * block.shape[0]
    return complex(mu + 10 ** draw(st.floats(-3, 4)) * cutoff * np.exp(1j * draw(st.floats(0, 2 * np.pi))))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([*KINDS, *OVERLAP_FORMS, *MIXED_FORMS]),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_scan_verdict_is_per_point_build_pair(kind, n, seed, data):
    """pair_valid is whether build_pair(H - lam, T - lam, partition) succeeds,
    wherever the chibar blocks' margin over their rank cutoffs lies outside
    [0.1, 10] (within it either verdict is right, as in _reference_point),
    for generated instances and both overlapping and mixed partitions."""
    H, T, partition = instance(kind, n, seed, 0.3)
    lams = data.draw(st.lists(_shift(H, _chibar_blocks(H, T, partition)), min_size=1, max_size=4))
    result = spectral_scan(H, T, partition, lams)
    for lam, valid in zip(lams, result.pair_valid):
        _, ref_ok, _, margin = _reference_point(H, T, partition, lam)
        if not 0.1 <= margin <= 10:
            assert valid == ref_ok, (lam, margin)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 3),
    k=st.integers(2, 6),
    exponent=st.one_of(st.floats(0.0, 10.0), st.none()),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_scan_matches_per_point_reference_on_clustered_blocks(m, k, exponent, seed, data):
    """On chibar blocks K whose eigenvector matrix has cond 1 to 1e10, so
    that the scan takes the pole form or the batched solve, and on an exact
    Jordan block, which has no certificate: the scan's verdicts are
    build_pair's outside the [0.1, 10] margin band, its singular values are
    the per-point path's within 1e-12 (1 + ||F||), and no LinAlgError or
    RuntimeWarning escapes.  Within 1e-3 of an eigenvalue of a block that
    takes the batched solve the singular values are not compared: there an
    eigenvalue condition number past _POLE_MAX_COND lets the two ways of
    forming K - lam apart by more than that bound (3.7e-11 (1 + ||F||) at
    cond 1e5, 1e4 rank cutoffs from an eigenvalue)."""
    H, T, partition = _conditioned_instance(m, k, None if exponent is None else 10.0**exponent, seed)
    blocks = _chibar_blocks(H, T, partition)
    lams = data.draw(st.lists(_shift(H, blocks), min_size=1, max_size=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = spectral_scan(H, T, partition, lams)
    solved = _ShiftedScan(H, T, partition).poles is None
    eigs = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    for lam, sv, ok in zip(lams, result.f_smallest_sv, result.pair_valid):
        ref_sv, ref_ok, f_norm, margin = _reference_point(H, T, partition, lam)
        if not 0.1 <= margin <= 10:
            assert ok == ref_ok, (lam, margin)
        if ok and ref_ok and not (solved and np.abs(eigs - lam).min() < 1e-3):
            assert abs(sv - ref_sv) <= 1e-12 * (1 + f_norm), (lam, sv, ref_sv)


def test_overflow_at_large_scale_is_typed():
    """At operator scale 1e300, grid points 20 to 22 of the corank-one
    reference instance lie 0.01 to 3 rank cutoffs from an eigenvalue of the
    chibar block of H_chibar.  Each pair builds.  F overflows at the first
    two, and the norm of the finite F at the third: each raises
    NonFiniteMatrixError, and no RuntimeWarning escapes (pyproject turns
    one into an error)."""
    H, T, partition, grid = _reference_instance("corank-one", 3)
    s, eye = 1e300, np.eye(3)
    pairs = [build_pair(s * H - s * lam * eye, s * T - s * lam * eye, partition) for lam in grid[20:23]]
    for pair in pairs[:2]:
        with pytest.raises(NonFiniteMatrixError, match="^F has"):
            feshbach_map(pair)
    data = feshbach_map(pairs[2])
    assert all(np.isfinite(M).all() for M in (data.F, data.Q, data.Q_sharp))
    with pytest.raises(NonFiniteMatrixError):
        op_norm(data.F)
    with pytest.raises(NonFiniteMatrixError):
        verify_basics(pairs[2], data)


def test_non_finite_reduction_stage_is_typed():
    """The same three points, reduced in one stage: the effective operator
    overflows at the first two, which raise ReductionStageError with a
    NonFiniteMatrixError cause, and is finite at the third."""
    H, T, partition, grid = _reference_instance("corank-one", 3)
    s, eye = 1e300, np.eye(3)
    for lam in grid[20:22]:
        with pytest.raises(ReductionStageError, match="NaN or Inf") as err:
            iterated_reduction(s * H - s * lam * eye, s * T - s * lam * eye, [partition])
        assert err.value.stage == 0
        assert isinstance(err.value.cause, NonFiniteMatrixError)
    [(stage, m)] = iterated_reduction(s * H - s * grid[22] * eye, s * T - s * grid[22] * eye, [partition])
    assert m == partition.ran_chi.dim and np.isfinite(stage).all()


class TestIteratedReduction:
    @staticmethod
    def _diag_dominant(rng, n):
        H = 6.0 * np.diag(rng.uniform(1.0, 2.0, n)).astype(complex) + crandn(rng, n, n)
        return H

    def test_single_sharp_stage_is_schur(self):
        rng = np.random.default_rng(79)
        H = self._diag_dominant(rng, 4)
        T = np.diag(np.diagonal(H))
        parts = halving_partitions(4, 1)
        stages = iterated_reduction(H, T, parts)
        assert len(stages) == 1
        eff, dim = stages[0]
        assert dim == 2
        # oracle: classic block Schur complement (T diagonal makes the
        # chibar-dressed block equal the plain lower-right block of H)
        schur = H[:2, :2] - H[:2, 2:] @ np.linalg.solve(H[2:, 2:], H[2:, :2])
        assert op_norm(eff - schur) <= 1e-10 * (1 + op_norm(schur))

    def test_two_stage_chain_preserves_invertibility(self):
        rng = np.random.default_rng(83)
        H = self._diag_dominant(rng, 8)
        T = np.diag(np.diagonal(H))
        stages = iterated_reduction(H, T, halving_partitions(8, 2))
        dims = [d for _, d in stages]
        assert dims == [4, 2]
        final, fdim = stages[-1]
        assert numerical_rank(H) == 8
        assert numerical_rank(final) == fdim  # invertible chain

    def test_singular_chain_detected(self):
        rng = np.random.default_rng(89)
        H = self._diag_dominant(rng, 8)
        T = np.diag(np.diagonal(H))
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        # plant ker H = span(e_0); the kernel direction stays inside the kept
        # block at every halving stage, so the final operator must be singular
        H = H @ (np.eye(8) - np.outer(v, v.conj()))
        assert numerical_rank(H) < 8
        # T stays diagonal (commutes with every coordinate projection) and
        # invertible; only H carries the kernel
        stages = iterated_reduction(H, T, halving_partitions(8, 2))
        final, fdim = stages[-1]
        assert numerical_rank(final) < fdim

    def test_singular_T_stage_invalid(self):
        H = np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex) + 0.1
        T = np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex)  # singular on ran(chibar)
        with pytest.raises(ReductionStageError) as err:
            iterated_reduction(H, T, halving_partitions(4, 1))
        assert err.value.stage == 0

    @staticmethod
    def _reference_reduction(H, T, partitions):
        """The reduction through the n x n F: B*FB and B*TB at each stage,
        B the basis of ran(chi)."""
        stages = []
        for partition in partitions:
            pair = build_pair(H, T, partition)
            B = column_space(partition.chi).basis
            H = B.conj().T @ feshbach_map(pair).F @ B
            T = B.conj().T @ pair.T @ B
            stages.append((H, B.shape[1]))
        return stages

    @staticmethod
    def _unitary_chain(rng, n, count):
        """T = U diag(t) U* and sharp partitions onto the first half of its
        rotated eigenbasis, halving the dimension `count` times."""
        U, t = random_unitary(rng, n), rng.uniform(1.0, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        T = (U * t) @ U.conj().T
        parts = []
        for _ in range(count):
            r = (U.shape[0] + 1) // 2
            P = U[:, :r] @ U[:, :r].conj().T
            parts.append(make_sharp(P))
            # T compressed to ran(P) is diagonal in the basis C*U of its first r columns
            U, t = column_space(P).basis.conj().T @ U[:, :r], t[:r]
        return T, parts

    @pytest.mark.parametrize("chain", ["unitary", "halving"])
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_stages_match_compressed_feshbach_map(self, chain, n):
        rng = np.random.default_rng(derived_seed(97, n))
        if chain == "unitary":
            T, parts = self._unitary_chain(rng, n, 2)
            H = T + 0.1 * crandn(rng, n, n) / np.sqrt(n)
        else:
            H = self._diag_dominant(rng, n)
            T, parts = np.diag(np.diagonal(H)), halving_partitions(n, 2)
        stages = iterated_reduction(H, T, parts)
        reference = self._reference_reduction(H, T, parts)
        assert [d for _, d in stages] == [d for _, d in reference]
        for (got, _), (want, _) in zip(stages, reference):
            assert op_norm(got - want) <= 1e-12 * (1 + op_norm(want))

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_stages_are_the_compressed_map_of_ran_chi(self, n):
        # bitwise: each stage reads ran(chi) from the column space of chi
        H = self._diag_dominant(np.random.default_rng(derived_seed(101, n)), n)
        T, parts = np.diag(np.diagonal(H)), halving_partitions(n, 2)
        stages = iterated_reduction(H, T, parts)
        for (got, m), partition in zip(stages, parts):
            pair = build_pair(H, T, partition)
            C = column_space(partition.chi).basis
            F0, L, R = _compressed_map(pair.T, pair.W, partition)
            H, T = F0 - L @ np.linalg.solve(pair.K, R), C.conj().T @ pair.T @ C
            assert m == C.shape[1] and np.array_equal(got, H)

    @pytest.mark.parametrize("form", OVERLAP_FORMS)
    @pytest.mark.parametrize("n", [3, 8, 32])
    def test_overlap_stage_is_the_compressed_map(self, form, n):
        # bitwise the pair's compressed map, of dimension m = dim ran(chi) < n,
        # and within 1e-12 of the reduction through the n x n F
        H, T, partition = overlap_instance(form, n, derived_seed(103, n), 0.3)
        [(got, m)] = iterated_reduction(H, T, [partition])
        pair = build_pair(H, T, partition)
        C = column_space(partition.chi).basis
        F0, L, R = _compressed_map(pair.T, pair.W, partition)
        assert m == C.shape[1] < n
        assert np.array_equal(got, F0 - L @ np.linalg.solve(pair.K, R))
        [(want, _)] = self._reference_reduction(H, T, [partition])
        assert op_norm(got - want) <= 1e-12 * (1 + op_norm(want))

    def test_partition_dim_mismatch_rejected(self):
        # the second halving partition is for dim 4, but stage 0 leaves dim 2
        H = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(ReductionStageError) as err:
            iterated_reduction(H, H, halving_partitions(4, 1) * 2)
        assert err.value.stage == 1

    def test_non_proper_subspace_rejected(self):
        part = validate_partition(np.eye(2), np.zeros((2, 2)) + np.diag([1e-6, 1e-6]))
        # chi = identity: ran(chi) is the full space, not a proper subspace
        H = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(ReductionStageError):
            iterated_reduction(H, H, [part])
