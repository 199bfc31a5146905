import re

import numpy as np
import pytest

from smoothschur import instances as instances_module
from smoothschur import partition as partition_module
from smoothschur import (
    DimensionMismatchError,
    InstanceSpecError,
    NotDiagonalizableError,
    NotHermitianError,
    NotIdempotentError,
    PartitionError,
    Tolerances,
    make_nonselfadjoint,
    make_sharp,
    make_smooth_selfadjoint,
    matrix_function,
    op_norm,
    build_pair,
    column_space,
    smoothstep,
    spectral_scan,
    validate_partition,
)

from smoothschur.instances import InstanceSpec, derived_seed, generate, generate_singular

from conftest import KINDS, MIXED_FORMS, OVERLAP_FORMS, crandn, overlap_instance


class TestValidatePartition:
    def test_projection_pair(self):
        p = validate_partition(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert p.evidence.passed

    def test_complex_diagonal_identity(self):
        # 2^2 + (i sqrt(3))^2 = 1 and 0 + 1 = 1; diagonals commute
        chi = np.diag([2.0, 0.0]).astype(complex)
        chibar = np.diag([1j * np.sqrt(3), 1.0])
        p = validate_partition(chi, chibar)
        assert p.evidence.passed

    def test_unity_violation(self):
        with pytest.raises(PartitionError, match="unity"):
            validate_partition(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))

    def test_zero_chi_rejected(self):
        with pytest.raises(PartitionError, match="zero"):
            validate_partition(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize(
        "chi, chibar, name",
        [(np.eye(2), np.zeros((2, 2)), "chibar"), (np.zeros((2, 2)), np.zeros((2, 2)), "chi")],
        ids=["chibar", "both"],
    )
    def test_zero_operator_named(self, chi, chibar, name):
        # chi is checked first, so where both are zero the message names chi
        with pytest.raises(PartitionError) as exc:
            validate_partition(chi, chibar)
        assert str(exc.value) == f"{name} is (numerically) the zero operator"

    @pytest.mark.parametrize(
        "chi, chibar", [(np.ones((2, 3)), np.ones((2, 3))), (np.eye(2), np.eye(3))], ids=["non-square", "unequal"]
    )
    def test_shape_mismatch_rejected(self, chi, chibar):
        with pytest.raises(DimensionMismatchError, match="partition operators must be square and equal-sized"):
            validate_partition(chi, chibar)

    def test_zero_norm_is_inclusive(self):
        # ||chi|| at ZERO_NORM counts as zero, and twice it does not
        zero = partition_module.ZERO_NORM
        with pytest.raises(PartitionError, match="chi is"):
            validate_partition(np.diag([zero, 0.0]), np.eye(2))
        assert validate_partition(np.diag([2 * zero, 0.0]), np.eye(2)).evidence.passed

    def test_noncommuting_rejected(self):
        chi = np.array([[0.5, 0.5], [0.5, 0.5]])
        chibar_good = np.eye(2) - chi
        bad = chibar_good + 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(PartitionError):
            validate_partition(chi, bad)


class TestMakeSharp:
    def test_diagonal_projection(self):
        p = make_sharp(np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(p.chibar, np.diag([0.0, 0.0, 1.0]))

    def test_rank_one_projector(self):
        P = 0.5 * np.ones((2, 2))
        assert op_norm(P @ P - P) < 1e-15  # idempotent by direct arithmetic
        p = make_sharp(P)
        assert np.allclose(p.chibar, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotentError):
            make_sharp(np.diag([1.0, 0.5]))

    def test_sharp_extras(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(crandn(rng, 5, 5))
        P = Q[:, :2] @ Q[:, :2].conj().T
        p = make_sharp(P)
        assert op_norm(p.chi @ p.chi - p.chi) < 1e-12
        assert op_norm(p.chi @ p.chibar) < 1e-12


class TestMakeSmooth:
    def test_endpoint_values(self):
        f = lambda w: smoothstep(np.real(w))
        p = make_smooth_selfadjoint(np.diag([0.0, 1.0]), f)
        assert np.allclose(p.chi, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(p.chibar, np.diag([0.0, 1.0]), atol=1e-14)

    def test_pythagorean_scalar(self):
        p = make_smooth_selfadjoint(np.array([[0.5]]), lambda w: 0.6 * np.ones_like(np.real(w)))
        assert p.chi == pytest.approx(np.array([[0.6]]))
        assert p.chibar == pytest.approx(np.array([[0.8]]))

    def test_degenerate_eigenvalue(self):
        # oracle: full eigen-decomposition functional calculus
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(crandn(rng, 4, 4))
        lam = np.array([0.3, 0.3, 0.3, 0.8])
        Hf = (Q * lam) @ Q.conj().T
        Hf = (Hf + Hf.conj().T) / 2
        f = lambda w: smoothstep(np.real(w))
        p = make_smooth_selfadjoint(Hf, f)
        w, v = np.linalg.eigh(Hf)
        oracle = (v * f(w)) @ v.conj().T
        assert op_norm(p.chi - oracle) < 1e-12

    def test_hermitian_and_bounded(self):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(crandn(rng, 6, 6))
        Hf = (Q * rng.uniform(0, 1, 6)) @ Q.conj().T
        Hf = (Hf + Hf.conj().T) / 2
        p = make_smooth_selfadjoint(Hf, lambda w: smoothstep(np.real(w)))
        assert op_norm(p.chi - p.chi.conj().T) < 1e-12
        evals = np.linalg.eigvalsh(p.chi)
        assert evals.min() >= -1e-12 and evals.max() <= 1 + 1e-12


class TestMakeNonselfadjoint:
    def test_zero_chi_rejected(self):
        with pytest.raises(PartitionError):
            make_nonselfadjoint(np.diag([0.0, 0.0]), lambda w: w)

    def test_hyperbolic_values(self):
        a, b = 0.7, -0.4
        p = make_nonselfadjoint(np.diag([a, b]), lambda w: 1j * w)
        expected_chi = np.diag([1j * np.sinh(a), 1j * np.sinh(b)])
        assert np.allclose(p.chi, expected_chi)
        assert op_norm(p.chi - p.chi.conj().T) > 0.1  # genuinely non-Hermitian

    def test_triangular_generator(self):
        A = np.array([[1.0, 1.0], [0.0, 2.0]])
        p = make_nonselfadjoint(A, lambda w: w)
        assert abs(p.chi[1, 0]) < 1e-12 and abs(p.chibar[1, 0]) < 1e-12
        unity = p.chi @ p.chi + p.chibar @ p.chibar - np.eye(2)
        assert op_norm(unity) < 1e-12

    def test_jordan_block_rejected(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective
        with pytest.raises(NotDiagonalizableError):
            make_nonselfadjoint(A, lambda w: w + 0.5)


class TestCommutingT:
    def test_identity_function(self):
        T = matrix_function(np.diag([0.0, 1.0]), lambda w: w)
        assert np.allclose(T, np.diag([0.0, 1.0]))

    def test_shift(self):
        gen = np.diag([0.2, 0.9])
        T = matrix_function(gen, lambda w: w - 0.5)
        assert np.allclose(T, gen - 0.5 * np.eye(2))

    def test_polynomial_commutes_with_partition(self):
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(crandn(rng, 5, 5))
        V = Q @ (np.eye(5) + 0.3 * crandn(rng, 5, 5) / 5)
        a = rng.uniform(0.3, 1.0, 5) + 0.05j * rng.uniform(-1, 1, 5)
        A = (V * a) @ np.linalg.inv(V)
        p = make_nonselfadjoint(A, lambda w: w)
        T = matrix_function(A, lambda w: w**2 + 1)
        # oracle: polynomial evaluated directly on the matrix
        assert op_norm(T - (A @ A + np.eye(5))) < 1e-9 * op_norm(T)
        for c in (p.chi, p.chibar):
            assert op_norm(c @ T - T @ c) <= 1e-9 * op_norm(c) * op_norm(T)


def test_matrix_function_hermitian_route():
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(crandn(rng, 4, 4))
    H = (Q * np.array([1.0, 2.0, 3.0, 4.0])) @ Q.conj().T
    H = (H + H.conj().T) / 2
    S = matrix_function(H, np.sqrt)
    assert op_norm(S @ S - H) < 1e-12 * op_norm(H)


def test_matrix_function_tests_hermitian_once(monkeypatch):
    calls = []
    hermitian_residual = partition_module._hermitian_residual

    def counting(A, tol):
        calls.append(A)
        return hermitian_residual(A, tol)

    monkeypatch.setattr(partition_module, "_hermitian_residual", counting)
    rng = np.random.default_rng(19)
    G = crandn(rng, 5, 5)
    for A in (G + G.conj().T, G):
        S = matrix_function(A, lambda w: w * w)
        assert op_norm(S - A @ A) < 1e-9 * op_norm(A) ** 2
    assert len(calls) == 2


@pytest.mark.parametrize(
    "build, error, message",
    [
        (make_smooth_selfadjoint, NotHermitianError, r"Hermitian residual \S+ > \S+"),
        (matrix_function, NotDiagonalizableError, r"eigenvector matrix condition number \S+ exceeds 1\.0e\+08"),
        (make_nonselfadjoint, NotDiagonalizableError, r"eigenvector matrix condition number \S+ exceeds 1\.0e\+08"),
    ],
)
def test_generator_errors_keep_their_messages(build, error, message):
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])  # neither Hermitian nor diagonalizable
    with pytest.raises(error) as exc:
        build(jordan, lambda w: 0.5 + 0 * w)
    assert re.fullmatch(message, str(exc.value))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"dim": 1}, "dim must be >= 2, got 1"),
        ({"dim": -3}, "dim must be >= 2, got -3"),
        ({"partition_kind": "bogus"}, "partition_kind must be one of .* got 'bogus'"),
    ],
    ids=["dim-1", "dim-negative", "unknown-kind"],
)
def test_bad_instance_spec_is_typed(fields, message):
    with pytest.raises(InstanceSpecError, match=message):
        InstanceSpec(**{"dim": 4, "partition_kind": "smooth", **fields})


@pytest.mark.parametrize("kernel_dim", [0, -1, 4, 5])
def test_planted_kernel_outside_the_range_is_typed(kernel_dim):
    spec = InstanceSpec(dim=4, partition_kind="smooth", seed=3)
    with pytest.raises(InstanceSpecError, match=rf"kernel_dim must be in \[1, dim\), got {kernel_dim}"):
        generate_singular(spec, kernel_dim)


@pytest.mark.parametrize(
    "constant, value, scale, kernel_dim, message",
    [
        ("_CONDITION_MARGIN", 2.0, 0.0, 0, "could not realize a well-conditioned instance for seed 3"),
        ("_CONDITION_MARGIN", 2.0, 0.1, 0, "could not realize a well-conditioned instance for seed 3"),
        ("_PLANT_BASE_MIN_SV", 1e3, 0.1, 1, "base instance too close to singular for kernel planting"),
        ("_PLANT_SURVIVOR_REL", 2.0, 0.1, 1, "could not plant a clean kernel of dim 1 for seed 3"),
    ],
    ids=["margin-unperturbed", "margin-redrawn", "plant-base", "plant-survivors"],
)
def test_generation_gives_up(monkeypatch, constant, value, scale, kernel_dim, message):
    # no chibar block clears a margin of 2, no H has smallest sv 1e3, and
    # no surviving sv is twice the largest: every draw is rejected
    monkeypatch.setattr(instances_module, constant, value)
    spec = InstanceSpec(dim=4, partition_kind="smooth", perturbation_scale=scale, seed=3)
    with pytest.raises(InstanceSpecError, match=re.escape(message)):
        generate_singular(spec, kernel_dim) if kernel_dim else generate(spec)


def test_generation_gives_up_when_every_pair_is_rejected():
    # at rank_rel 0.9 every chibar block is singular, and a sharp n = 4 H
    # of rank one leaves its 2 x 2 chibar block singular: build_pair raises
    # on every draw
    spec = InstanceSpec(dim=4, partition_kind="sharp", perturbation_scale=0.1, seed=3)
    with pytest.raises(InstanceSpecError, match="could not realize"):
        generate(spec, Tolerances(rank_rel=0.9))
    with pytest.raises(InstanceSpecError, match="could not plant a clean kernel of dim 3"):
        generate_singular(spec, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_generation_decomposes_each_generator_once(monkeypatch, kind):
    counts = dict.fromkeys(("eig", "eigh", "cond"), 0)
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    generate(InstanceSpec(dim=8, partition_kind=kind, perturbation_scale=0.1, seed=derived_seed(5, 8)))
    nonselfadjoint = kind == "nonselfadjoint"
    assert counts == {"eig": int(nonselfadjoint), "eigh": int(kind == "smooth"), "cond": int(nonselfadjoint)}


@pytest.mark.parametrize("kind", ["smooth", "nonselfadjoint"])
@pytest.mark.parametrize("n", [3, 8, 64])
def test_generated_operators_match_separate_function_calls(monkeypatch, kind, n):
    generators = []
    decompose = instances_module._decompose

    def recording(A, *args, **kwargs):
        generators.append(A)
        return decompose(A, *args, **kwargs)

    monkeypatch.setattr(instances_module, "_decompose", recording)
    inst = generate(InstanceSpec(dim=n, partition_kind=kind, perturbation_scale=0.1, seed=derived_seed(7, n)))
    (A,) = generators
    if kind == "smooth":
        fbar = lambda w: np.sqrt(np.clip(1.0 - smoothstep(w) ** 2, 0.0, None))  # noqa: E731
        chi = matrix_function(A, smoothstep)
        chibar = matrix_function(A, fbar)
        T = matrix_function(A, lambda w: w + 1.2 + 0.3j)
        public = make_smooth_selfadjoint(A, smoothstep)
    else:
        chi = matrix_function(A, np.sin)
        chibar = matrix_function(A, np.cos)
        T = matrix_function(A, lambda w: w + 1.2)
        public = make_nonselfadjoint(A, lambda w: w)
    for got, want in ((inst.partition.chi, chi), (inst.partition.chibar, chibar), (inst.T, T),
                      (public.chi, chi), (public.chibar, chibar)):
        assert np.array_equal(got, want)


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 1.0
    assert smoothstep(0.0) == 1.0
    assert smoothstep(1.0) == 0.0
    assert smoothstep(2.0) == 0.0
    assert smoothstep(0.5) == pytest.approx(0.5)


class TestRangeOwnership:
    """The partition takes ran(chi) and ran(chibar) once each, on first read,
    and every pair, scan and redraw on it reads the same Subspace."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """The matrices passed to the partition module's column_space."""
        taken = []

        def recording(M, tol):
            taken.append(M)
            return column_space(M, tol)

        monkeypatch.setattr(partition_module, "column_space", recording)
        return taken

    @pytest.mark.parametrize("kind", KINDS)
    def test_ranges_are_column_spaces_at_the_partition_tol(self, taken, kind):
        inst = generate(InstanceSpec(dim=8, partition_kind=kind, seed=derived_seed(23, 8)))
        tol = Tolerances(rank_rel=1e-9)
        taken.clear()  # generate's own pair read inst.partition's ran(chibar)
        partition = validate_partition(inst.partition.chi, inst.partition.chibar, tol)
        assert taken == []
        for _ in range(2):
            assert np.array_equal(partition.ran_chi.basis, column_space(partition.chi, tol).basis)
            assert np.array_equal(partition.ran_chibar.basis, column_space(partition.chibar, tol).basis)
        assert [M is partition.chi for M in taken] == [True, False]
        assert [M is partition.chibar for M in taken] == [False, True]

    def test_generate_singular_takes_one_chibar_range(self, taken, monkeypatch):
        built = []
        build = instances_module.build_pair

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(instances_module, "build_pair", counting)
        spec = InstanceSpec(dim=8, partition_kind="sharp", perturbation_scale=0.45, seed=20)
        inst = generate_singular(spec, 4)
        assert len(built) >= 3  # the base draw's pair and at least two more
        assert len(taken) == 1 and taken[0] is inst.partition.chibar

    def test_repeated_scans_take_no_range_svd(self, taken, monkeypatch):
        inst = generate(InstanceSpec(dim=8, partition_kind="nonselfadjoint", seed=derived_seed(29, 8)))
        grid = np.linspace(0.0, 3.0, 7) + 0.1j
        spectral_scan(inst.H, inst.T, inst.partition, grid)
        assert len(taken) == 2
        full_svds = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            full_svds.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        spectral_scan(inst.H, inst.T, inst.partition, grid)
        assert len(taken) == 2 and True not in full_svds

    @pytest.mark.parametrize("kind", KINDS)
    def test_full_ranges_take_no_full_svd(self, monkeypatch, kind):
        # smooth and nonselfadjoint ranges are the whole space, which the
        # singular values alone decide; a sharp range takes one full SVD
        inst = generate(InstanceSpec(dim=8, partition_kind=kind, seed=derived_seed(41, 8)))
        partition = validate_partition(inst.partition.chi, inst.partition.chibar)
        full_svds = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                full_svds.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        ranges = partition.ran_chi, partition.ran_chibar
        for M, V in zip((partition.chi, partition.chibar), ranges):
            assert sum(a is M for a in full_svds) == (kind == "sharp")
            assert V.is_identity == (kind != "sharp") == (V.dim == 8)

    @pytest.mark.parametrize("form", OVERLAP_FORMS)
    def test_pair_forwards_the_partitions_ranges(self, form):
        H, T, partition = overlap_instance(form, 8, derived_seed(31, 8))
        pair = build_pair(H, T, partition)
        assert pair.ran_chi is partition.ran_chi
        assert pair.ran_chibar is partition.ran_chibar


@pytest.mark.parametrize("form", OVERLAP_FORMS)
@pytest.mark.parametrize("n", [3, 8, 32])
def test_overlap_builder_reaches_the_overlapping_regime(form, n):
    # the regime of the smooth map: m < n, k < n and m + k > n
    _, _, partition = overlap_instance(form, n, derived_seed(37, n))
    m, k = partition.ran_chi.dim, partition.ran_chibar.dim
    assert m < n and k < n and m + k > n
    assert partition.evidence.passed


@pytest.mark.parametrize("form", MIXED_FORMS)
@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_mixed_builder_has_one_full_range(form, n):
    # one range is the whole space, with the identity basis; the other is proper
    _, _, partition = overlap_instance(form, n, derived_seed(37, n))
    full, proper = partition.ran_chi, partition.ran_chibar
    if form == "mixed-chibar-full":
        full, proper = proper, full
    assert full.is_identity and full.dim == n
    assert 0 < proper.dim < n and not proper.is_identity
