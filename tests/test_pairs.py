import numpy as np
import pytest

from smoothschur import (
    BlockInvertibilityError,
    CommutationError,
    ContractionError,
    FeshbachData,
    SmoothSchurError,
    Tolerances,
    build_pair,
    column_space,
    feshbach_map,
    make_sharp,
    neumann_inverse,
    op_norm,
    restricted_inverse,
    restricted_map,
    spectral_scan,
    sufficient_conditions,
    validate_partition,
    verify_alt_remark,
    verify_basics,
    verify_resolvent,
    worked_2x2,
)
from smoothschur.instances import InstanceSpec, _well_conditioned, derived_seed, generate
from smoothschur.errors import SubspaceLeakError
from smoothschur.operator_core import BOUND_NOTE, rel_threshold

from conftest import KINDS, crandn


@pytest.fixture
def worked_pair():
    inst = worked_2x2()
    return build_pair(inst.H, inst.T, inst.partition)


class TestBuildPair:
    def test_worked_2x2_fields(self, worked_pair):
        pair = worked_pair
        assert np.allclose(pair.W, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(pair.chi @ pair.W @ pair.chi, np.zeros((2, 2)))
        assert np.allclose(pair.H_chibar, np.diag([2.0, 3.0]))
        assert np.allclose(pair.H_chibar_inv, np.diag([0.0, 1.0 / 3.0]))
        assert pair.evidence.passed

    def test_zero_perturbation(self):
        part = make_sharp(np.diag([1.0, 1.0, 0.0]))
        T = np.diag([1.0, 2.0, 3.0]).astype(complex)
        pair = build_pair(T, T, part)
        assert op_norm(pair.W) == 0.0
        assert op_norm(pair.chi @ pair.W @ pair.chi) == 0.0
        assert op_norm(pair.chibar @ pair.W @ pair.chibar) == 0.0

    def test_block_evidence_records_margins(self, worked_pair):
        # ran(chibar) = e2: T and H_chibar are both 3 there, with no leak
        ev = worked_pair.evidence
        for label in ("T", "H_chibar"):
            leak = ev[f"pair/{label}_block_leak"]
            assert leak.residual == 0.0 and leak.threshold == pytest.approx(3e-9)
            rank = ev[f"pair/{label}_block_rank_cutoff"]
            assert rank.threshold == pytest.approx(3.0)  # smallest sv of the 1x1 block
            assert rank.residual == pytest.approx(3e-10)  # rank_rel * 3 * 1
            assert leak.passed and rank.passed

    def test_inverses_built_only_when_read(self, worked_pair):
        feshbach_map(worked_pair)
        assert "T_inv_bar" not in vars(worked_pair)
        assert "H_chibar_inv" not in vars(worked_pair)
        assert worked_pair.T_inv_bar is worked_pair.T_inv_bar

    @pytest.mark.parametrize("kind", ["sharp", "smooth", "nonselfadjoint"])
    def test_ran_chi_is_column_space_of_chi(self, kind):
        inst = generate(InstanceSpec(dim=8, partition_kind=kind, seed=derived_seed(43, 8)))
        pair = build_pair(inst.H, inst.T, inst.partition)
        assert np.array_equal(pair.ran_chi.basis, column_space(pair.chi).basis)

    @pytest.mark.parametrize("kind", ["sharp", "smooth", "nonselfadjoint"])
    def test_pair_evidence_has_no_placeholder(self, kind):
        # a placeholder such as 0 <= 1 stays put when (H, T) is rescaled;
        # every pair/ entry is decided against a threshold that scales with it
        inst = generate(InstanceSpec(dim=8, partition_kind=kind, seed=derived_seed(47, 8)))
        base = build_pair(inst.H, inst.T, inst.partition).evidence
        scaled = build_pair(4 * inst.H, 4 * inst.T, inst.partition).evidence
        entries = [e for e in base if e.label.startswith("pair/")]
        assert len(entries) == 6
        for entry in entries:
            assert scaled[entry.label].threshold == pytest.approx(4 * entry.threshold, rel=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_svs_are_the_rank_tests_values(self, kind):
        # _well_conditioned reads these instead of taking each block's SVD again
        for i in range(4):
            spec = InstanceSpec(dim=3 + 5 * i, partition_kind=kind, perturbation_scale=0.45,
                                seed=derived_seed(79, i))
            inst = generate(spec)
            pair = build_pair(inst.H, inst.T, inst.partition)
            for label, block in (("T", pair.T_block), ("H_chibar", pair.K)):
                s = np.linalg.svd(block, compute_uv=False)
                assert pair.block_svs[label] == (s[-1], s[0])
                assert pair.evidence[f"pair/{label}_block_rank_cutoff"].threshold == s[-1]
            assert _well_conditioned(pair)  # generate keeps only such draws
        # a chibar block with smallest sv 1e-5 of its largest passes the rank
        # test but not the generator's conditioning margin
        T = np.diag([1.0, 1e-5, 1.0]).astype(complex)
        pair = build_pair(T, T, make_sharp(np.diag([1.0, 0.0, 0.0])))
        assert pair.block_svs["T"] == (1e-5, 1.0) and not _well_conditioned(pair)

    def test_t_singular_on_ran_chibar(self):
        part = validate_partition(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        T = np.diag([1.0, 0.0]).astype(complex)  # vanishes on ran(chibar)
        with pytest.raises(BlockInvertibilityError):
            build_pair(T + 0.0, T, part)

    def test_empty_ran_chibar(self):
        # rank_rel * n >= 1 puts every singular value of chibar at or below the cutoff
        inst = worked_2x2()
        with pytest.raises(BlockInvertibilityError, match="numerically empty"):
            build_pair(inst.H, inst.T, inst.partition, Tolerances(rank_rel=10))

    def test_noncommuting_T_rejected(self):
        part = validate_partition(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        T = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(CommutationError):
            build_pair(T, T, part)


class TestFeshbachMap:
    def test_zero_w_collapses(self):
        part = make_sharp(np.diag([1.0, 0.0, 0.0]))
        T = np.diag([2.0, 1.0, -1.0]).astype(complex)
        data = feshbach_map(build_pair(T, T, part))
        assert np.allclose(data.F, T)
        assert np.allclose(data.Q, part.chi)
        assert np.allclose(data.Q_sharp, part.chi)

    def test_worked_2x2_values(self, worked_pair):
        data = feshbach_map(worked_pair)
        assert np.allclose(data.F, np.diag([5.0 / 3.0, 3.0]))
        assert np.allclose(data.Q, [[1.0, 0.0], [-1.0 / 3.0, 0.0]])
        assert np.allclose(data.Q_sharp, [[1.0, -1.0 / 3.0], [0.0, 0.0]])

    def test_sharp_case_equals_schur_complement(self):
        # oracle: block Schur complement computed in projection coordinates
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n))
            Q, _ = np.linalg.qr(crandn(rng, n, n))
            B, Bbar = Q[:, :r], Q[:, r:]
            P = B @ B.conj().T
            part = make_sharp(P)
            t = rng.uniform(1, 2, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            T = (Q * t) @ Q.conj().T
            H = T + 0.3 * crandn(rng, n, n)
            pair = build_pair(H, T, part)
            data = feshbach_map(pair)
            H11 = B.conj().T @ H @ B
            H12 = B.conj().T @ H @ Bbar
            H21 = Bbar.conj().T @ H @ B
            H22 = Bbar.conj().T @ H @ Bbar
            schur = H11 - H12 @ np.linalg.solve(H22, H21)
            compressed = B.conj().T @ data.F @ B
            assert op_norm(compressed - schur) <= 1e-10 * (1 + op_norm(schur))

    def test_determinism(self, worked_pair):
        d1 = feshbach_map(worked_pair)
        d2 = feshbach_map(worked_pair)
        assert np.array_equal(d1.F, d2.F)
        assert np.array_equal(d1.Q, d2.Q)
        assert np.array_equal(d1.Q_sharp, d2.Q_sharp)


class TestSufficientConditions:
    def test_zero_w(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 3.0]).astype(complex)
        rep = sufficient_conditions(build_pair(T, T, part))
        assert rep["sufficient/contraction_left"].residual == 0.0
        assert rep["sufficient/contraction_right"].residual == 0.0
        assert rep.passed

    def test_worked_2x2_kills_chibar_block(self, worked_pair):
        rep = sufficient_conditions(worked_pair)
        assert rep["sufficient/contraction_left"].residual == pytest.approx(0.0, abs=1e-15)

    def test_large_w_fails_but_pair_valid(self):
        # chibar W chibar nonzero with norm driving the contraction past 1,
        # while H_chibar stays invertible: sufficient, not necessary
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 2.0]).astype(complex)
        W = np.diag([0.0, 3.0]).astype(complex)
        pair = build_pair(T + W, T, part)
        rep = sufficient_conditions(pair)
        assert rep["sufficient/contraction_left"].residual == pytest.approx(1.5)
        assert not rep["sufficient/contraction_left"].passed
        assert pair.evidence.passed


class TestNeumannInverse:
    def test_zero_w_single_term(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 3.0]).astype(complex)
        pair = build_pair(T, T, part)
        res = neumann_inverse(pair)
        assert res.terms_used == 1
        assert not res.truncated
        assert np.allclose(res.approx_inv, pair.T_inv_bar)
        assert res.residual < 1e-14

    def test_agrees_with_direct_inverse(self):
        for i in range(10):
            spec = InstanceSpec(
                dim=4 + i % 6,
                partition_kind=("sharp", "smooth", "nonselfadjoint")[i % 3],
                perturbation_scale=0.05,
                seed=derived_seed(31, i),
            )
            inst = generate(spec)
            pair = build_pair(inst.H, inst.T, inst.partition)
            q = op_norm(pair.chibar @ pair.W @ pair.T_inv_bar @ pair.chibar)
            assert q < 1
            res = neumann_inverse(pair)
            rel = op_norm(res.approx_inv - pair.H_chibar_inv) / (1 + op_norm(pair.H_chibar_inv))
            assert rel <= 1e-10
            bound = int(np.ceil(np.log(1e-12) / np.log(q))) + 1 if q > 0 else 1
            assert res.terms_used <= bound + 1

    def test_not_contractive(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 2.0]).astype(complex)
        W = np.diag([0.0, 3.0]).astype(complex)  # contraction norm 1.5
        pair = build_pair(T + W, T, part)
        with pytest.raises(ContractionError):
            neumann_inverse(pair)

    def test_truncation_flag(self):
        part = make_sharp(np.diag([1.0, 0.0]))
        T = np.diag([2.0, 2.0]).astype(complex)
        W = np.diag([0.0, 1.8]).astype(complex)  # contraction norm 0.9, slow series
        pair = build_pair(T + W, T, part)
        res = neumann_inverse(pair, max_terms=3)
        assert res.truncated
        assert res.terms_used == 3


def test_zero_extension_identity_on_ran_chibar():
    # chibar-extended inverse acts as identity on ran(chibar) after H_chibar
    for i in range(6):
        spec = InstanceSpec(
            dim=5, partition_kind=("sharp", "smooth", "nonselfadjoint")[i % 3],
            perturbation_scale=0.3, seed=derived_seed(37, i),
        )
        inst = generate(spec)
        pair = build_pair(inst.H, inst.T, inst.partition)
        B = pair.ran_chibar.basis
        assert op_norm(pair.H_chibar_inv @ pair.H_chibar @ B - B) <= 1e-9 * (
            1 + op_norm(pair.H_chibar)
        )


def _reference_map(pair):
    """F, Q, Q_sharp and the two zero-extended inverses from the literal
    formulas, with the inverses taken from restricted_inverse."""
    chi, chibar, W = pair.chi, pair.chibar, pair.W
    G = restricted_inverse(pair.H_chibar, pair.ran_chibar)
    T_inv = restricted_inverse(pair.T, pair.ran_chibar)
    cross = chibar @ G @ chibar @ W @ chi
    F = pair.T + chi @ W @ chi - chi @ W @ cross
    Q_sharp = chi - chi @ W @ chibar @ G @ chibar
    return FeshbachData(F=F, Q=chi - cross, Q_sharp=Q_sharp), G, T_inv


@pytest.mark.parametrize("kind", ["sharp", "smooth", "nonselfadjoint"])
@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("scale", [0.0, 0.1, 0.45])
def test_block_solves_match_inverse_formulas(kind, n, scale):
    spec = InstanceSpec(dim=n, partition_kind=kind, perturbation_scale=scale, seed=derived_seed(41, n))
    inst = generate(spec)
    pair = build_pair(inst.H, inst.T, inst.partition)
    data = feshbach_map(pair)
    ref, G, T_inv = _reference_map(pair)
    for got, want in (
        (data.F, ref.F),
        (data.Q, ref.Q),
        (data.Q_sharp, ref.Q_sharp),
        (pair.H_chibar_inv, G),
        (pair.T_inv_bar, T_inv),
    ):
        assert op_norm(got - want) <= 1e-12 * (1 + op_norm(want))

    def verdicts(d):
        reports = (verify_basics(pair, d), verify_resolvent(pair), verify_alt_remark(pair, d))
        return [(e.label, e.passed) for r in reports for e in r]

    assert verdicts(data) == verdicts(ref)
    assert all(passed for _, passed in verdicts(data))


def _near_gate_pairs():
    """(H, T, partition): pairs whose T is coupled across the partition by
    about 1e-8 relative to ||T||, so each commutation residual, and each leak
    off ran(chibar) of a sharp partition, is about 1e-8 ||T||.  The first
    two are hand-made 4 x 4 pairs: a diagonal smooth partition, whose
    ran(chibar) is everything so nothing leaks, and a sharp one."""
    rng = np.random.default_rng(71)
    E = crandn(rng, 4, 4)
    E *= 1e-8 / op_norm(E)
    T = np.diag([1.0, 2.0 + 0.5j, -1.5, 3.0]) + E
    # H_chibar leaks as much as T does, and the -2.5 inside ran(chibar)
    # makes ||H_chibar|| smaller than ||T||, so its leak gate can bind
    H = T + 0.5 * crandn(rng, 4, 4) + np.diag([0.0, 0.0, 0.0, -2.5])
    theta = np.array([0.3, 0.7, 1.0, 1.3])
    pairs = [
        (H, T, validate_partition(np.diag(np.cos(theta)), np.diag(np.sin(theta)))),
        (H, T, make_sharp(np.diag([1.0, 1.0, 0.0, 0.0]))),
    ]
    for i, kind in enumerate(KINDS):
        inst = generate(InstanceSpec(dim=8, partition_kind=kind, perturbation_scale=0.45, seed=derived_seed(73, i)))
        E = crandn(rng, 8, 8)
        E *= 1e-8 * op_norm(inst.T) / op_norm(E)
        pairs.append((inst.H + E, inst.T + E, inst.partition))
    return pairs


def _exact_gates(H, T, partition):
    """(label, residual, factor norm product) of each commutation and leak
    gate of build_pair, from exact norms: the gate passes when residual <=
    rel_threshold of the product."""
    chi, chibar = partition.chi, partition.chibar
    V = column_space(chibar)
    H_chibar = T + chibar @ (H - T) @ chibar
    gates = [
        (f"pair/commutation_{label}_T", op_norm(c @ T - T @ c), op_norm(c) * op_norm(T))
        for label, c in (("chi", chi), ("chibar", chibar))
    ]
    gates += [
        (f"pair/{label}_block_leak", restricted_map(A, V)[1], op_norm(A))
        for label, A in (("T", T), ("H_chibar", H_chibar))
    ]
    return gates


def _exact_outcome(H, T, partition, tol):
    """What _outcome gives by _exact_gates alone, for pairs whose chibar
    blocks clear their rank cutoffs: the error types of the first gate that
    fails, or None when all pass."""
    for label, residual, scale in _exact_gates(H, T, partition):
        if residual > rel_threshold(tol, scale):
            if label.startswith("pair/commutation_"):
                return CommutationError, type(None)
            return BlockInvertibilityError, SubspaceLeakError
    return None


def _outcome(H, T, partition, tol):
    """build_pair's evidence by label, or the types of the error it raised
    and of that error's cause."""
    try:
        return {e.label: e for e in build_pair(H, T, partition, tol).evidence}
    except SmoothSchurError as exc:
        return type(exc), type(exc.__cause__)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
def test_pair_gates_near_the_threshold_match_exact(exact_norms, ratio):
    """With residual_rel set so that one gate's exact residual is ratio times
    its threshold, the bracket often straddles the threshold and the exact
    norms decide; every verdict and every error is the exact path's."""
    fallbacks = 0
    for H, T, partition in _near_gate_pairs():
        for label, residual, scale in _exact_gates(H, T, partition):
            if residual < 1e-10:  # its threshold would sit on ABS_FLOOR
                continue
            tol = Tolerances(residual_rel=residual / (ratio * scale))
            got = _outcome(H, T, partition, tol)
            want = exact_norms(_outcome, H, T, partition, tol)
            expected = _exact_outcome(H, T, partition, tol)
            if ratio > 1:
                assert expected is not None
            if expected is not None:
                assert got == want == expected, label
                continue
            assert list(got) == list(want)
            for entry_label, x in want.items():
                b = got[entry_label]
                if not entry_label.startswith(("pair/commutation_", "pair/T_block_leak", "pair/H_chibar_block_leak")):
                    assert b == x
                    continue
                assert b.passed == x.passed and x.note == ""
                assert b.residual >= x.residual and b.threshold <= x.threshold
                if b.note == "":
                    assert (b.residual, b.threshold) == (x.residual, x.threshold)
                    fallbacks += 1
                else:
                    assert b.note == BOUND_NOTE
    if 0.5 <= ratio < 1:
        assert fallbacks > 0


def test_scan_validity_matches_build_pair_near_the_gates():
    """At shifts where a commutation residual or leak sits within 10x of its
    threshold rel_threshold(||c||, ||T - lam||), the scan's exact gates and
    build_pair's bracketed ones give the same validity."""
    near = 0
    for H, T, partition in _near_gate_pairs()[:2]:
        eye = np.eye(H.shape[0])
        magnitudes = np.logspace(-1, 3, 41)
        grid = list(magnitudes) + list(-magnitudes) + list(1j * magnitudes[::4])
        result = spectral_scan(H, T, partition, grid)
        for lam, valid in zip(grid, result.pair_valid):
            gates = _exact_gates(H - lam * eye, T - lam * eye, partition)
            ratios = [r / (1e-9 * scale) for _, r, scale in gates if r > 0]
            near += any(0.1 <= q <= 10 for q in ratios)
            shifted = (H - lam * eye, T - lam * eye, partition, Tolerances())
            assert valid == isinstance(_outcome(*shifted), dict), lam
            if _exact_outcome(*shifted) is not None:
                assert not valid
        assert True in result.pair_valid and False in result.pair_valid
    assert near >= 50
