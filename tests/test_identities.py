import numpy as np
import pytest

from smoothschur import operator_core
from smoothschur import (
    Tolerances,
    build_pair,
    feshbach_map,
    kernel_correspondence,
    make_sharp,
    sufficient_conditions,
    validate_partition,
    verify_alt_remark,
    verify_basics,
    verify_resolvent,
    worked_2x2,
)
from smoothschur.instances import InstanceSpec, derived_seed, generate, generate_singular
from smoothschur.operator_core import BOUND_NOTE

KINDS = ("sharp", "smooth", "nonselfadjoint")


def _random_pair(i, base_seed=41, scale=0.3):
    spec = InstanceSpec(
        dim=2 + i % 19,
        partition_kind=KINDS[i % 3],
        perturbation_scale=scale,
        seed=derived_seed(base_seed, i),
    )
    inst = generate(spec)
    return build_pair(inst.H, inst.T, inst.partition)


def test_zero_w_all_residuals_vanish():
    part = make_sharp(np.diag([1.0, 0.0, 0.0]))
    T = np.diag([1.0, 2.0, -1.5]).astype(complex)
    pair = build_pair(T, T, part)
    data = feshbach_map(pair)
    for rep in (verify_basics(pair, data), verify_resolvent(pair), verify_alt_remark(pair, data)):
        assert rep.max_residual <= 1e-14


def test_worked_2x2_hand_check():
    inst = worked_2x2()
    pair = build_pair(inst.H, inst.T, inst.partition)
    data = feshbach_map(pair)
    # hand check of the intertwining: H Q = [[5/3,0],[0,0]] = chi F
    assert np.allclose(pair.H @ data.Q, [[5.0 / 3.0, 0.0], [0.0, 0.0]])
    assert np.allclose(pair.chi @ data.F, [[5.0 / 3.0, 0.0], [0.0, 0.0]])
    rep = verify_basics(pair, data)
    assert rep.max_residual <= 1e-14


def test_resolvent_zero_when_w_chibar_zero():
    inst = worked_2x2()
    pair = build_pair(inst.H, inst.T, inst.partition)
    assert np.count_nonzero(pair.W) > 0
    assert np.allclose(pair.chibar @ pair.W @ pair.chibar, np.zeros((2, 2)))
    rep = verify_resolvent(pair)
    assert rep.max_residual <= 1e-15


def test_randomized_all_kinds():
    for i in range(150):
        pair = _random_pair(i)
        data = feshbach_map(pair)
        assert verify_basics(pair, data).passed
        assert verify_resolvent(pair).passed
        assert verify_alt_remark(pair, data).passed


def test_alt_range_containment_sharp():
    for i in range(10):
        spec = InstanceSpec(dim=5, partition_kind="sharp", perturbation_scale=0.3,
                            seed=derived_seed(43, i))
        inst = generate(spec)
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        rep = verify_alt_remark(pair, data)
        assert rep["alt/range_containment"].residual <= 1e-12


def test_scaling_invariance():
    base = _random_pair(3)
    base_data = feshbach_map(base)
    base_residuals = {e.label: e.residual for e in verify_basics(base, base_data)}
    part = validate_partition(base.chi, base.chibar)
    for c in (10.0, 1e-3, 1j):
        pair = build_pair(c * base.H, c * base.T, part)
        data = feshbach_map(pair)
        rep = verify_basics(pair, data)
        for entry in rep:
            assert entry.passed
            assert abs(entry.residual - base_residuals[entry.label]) <= 1e-12


def _verdicts(H, T, partition):
    """Every verdict of the check pipeline on (H, T)."""
    pair = build_pair(H, T, partition)
    data = feshbach_map(pair)
    reports = (
        pair.evidence,
        sufficient_conditions(pair),
        verify_basics(pair, data),
        verify_resolvent(pair),
        verify_alt_remark(pair, data),
    )
    kc = kernel_correspondence(pair, data)
    return [(e.label, e.passed) for r in reports for e in r] + [(kc.dim_ker_H, kc.dim_ker_F, kc.passed)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("scale", [0.0, 0.1, 0.45])
def test_verdicts_independent_of_operator_scale(kind, n, scale):
    spec = InstanceSpec(dim=n, partition_kind=kind, perturbation_scale=scale, seed=derived_seed(59, n))
    inst = generate(spec)
    base = _verdicts(inst.H, inst.T, inst.partition)
    for s in (1e-8, 1e8):
        assert _verdicts(s * inst.H, s * inst.T, inst.partition) == base


def test_adjoint_symmetry():
    # adjoint system swaps left and right identities
    mirror = {
        "basics/left_annihilator": "basics/right_annihilator",
        "basics/right_annihilator": "basics/left_annihilator",
        "basics/left_effective": "basics/right_effective",
        "basics/right_effective": "basics/left_effective",
        "basics/intertwine_left": "basics/intertwine_right",
        "basics/intertwine_right": "basics/intertwine_left",
    }
    for i in range(12):
        pair = _random_pair(i, base_seed=47)
        data = feshbach_map(pair)
        residuals = {e.label: e.residual for e in verify_basics(pair, data)}

        part_adj = validate_partition(pair.chi.conj().T, pair.chibar.conj().T)
        pair_adj = build_pair(pair.H.conj().T, pair.T.conj().T, part_adj)
        data_adj = feshbach_map(pair_adj)
        rep_adj = verify_basics(pair_adj, data_adj)
        for entry in rep_adj:
            assert entry.passed
            assert abs(entry.residual - residuals[mirror[entry.label]]) <= 1e-12


def test_basics_pass_whenever_pair_builds():
    # the identities are exact algebra: any pair that validates must pass
    failures = []
    for i in range(60):
        pair = _random_pair(i, base_seed=53, scale=0.45)
        data = feshbach_map(pair)
        if not verify_basics(pair, data).passed:
            failures.append(i)
    assert not failures


def _identity_reports(pair, tol=operator_core.DEFAULT_TOL):
    data = feshbach_map(pair)
    return [verify_basics(pair, data, tol), verify_resolvent(pair, tol), verify_alt_remark(pair, data, tol)]


def _mixed_pairs():
    """Generated pairs of every kind at several sizes and scales, and planted kernels."""
    pairs = []
    for i, kind in enumerate(KINDS * 4):
        n = (2, 5, 16, 40)[i // 3]
        spec = InstanceSpec(dim=n, partition_kind=kind, perturbation_scale=(0.0, 0.1, 0.45)[i % 3],
                            seed=derived_seed(67, i))
        inst = generate(spec) if i % 4 else generate_singular(spec, 1)
        pairs.append(build_pair(inst.H, inst.T, inst.partition))
    return pairs


def test_recorded_residuals_bound_the_exact_ones(exact_norms):
    for pair in _mixed_pairs():
        bounded = [e for rep in _identity_reports(pair) for e in rep]
        exact = [e for rep in exact_norms(_identity_reports, pair) for e in rep]
        assert [e.label for e in bounded] == [e.label for e in exact]
        for b, x in zip(bounded, exact):
            assert b.residual >= x.residual, (b, x)
            assert b.threshold == x.threshold == 1e-9
            assert b.passed == x.passed
            assert b.note in (BOUND_NOTE, "") and x.note == ""


def test_partition_evidence_bounds_the_exact_one(exact_norms):
    for pair in _mixed_pairs():
        chi, chibar = pair.chi, pair.chibar
        bounded = validate_partition(chi, chibar).evidence
        exact = exact_norms(validate_partition, chi, chibar).evidence
        for b, x in zip(bounded, exact):
            assert b.label == x.label
            assert b.residual >= x.residual and b.threshold <= x.threshold and b.passed == x.passed


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
def test_identity_verdicts_near_the_gate_match_exact(exact_norms, ratio):
    """With residual_rel set within 10x of each exact residual, the bracket
    often straddles the gate and the exact fallback decides; every verdict
    is the exact one."""
    fallbacks = 0
    for pair in _mixed_pairs()[1::2]:
        exact = [e.residual for rep in exact_norms(_identity_reports, pair) for e in rep]
        for target in exact:
            if target == 0.0:
                continue
            tol = Tolerances(residual_rel=target * ratio)
            bounded = [e for rep in _identity_reports(pair, tol) for e in rep]
            assert [e.passed for e in bounded] == [r <= tol.residual_rel for r in exact]
            assert all(e.threshold == tol.residual_rel for e in bounded)
            fallbacks += sum(e.note == "" for e in bounded)
    if 0.5 <= ratio <= 2.0:
        assert fallbacks > 0
