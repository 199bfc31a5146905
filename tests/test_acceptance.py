"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import numpy as np
import pytest

from smoothschur import (
    ContractionError,
    Subspace,
    build_pair,
    column_space,
    feshbach_map,
    invert_F_via_H,
    invert_H_via_F,
    kernel_correspondence,
    make_sharp,
    neumann_inverse,
    op_norm,
    restricted_inverse,
    spectral_scan,
    verify_alt_remark,
    verify_basics,
    verify_resolvent,
    worked_2x2,
)
from smoothschur.cli import main
from smoothschur.instances import InstanceSpec, derived_seed, generate, generate_singular
from smoothschur.operator_core import DEFAULT_TOL
from smoothschur.pairs import NEUMANN_TOL

from conftest import crandn, restricted_map

ALL_KINDS = ("sharp", "smooth", "nonselfadjoint")
SCALES = (0.0, 0.1, 0.45)


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------- criteria 1-3
# shared drivers, reused by criterion 7 with the partition kind pinned


def _run_identity_suite(kinds, trials, base_seed):
    worst = 0.0
    for i in range(trials):
        spec = InstanceSpec(
            dim=2 + i % 19,
            partition_kind=kinds[i % len(kinds)],
            perturbation_scale=SCALES[(i // len(kinds)) % len(SCALES)],
            seed=derived_seed(base_seed, i),
        )
        inst = generate(spec)
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        for rep in (
            verify_basics(pair, data),
            verify_resolvent(pair),
            verify_alt_remark(pair, data),
        ):
            worst = max(worst, rep.max_residual)
            if not rep.passed:
                return False, f"trial {i}: residual {rep.max_residual:.3e} > 1e-9"
    return True, f"{trials} pairs, max residual {worst:.3e}"


def _invertibility_class(M, scale=None, tol=DEFAULT_TOL):
    """(invertible, near_threshold) under the shared rank policy.

    `scale` anchors the cutoff to the ambient operator's norm, so a
    numerically-zero restriction is classified as singular rather than as an
    invertible matrix with a tiny relative cutoff.
    """
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = tol.rank_rel * max(s[0], scale or 0.0) * max(M.shape)
    sv = s[-1]
    near = cutoff / 10 <= sv <= 10 * cutoff
    return sv > cutoff, near


def _run_equivalence_suite(kinds, per_branch, base_seed):
    excluded = 0
    total = 0
    worst = 0.0
    for branch in ("invertible", "singular"):
        for i in range(per_branch):
            spec = InstanceSpec(
                dim=3 + i % 14,
                partition_kind=kinds[i % len(kinds)],
                perturbation_scale=(0.1, 0.3, 0.45)[i % 3],
                seed=derived_seed(base_seed, per_branch * (branch == "singular") + i),
            )
            if branch == "invertible":
                inst = generate(spec)
            else:
                inst = generate_singular(spec, 1)
            pair = build_pair(inst.H, inst.T, inst.partition)
            data = feshbach_map(pair)
            n = pair.dim
            h_inv, h_near = _invertibility_class(inst.H)
            for V in (Subspace.full(n), column_space(pair.chi)):
                total += 1
                coords, _ = restricted_map(data.F, V)
                f_inv, f_near = _invertibility_class(coords, scale=op_norm(data.F))
                if h_near or f_near:
                    excluded += 1
                    continue
                if h_inv != f_inv:
                    return False, f"branch {branch} trial {i}: H inv={h_inv} but F|V inv={f_inv}"
                if h_inv:
                    R = invert_H_via_F(pair, data, V)
                    r1 = op_norm(R @ pair.H - np.eye(n)) / (1 + op_norm(R) * op_norm(pair.H))
                    S = invert_F_via_H(pair, data, V)
                    B = V.basis
                    r2 = op_norm(S @ data.F @ B - B) / (1 + op_norm(S) * op_norm(data.F))
                    worst = max(worst, r1, r2)
                    if max(r1, r2) > 1e-9:
                        return False, f"branch {branch} trial {i}: inverse residual {max(r1, r2):.3e}"
    if excluded >= 0.02 * total:
        return False, f"near-threshold exclusions {excluded}/{total} >= 2%"
    return True, (
        f"{2 * per_branch} pairs x 2 subspaces, max inverse residual {worst:.3e}, "
        f"excluded {excluded}/{total}"
    )


def _run_kernel_suite(kinds, trials, base_seed):
    worst = 0.0
    for i in range(trials):
        kd = 1 + i % 3
        spec = InstanceSpec(
            dim=5 + i % 12,
            partition_kind=kinds[i % len(kinds)],
            perturbation_scale=(0.1, 0.3)[i % 2],
            seed=derived_seed(base_seed, i),
        )
        inst = generate_singular(spec, kd)
        pair = build_pair(inst.H, inst.T, inst.partition)
        data = feshbach_map(pair)
        kc = kernel_correspondence(pair, data)
        worst = max(worst, kc.roundtrip_residual, kc.chi_maps_residual, kc.q_maps_residual)
        if kc.dim_ker_H != kd or kc.dim_ker_F != kd:
            return False, f"trial {i}: planted dim {kd}, got ker H {kc.dim_ker_H}, ker F {kc.dim_ker_F}"
        if max(kc.roundtrip_residual, kc.chi_maps_residual, kc.q_maps_residual) > 1e-8:
            return False, f"trial {i}: kernel residual {kc.roundtrip_residual:.3e} > 1e-8"
    return True, f"{trials} instances, max kernel residual {worst:.3e}"


def test_criterion_1_identity_suite():
    ok, detail = _run_identity_suite(ALL_KINDS, 1000, base_seed=1001)
    _report(1, ok, detail)


def test_criterion_2_invertibility_equivalence():
    ok, detail = _run_equivalence_suite(ALL_KINDS, 500, base_seed=2002)
    _report(2, ok, detail)


def test_criterion_3_kernel_isomorphism():
    ok, detail = _run_kernel_suite(ALL_KINDS, 200, base_seed=3003)
    _report(3, ok, detail)


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_sharp_case_schur_regression():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        r = int(rng.integers(1, n))
        Q, _ = np.linalg.qr(crandn(rng, n, n))
        B, Bbar = Q[:, :r], Q[:, r:]
        part = make_sharp(B @ B.conj().T)
        t = rng.uniform(1, 2, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        T = (Q * t) @ Q.conj().T
        H = T + 0.3 * crandn(rng, n, n)
        pair = build_pair(H, T, part)
        data = feshbach_map(pair)
        # oracle: block Schur complement in projection coordinates
        H11 = B.conj().T @ H @ B
        H12 = B.conj().T @ H @ Bbar
        H21 = Bbar.conj().T @ H @ B
        H22 = Bbar.conj().T @ H @ Bbar
        schur = H11 - H12 @ np.linalg.solve(H22, H21)
        rel = op_norm(B.conj().T @ data.F @ B - schur) / (1 + op_norm(schur))
        worst = max(worst, rel)
        if rel > 1e-10:
            _report(4, False, f"Schur mismatch {rel:.3e}")
    _report(4, True, f"100 projection instances, max residual {worst:.3e}")


# ------------------------------------------------------------------ criterion 5


def _scaled_contraction_pair(i, target):
    """Sharp instance with the coupling norm rescaled to `target`."""
    spec = InstanceSpec(
        dim=4 + i % 8, partition_kind="sharp", perturbation_scale=0.05,
        seed=derived_seed(5005, i),
    )
    inst = generate(spec)
    pair0 = build_pair(inst.H, inst.T, inst.partition)
    q0 = op_norm(pair0.chibar @ pair0.W @ pair0.T_inv_bar @ pair0.chibar)
    if q0 == 0.0:
        return None
    W = pair0.W * (target / q0)
    return build_pair(inst.T + W, inst.T, inst.partition)


def test_criterion_5_neumann_series():
    worst = 0.0
    done = 0
    i = 0
    while done < 100:
        target = 0.1 + 0.5 * ((done % 10) / 9.0)  # contraction norms in [0.1, 0.6]
        pair = _scaled_contraction_pair(i, target)
        i += 1
        if pair is None:
            continue
        q = op_norm(pair.chibar @ pair.W @ pair.T_inv_bar @ pair.chibar)
        res = neumann_inverse(pair)
        H_chibar_inv = restricted_inverse(pair.H_chibar, pair.ran_chibar)
        rel = op_norm(res.approx_inv - H_chibar_inv) / (1 + op_norm(H_chibar_inv))
        worst = max(worst, rel)
        if rel > 1e-10:
            _report(5, False, f"trial {i}: series disagrees with direct inverse: {rel:.3e}")
        bound = int(np.ceil(np.log(NEUMANN_TOL) / np.log(q))) + 1
        if res.terms_used > bound + 1:
            _report(5, False, f"trial {i}: terms {res.terms_used} > geometric bound {bound} + 1")
        done += 1

    raised = 0
    attempts = 0
    j = 0
    while raised < 20 and j < 200:
        pair = _scaled_contraction_pair(1000 + j, 1.3)
        j += 1
        if pair is None:
            continue
        attempts += 1
        with pytest.raises(ContractionError):
            neumann_inverse(pair)
        raised += 1
    _report(5, raised >= 20, f"100 contractive pairs, max residual {worst:.3e}; "
                             f"{raised} non-contractive pairs all raised")


# ------------------------------------------------------------------ criterion 6


def test_criterion_6_spectral_scan_fixture():
    inst = worked_2x2()
    pair = build_pair(inst.H, inst.T, inst.partition)
    data = feshbach_map(pair)
    f_err = op_norm(data.F - np.diag([5.0 / 3.0, 3.0]))
    if f_err > 1e-14:
        _report(6, False, f"F(0) differs from diag(5/3, 3) by {f_err:.3e}")

    grid = np.arange(0.0, 5.0 + 1e-12, 1e-3)
    result = spectral_scan(inst.H, inst.T, inst.partition, grid)
    eigs = [(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2]
    dists = [min(abs(z - e) for z in result.flagged_eigenvalues) for e in eigs]
    ok = all(d <= 1e-3 for d in dists)
    _report(6, ok, f"flag distances {dists[0]:.2e}, {dists[1]:.2e}; F(0) error {f_err:.1e}")


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_nonselfadjoint_headline():
    kinds = ("nonselfadjoint",)
    ok1, d1 = _run_identity_suite(kinds, 1000, base_seed=7001)
    ok2, d2 = _run_equivalence_suite(kinds, 500, base_seed=7002)
    ok3, d3 = _run_kernel_suite(kinds, 200, base_seed=7003)
    _report(7, ok1 and ok2 and ok3, f"[1: {d1}] [2: {d2}] [3: {d3}]")


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_cli_determinism(tmp_path):
    payloads = []
    for run in ("x", "y"):
        inst_dir = tmp_path / f"inst_{run}"
        check_json = tmp_path / f"check_{run}.json"
        fuzz_json = tmp_path / f"fuzz_{run}.json"
        assert main(["gen", "--dim", "6", "--kind", "nonselfadjoint", "--scale", "0.2",
                     "--seed", "88", "--out", str(inst_dir)]) == 0
        assert main(["check", str(inst_dir), "--json", str(check_json)]) == 0
        assert main(["fuzz", "--trials", "30", "--seed", "88", "--json", str(fuzz_json)]) == 0
        blob = b"".join(
            (inst_dir / name).read_bytes()
            for name in ("H.json", "T.json", "chi.json", "chibar.json", "instance.json")
        )
        payloads.append((blob, check_json.read_bytes(), fuzz_json.read_bytes()))
    ok = payloads[0] == payloads[1]
    _report(8, ok, "gen+check+fuzz byte-identical across two runs")
