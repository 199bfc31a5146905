"""Every rank verdict on the conftest instance forms, against a committed record.

A case is one form of conftest.instance at n in {3, 8, 32} and seeds 0 and
1, and for the overlap and mixed forms the same draw with a planted
one-dimensional kernel (overlap_instance, kernel_dim=1).  The record holds
what the rank tests decide on it:

- dim ran(chi) and dim ran(chibar);
- build_pair's error class, or both chibar blocks' rank-cutoff entries
  (cutoff, smallest sv) and block_svs (smallest sv, largest sv);
- numerical_rank(H);
- both kernel_correspondence dimensions;
- the error class, or None, of restricted_inverse(H_chibar, ran chibar) and
  of invert_F_via_H.

Every singular value there lies orders of magnitude from its cutoff, so the
record also holds planted cases whose smallest singular value sits at 0.5,
0.9, 1.1 and 2 times the rank cutoff rank_rel max(shape) ||M||, computed
here from that rule and not by the package:

- matrices of shape 5 x 5, 7 x 4 and 4 x 7, each through numerical_rank,
  kernel_basis and column_space, and through _kernel_basis anchored to a
  matrix of norm 10 (the cutoff then relative to the anchor's norm);
- restricted_inverse of a 6 x 6 matrix on the whole space (its own cutoff)
  and on the first three axes (the cutoff relative to ||A||), recording its
  error class or None.

Dimensions, classes and verdicts must match exactly, and each number within
1e-12 of its block's largest singular value.

Run this file as a script (PYTHONPATH=src python tests/test_rank_verdicts.py)
to rewrite tests/data/rank_verdicts.json from the package it imports.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from smoothschur import (
    SmoothSchurError,
    Subspace,
    Tolerances,
    build_pair,
    column_space,
    feshbach_map,
    invert_F_via_H,
    kernel_basis,
    kernel_correspondence,
    numerical_rank,
    restricted_inverse,
)
from smoothschur.instances import random_unitary
from smoothschur.operator_core import _kernel_basis

from conftest import KINDS, MIXED_FORMS, OVERLAP_FORMS, instance, overlap_instance

RECORD = Path(__file__).resolve().parent / "data" / "rank_verdicts.json"

#: Each number is compared within this times its block's largest singular value.
_REL = 1e-12

_PLANTED_FORMS = (*OVERLAP_FORMS, *MIXED_FORMS)

CASES = [
    (form, n, seed, kernel_dim)
    for form in (*KINDS, *_PLANTED_FORMS, "corank-one")
    for n in (3, 8, 32)
    for seed in (0, 1)
    for kernel_dim in ((0, 1) if form in _PLANTED_FORMS else (0,))
]


#: Where a planted case puts its smallest singular value, in rank cutoffs.
_FACTORS = (0.5, 0.9, 1.1, 2.0)

PLANTED = [
    (shape, factor, anchored)
    for shape in ((5, 5), (7, 4), (4, 7))
    for factor in _FACTORS
    for anchored in (False, True)
]

RESTRICTED = [(subspace, factor) for subspace in ("full", "half") for factor in _FACTORS]


def _key(case) -> str:
    return "{}/n{}/seed{}/ker{}".format(*case)


def _planted_key(case) -> str:
    (rows, cols), factor, anchored = case
    return f"planted/{rows}x{cols}/x{factor}/{'anchor' if anchored else 'own'}"


def _restricted_key(case) -> str:
    return "restricted/{}/x{}".format(*case)


def _planted(rng, shape, smallest) -> np.ndarray:
    """A matrix of the shape with singular values 1, 1/2, 1/4, ... and, last
    of its min(shape), smallest."""
    rows, cols = shape
    k = min(shape)
    s = np.r_[0.5 ** np.arange(k - 1), smallest]
    return (random_unitary(rng, rows)[:, :k] * s) @ random_unitary(rng, cols)[:, :k].conj().T


def _raises(fn, *args):
    """The class name of the SmoothSchurError fn(*args) raises, or None."""
    try:
        fn(*args)
    except SmoothSchurError as exc:
        return type(exc).__name__
    return None


def verdicts(form, n, seed, kernel_dim) -> dict:
    """The rank verdicts of one case, as recorded in RECORD."""
    if kernel_dim:
        H, T, partition = overlap_instance(form, n, seed, kernel_dim=kernel_dim)
    else:
        H, T, partition = instance(form, n, seed, 0.1)
    out = {
        "dim_ran_chi": partition.ran_chi.dim,
        "dim_ran_chibar": partition.ran_chibar.dim,
        "rank_H": numerical_rank(H, partition.tol),
    }
    try:
        pair = build_pair(H, T, partition)
    except SmoothSchurError as exc:
        return {**out, "build_pair_error": type(exc).__name__}
    for label in ("T", "H_chibar"):
        entry = pair.evidence[f"pair/{label}_block_rank_cutoff"]
        out[f"{label}_rank_cutoff"] = [entry.residual, entry.threshold]
        out[f"{label}_block_svs"] = list(pair.block_svs[label])
    data = feshbach_map(pair)
    kernel = kernel_correspondence(pair, data)
    out["dim_ker_H"], out["dim_ker_F"] = kernel.dim_ker_H, kernel.dim_ker_F
    out["restricted_inverse_error"] = _raises(restricted_inverse, pair.H_chibar, pair.ran_chibar, pair.tol)
    out["invert_F_via_H_error"] = _raises(invert_F_via_H, pair, data, Subspace.full(pair.dim))
    return out


def planted_verdicts(shape, factor, anchored) -> dict:
    """The rank verdicts on a matrix whose smallest singular value is factor
    cutoffs: its own cutoff, or one relative to an anchor of norm 10 whose
    norm_bounds bracket is wide, so some values fall inside it."""
    rng = np.random.default_rng([shape[0], shape[1], int(10 * factor), int(anchored)])
    tol = Tolerances()
    if not anchored:
        M = _planted(rng, shape, factor * tol.rank_rel * max(shape))
        return {
            "numerical_rank": numerical_rank(M, tol),
            "kernel_dim": kernel_basis(M, tol).dim,
            "column_space_dim": column_space(M, tol).dim,
        }
    anchor = 10 * _planted(rng, (6, 6), 0.5)
    M = _planted(rng, shape, factor * tol.rank_rel * max(shape) * 10)
    s = np.linalg.svd(M, compute_uv=False) if shape[0] >= shape[1] else None
    return {"anchored_kernel_dim": _kernel_basis(M, s, tol, anchor=anchor).dim}


def restricted_verdicts(subspace, factor) -> dict:
    """The error class, or None, of restricted_inverse of a 6 x 6 A whose
    compression's smallest singular value is factor cutoffs: on the whole
    space A itself, cut relative to its own norm, and on the first three
    axes the block A[:3, :3], beside a block of norm 2, cut relative to
    ||A|| = 2; either cutoff is rank_rel 6 ||A||."""
    rng = np.random.default_rng([6, int(10 * factor), int(subspace == "half")])
    tol = Tolerances()
    if subspace == "full":
        A, V = _planted(rng, (6, 6), factor * tol.rank_rel * 6), Subspace.full(6)
    else:
        A = np.zeros((6, 6), dtype=complex)
        A[:3, :3] = _planted(rng, (3, 3), factor * tol.rank_rel * 6 * 2)
        A[3:, 3:] = 2 * random_unitary(rng, 3)
        V = Subspace(6, np.eye(6, 3, dtype=complex))
    return {"restricted_inverse_error": _raises(restricted_inverse, A, V, tol)}


def _record() -> dict:
    return {
        **{_key(case): verdicts(*case) for case in CASES},
        **{_planted_key(case): planted_verdicts(*case) for case in PLANTED},
        **{_restricted_key(case): restricted_verdicts(*case) for case in RESTRICTED},
    }


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_case(record):
    keys = [*map(_key, CASES), *map(_planted_key, PLANTED), *map(_restricted_key, RESTRICTED)]
    assert sorted(record) == sorted(keys)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_rank_verdicts_match_record(case, record):
    got, want = verdicts(*case), record[_key(case)]
    assert sorted(got) == sorted(want)
    for label in ("T", "H_chibar"):
        if f"{label}_block_svs" in want:
            scale = _REL * want[f"{label}_block_svs"][1]
            for name in (f"{label}_rank_cutoff", f"{label}_block_svs"):
                assert got.pop(name) == pytest.approx(want.pop(name), rel=0, abs=scale), name
    assert got == want


@pytest.mark.parametrize("case", PLANTED, ids=_planted_key)
def test_planted_verdicts_match_record(case, record):
    assert planted_verdicts(*case) == record[_planted_key(case)]


@pytest.mark.parametrize("case", RESTRICTED, ids=_restricted_key)
def test_restricted_verdicts_match_record(case, record):
    assert restricted_verdicts(*case) == record[_restricted_key(case)]


def test_planted_cases_straddle_the_cutoff(record):
    # below the cutoff a value counts as zero, above it does not, on both
    # sides of each case's anchor and subspace
    for case in PLANTED:
        (rows, cols), factor, anchored = case
        want = min(rows, cols) - (factor < 1)
        got = record[_planted_key(case)]
        if anchored:
            assert got == {"anchored_kernel_dim": cols - want}, case
        else:
            assert got == {"numerical_rank": want, "kernel_dim": cols - want, "column_space_dim": want}, case
    for case in RESTRICTED:
        error = "SingularRestrictionError" if case[1] < 1 else None
        assert record[_restricted_key(case)] == {"restricted_inverse_error": error}, case


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_record(), indent=1) + "\n")
