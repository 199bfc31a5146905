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

Dimensions, classes and verdicts must match exactly, and each number within
1e-12 of its block's largest singular value.

Run this file as a script (PYTHONPATH=src python tests/test_rank_verdicts.py)
to rewrite tests/data/rank_verdicts.json from the package it imports.
"""
import json
from pathlib import Path

import pytest

from smoothschur import (
    SmoothSchurError,
    Subspace,
    build_pair,
    feshbach_map,
    invert_F_via_H,
    kernel_correspondence,
    numerical_rank,
    restricted_inverse,
)

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


def _key(case) -> str:
    return "{}/n{}/seed{}/ker{}".format(*case)


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


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(map(_key, CASES))


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


if __name__ == "__main__":
    RECORD.write_text(json.dumps({_key(case): verdicts(*case) for case in CASES}, indent=1) + "\n")
