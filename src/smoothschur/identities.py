"""Numerical verification of the algebraic identities of the map.

The six basic identities relate H, F, Q, Q_sharp and the pair's chibar
H_chibar^-1 chibar and chibar T^-1 chibar, which the resolvent identity
relates to each other; they hold for every valid pair, Hermitian or not.  Each
residual is normalized by 1 + the product of the factor norms so reports are
comparable across wildly scaled instances (the resolvent identity's 1 is
max(1, ||T^-1||, ||Hbar^-1||) on ran(chibar)), and its gate is residual_rel of
pair.tol, the partition's Tolerances.  verify_basics forms each difference
only when its gate runs, so one identity's matrices are alive at a time.

The residual recorded is the number the verdict was decided on (see
operator_core.norm_gate): almost always the upper bound ||D||_F / (1 + the
product of the factors' norm lower bounds), D = lhs - rhs, noted "upper
bound"; the exact spectral norms only when that bound exceeds the gate and
the lower bound does not.  A recorded residual is thus never below the exact
one, and every verdict is the exact one.
"""
from __future__ import annotations

import math

import numpy as np

from .operator_core import Tolerances, norm_gate
from .pairs import FeshbachData, FeshbachPair
from .report import ResidualReport


def _rel_residual(diff, factors, tol: Tolerances):
    """(residual, residual_rel, note) for ||diff|| / (1 + prod ||f||) <= residual_rel."""
    return norm_gate(diff, factors, lambda r, norms: (r / (1.0 + math.prod(norms)), tol.residual_rel))


def verify_basics(pair: FeshbachPair, data: FeshbachData) -> ResidualReport:
    """Check the six basic identities.

      left_annihilator   (chibar Hbar^-1 chibar) H  = 1 - Q chi
      right_annihilator  H (chibar Hbar^-1 chibar)  = 1 - chi Q_sharp
      left_effective     (chibar T^-1 chibar) F     = 1 - chi Q
      right_effective    F (chibar T^-1 chibar)     = 1 - Q_sharp chi
      intertwine_left    H Q                        = chi F
      intertwine_right   Q_sharp H                  = F chi
    """
    H, chi, G, Tb = pair.H, pair.chi, pair.chibar_Hinv_chibar, pair.chibar_Tinv_chibar
    F, Q, Qs = data.F, data.Q, data.Q_sharp
    eye = np.eye(pair.dim)

    report = ResidualReport()
    checks = [
        ("basics/left_annihilator", lambda: G @ H - (eye - Q @ chi), (G, H)),
        ("basics/right_annihilator", lambda: H @ G - (eye - chi @ Qs), (H, G)),
        ("basics/left_effective", lambda: Tb @ F - (eye - chi @ Q), (Tb, F)),
        ("basics/right_effective", lambda: F @ Tb - (eye - Qs @ chi), (F, Tb)),
        ("basics/intertwine_left", lambda: H @ Q - chi @ F, (H, Q)),
        ("basics/intertwine_right", lambda: Qs @ H - F @ chi, (Qs, H)),
    ]
    for label, diff, factors in checks:
        report.add(label, *_rel_residual(diff(), factors, pair.tol))
    return report


def verify_resolvent(pair: FeshbachPair) -> ResidualReport:
    """Check chibar T^-1 chibar - chibar Hbar^-1 chibar = (chibar T^-1 chibar) W (chibar Hbar^-1 chibar),
    normalized by max(1, ||T^-1||, ||Hbar^-1||) + ||T^-1|| ||chibar W chibar|| ||Hbar^-1||: chibar W
    chibar is H_chibar - T, and each inverse's norm on ran(chibar) the reciprocal smallest singular
    value of its block.  The difference scales like the inverses, and so does that floor; a floor of
    1 fails weakly coupled pairs at a small operator scale on the rounding of chibar T^-1 chibar."""
    G, Tb = pair.chibar_Hinv_chibar, pair.chibar_Tinv_chibar
    (s_T, _), (s_H, _) = pair.block_svs["T"], pair.block_svs["H_chibar"]
    scaled_W_chibar = (pair.H_chibar - pair.T) / s_T / s_H
    floor = max(1.0, 1.0 / s_T, 1.0 / s_H)
    gate = lambda r, norms: (r / (floor + norms[0]), pair.tol.residual_rel)
    report = ResidualReport()
    report.add("resolvent/identity", *norm_gate(Tb - G - Tb @ pair.W @ G, (scaled_W_chibar,), gate))
    return report


def verify_alt_remark(pair: FeshbachPair, data: FeshbachData) -> ResidualReport:
    """Check chibar^2 F = T (1 - chi Q) and that ran(1 - chi Q) lies in ran(chibar)."""
    chi, chibar, T = pair.chi, pair.chibar, pair.T
    F, Q, tol = data.F, data.Q, pair.tol
    eye = np.eye(pair.dim)
    M = eye - chi @ Q

    report = ResidualReport()
    factors = (chibar, chibar, F)
    report.add("alt/effective_factorization", *_rel_residual(chibar @ chibar @ F - T @ M, factors, tol))

    report.add("alt/range_containment", *_rel_residual(pair.ran_chibar.off(M), (M,), tol))
    return report
