"""Command-line harness: generate seeded instances, validate them, scan
spectra, run iterated reductions, and fuzz the property suite.

Exit status: 0 all checks pass, 1 property failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import EmptyGridError, InstanceSpecError, MatrixFileError, SmoothSchurError, ToleranceError
from .identities import verify_alt_remark, verify_basics, verify_resolvent
from .instances import KINDS, InstanceSpec, derived_seed, generate
from .isospectral import (
    _grid_resolution,
    halving_partitions,
    iterated_reduction,
    kernel_correspondence,
    spectral_scan,
)
from .matio import read_matrix, write_json, write_matrix
from .operator_core import DEFAULT_TOL, Tolerances, numerical_rank, smallest_sv
from .pairs import build_pair, feshbach_map, sufficient_conditions
from .partition import Partition, validate_partition

SCHEMA = "1.0"
MATRIX_FILES = ("H", "T", "chi", "chibar")

#: report labels whose failure is advisory only (sufficient, not necessary)
_ADVISORY_PREFIXES = ("sufficient/contraction",)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_rel, help="relative singular-value cutoff")
    p.add_argument("--res-tol", type=float, default=DEFAULT_TOL.residual_rel, help="relative residual acceptance")
    p.add_argument("--json", type=Path, default=None, help="write a machine-readable report here")


def _tolerances(args) -> Tolerances:
    return Tolerances(rank_rel=args.rank_tol, residual_rel=args.res_tol)


def _load_instance_dir(directory: Path) -> dict:
    mats = {}
    for name in MATRIX_FILES:
        mats[name] = read_matrix(directory / f"{name}.json")
    dims = {name: m.shape for name, m in mats.items()}
    sizes = set(dims.values())
    if len(sizes) != 1:
        raise MatrixFileError(f"{directory}: inconsistent matrix shapes {dims}")
    return mats


def cmd_gen(args) -> int:
    tol = _tolerances(args)
    spec = InstanceSpec(
        dim=args.dim,
        partition_kind=args.kind,
        perturbation_scale=args.scale,
        seed=args.seed,
    )
    inst = generate(spec, tol)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "H.json", inst.H)
    write_matrix(out / "T.json", inst.T)
    write_matrix(out / "chi.json", inst.partition.chi)
    write_matrix(out / "chibar.json", inst.partition.chibar)
    write_json(out / "instance.json", {"schema": SCHEMA, "spec": spec.to_dict()})
    print(f"wrote instance (dim={spec.dim}, kind={spec.partition_kind}) to {out}")
    return 0


def _check_instance(H, T, partition: Partition, tol: Tolerances):
    """The `check` report as a JSON-ready dict, and its ResidualReports by name."""
    pair = build_pair(H, T, partition, tol)
    data = feshbach_map(pair)

    reports = {
        "pair": pair.evidence,
        "sufficient": sufficient_conditions(pair),
        "basics": verify_basics(pair, data, tol),
        "resolvent": verify_resolvent(pair, tol),
        "alt": verify_alt_remark(pair, data, tol),
    }
    kernel = kernel_correspondence(pair, data, tol)

    failures = []
    for name, report in reports.items():
        for entry in report:
            if not entry.passed and not entry.label.startswith(_ADVISORY_PREFIXES):
                failures.append(entry.label)
    if not kernel.passed:
        failures.append("kernel_correspondence")

    return {
        "schema": SCHEMA,
        "tolerances": asdict(tol),
        "reports": {name: report.to_dict() for name, report in reports.items()},
        "kernel": kernel.to_dict(),
        "summary": {"pass": not failures, "failures": sorted(failures)},
    }, reports


def cmd_check(args) -> int:
    tol = _tolerances(args)
    mats = _load_instance_dir(args.instance)
    started = time.perf_counter()
    partition = validate_partition(mats["chi"], mats["chibar"], tol)
    result, reports = _check_instance(mats["H"], mats["T"], partition, tol)
    elapsed = time.perf_counter() - started

    for name, report in reports.items():
        print(f"{name}:")
        print(report.pretty())
    k = result["kernel"]
    print(
        f"kernel: dim ker H = {k['dim_ker_H']}, dim ker F|ran(chi) = {k['dim_ker_F']}, "
        f"roundtrip {k['roundtrip_residual']:.3e} -> {'ok' if k['pass'] else 'FAIL'}"
    )
    verdict = "PASS" if result["summary"]["pass"] else "FAIL"
    print(f"summary: {verdict}  (elapsed {elapsed * 1e3:.1f} ms)")
    if args.json:
        write_json(args.json, result)
    return 0 if result["summary"]["pass"] else 1


def cmd_scan(args) -> int:
    tol = _tolerances(args)
    mats = _load_instance_dir(args.instance)
    partition = validate_partition(mats["chi"], mats["chibar"], tol)
    if args.re_count < 1 or args.im_count < 1:
        raise EmptyGridError("grid counts must be >= 1")
    for flag in ("re_min", "re_max", "im_min", "im_max"):
        bound = getattr(args, flag)
        if not np.isfinite(bound):
            raise EmptyGridError(f"spectral scan grid has a non-finite point: --{flag.replace('_', '-')} {bound}")
    res = np.linspace(args.re_min, args.re_max, args.re_count)
    ims = np.linspace(args.im_min, args.im_max, args.im_count)
    grid = [complex(r, i) for i in ims for r in res]

    result = spectral_scan(mats["H"], mats["T"], partition, grid, tol)

    lines = ["re_lambda,im_lambda,smallest_sv,pair_valid"]
    for lam, sv, ok in zip(result.grid, result.f_smallest_sv, result.pair_valid):
        lines.append(f"{lam.real!r},{lam.imag!r},{sv!r},{int(ok)}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)

    flagged = result.flagged_eigenvalues
    reference = result.reference_eigenvalues
    reach = 10 * _grid_resolution(grid)
    matched = sum(1 for z in reference if flagged and min(abs(z - f) for f in flagged) <= reach)
    print(f"flagged {len(flagged)} candidate(s); reference eigenvalues matched: {matched}/{len(reference)}")
    if args.json:
        payload = result.to_dict()
        payload["schema"] = SCHEMA
        payload["tolerances"] = asdict(tol)
        write_json(args.json, payload)
    return 0


def cmd_reduce(args) -> int:
    tol = _tolerances(args)
    mats = _load_instance_dir(args.instance)
    H = mats["H"]
    n = H.shape[0]
    # diagonal T commutes with every coordinate projection, at every stage
    T = np.diag(np.diagonal(H)).astype(complex)
    partitions = halving_partitions(n, args.stages, tol)
    if not partitions:
        raise InstanceSpecError(f"reduce needs --stages >= 1 and dim >= 2, got --stages {args.stages} on dim {n}")
    stages = iterated_reduction(H, T, partitions, tol)

    dims = [n] + [d for _, d in stages]
    final, final_dim = stages[-1]
    h_invertible = numerical_rank(H, tol) == n
    f_invertible = numerical_rank(final, tol) == final_dim
    print(f"reduction chain: {' -> '.join(str(d) for d in dims)}")
    print(f"H invertible: {h_invertible}; final effective operator invertible: {f_invertible}")
    if args.json:
        write_json(
            args.json,
            {
                "schema": SCHEMA,
                "tolerances": asdict(tol),
                "dims": dims,
                "final_smallest_sv": smallest_sv(final),
                "H_invertible": h_invertible,
                "final_invertible": f_invertible,
            },
        )
    return 0 if h_invertible == f_invertible else 1


def cmd_fuzz(args) -> int:
    tol = _tolerances(args)
    kinds = args.kinds.split(",") if args.kinds else list(KINDS)
    for kind in kinds:
        if kind not in KINDS:
            raise InstanceSpecError(f"unknown partition kind {kind!r}")
    if args.trials < 1:
        raise InstanceSpecError("trials must be >= 1")
    scales = (0.0, 0.1, 0.45)
    dims = list(range(args.dim_min, args.dim_max + 1))
    if not dims:
        raise InstanceSpecError(f"dim-min {args.dim_min} must be <= dim-max {args.dim_max}")

    worst: dict[str, float] = {}
    failures = 0
    for trial in range(args.trials):
        spec = InstanceSpec(
            dim=dims[trial % len(dims)],
            partition_kind=kinds[trial % len(kinds)],
            perturbation_scale=scales[trial % len(scales)],
            seed=derived_seed(args.seed, trial),
        )
        inst = generate(spec, tol)
        result, reports = _check_instance(inst.H, inst.T, inst.partition, tol)
        for report in reports.values():
            for entry in report:
                worst[entry.label] = max(worst.get(entry.label, 0.0), entry.residual)
        roundtrip = result["kernel"]["roundtrip_residual"]
        worst["kernel/roundtrip"] = max(worst.get("kernel/roundtrip", 0.0), roundtrip)
        failures += len(result["summary"]["failures"])

    print(f"fuzz: {args.trials} trials, kinds={','.join(kinds)}, dims {args.dim_min}..{args.dim_max}")
    for label in sorted(worst):
        print(f"  max {label}: {worst[label]:.3e}")
    print(f"failures: {failures}")
    if args.json:
        write_json(
            args.json,
            {
                "schema": SCHEMA,
                "tolerances": asdict(tol),
                "trials": args.trials,
                "kinds": kinds,
                "dims": [args.dim_min, args.dim_max],
                "seed": args.seed,
                "max_residuals": worst,
                "failures": failures,
                "summary": {"pass": failures == 0},
            },
        )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothschur",
        description="Generalized Schur-complement reduction toolkit: generate, check, scan, reduce, fuzz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--kind", choices=KINDS, default="smooth")
    p.add_argument("--scale", type=float, default=0.1, help="||W|| relative to ||T||")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_common_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate an instance and verify all identities")
    p.add_argument("instance", type=Path, help="instance directory from `gen`")
    _add_common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="grid scan of the effective operator's smallest singular value")
    p.add_argument("instance", type=Path)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--re-count", type=int, required=True)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=0.0)
    p.add_argument("--im-count", type=int, default=1)
    p.add_argument("--out", type=Path, default=None, help="CSV output path (default stdout)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reduce", help="iterated halving reduction of an instance's H")
    p.add_argument("instance", type=Path)
    p.add_argument("--stages", type=int, default=2)
    _add_common_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fuzz", help="run the property suite over many seeded instances")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim-min", type=int, default=2)
    p.add_argument("--dim-max", type=int, default=12)
    p.add_argument("--kinds", type=str, default=",".join(KINDS))
    p.add_argument("--seed", type=int, default=0)
    _add_common_flags(p)
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFileError, InstanceSpecError, EmptyGridError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmoothSchurError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
