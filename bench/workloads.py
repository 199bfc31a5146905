"""The benchmark's four workloads and the layer probe of traced runs.

Each workload builds its inputs from the seed in `setup` and runs one round
of timed operations in `run_round`, checking the round's outputs against
references that do not come from the package (see oracle.py).

Traced runs call `probe` once, after the timed rounds.  It calls every
public layer function once on an instance of the workload's own size; scans
also rebuild the pairs of sampled grid points and verify-mix its own pairs,
and time the operator_core calls behind them on their matrices.  So every
layer has a per-call time on every workload without wrapping anything in
the package.
"""
from __future__ import annotations

import functools
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import smoothschur as ss
from smoothschur.instances import KINDS, InstanceSpec, derived_seed
from smoothschur.matio import read_matrix, write_json, write_matrix

from oracle import (
    FeshbachOracle,
    basis,
    flags_ok,
    read_matrix_json,
    rel_residual,
    sample_indices,
    scan_point_ok,
)

#: Residual gate of the identity checks and of the benchmark's own inverse checks.
RESIDUAL_GATE = 1e-9
#: The package's default series truncation threshold and term budget.
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 200
#: Report entries whose failure is advisory (sufficient, not necessary), as in the CLI.
ADVISORY_PREFIXES = ("sufficient/contraction",)
SCALES = (0.0, 0.1, 0.45)
#: Upper bound on one CLI child's wall time.
CHILD_TIMEOUT_S = 150
#: Grid points of the probe's spectral_scan, and bare-import children timed.
PROBE_SCAN_POINTS = 4
IMPORT_REPEATS = 3


def run_child(args, env: dict, cwd: Path) -> int:
    """Run `python args...` to completion and return its exit code."""
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode


@dataclass
class Round:
    """One round: timed calls as (label, start, end) clock readings, the
    operations they stand for (grid points for a scan), how many checked
    outcomes failed, and the factor that converts its wall seconds to
    reference-host seconds (see calibration.py)."""

    timings: list = field(default_factory=list)
    ops: int = 0
    valid: int = 0
    attempted: int = 0
    failed: int = 0
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return sum(end - start for _, start, end in self.timings)


class Workload:
    name = ""
    #: what one operation is, for the throughput figure
    op_name = ""
    #: label of a round's timings -> (figure name, unit, factor from seconds)
    figures: dict = {}

    def __init__(self, root: Path, seed: int, tracer, clock):
        self.root = root
        self.seed = seed
        self.tr = tracer
        self.clock = clock
        self.work = root / ".bench_out" / f"{self.name}-work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_identity_residual = 0.0
        self.import_s = float("nan")

    def setup(self) -> None:
        """Build the inputs; repeatable, each call replaces the last."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def run_round(self) -> Round:
        raise NotImplementedError

    def instance_spec(self) -> InstanceSpec:
        """A seeded instance of the workload's own size; the layer probe runs on it."""
        raise NotImplementedError

    def probe(self) -> None:
        """Call every public layer function once on the probe instance, and
        time a bare import of the package in a child process."""
        spec = self.instance_spec()
        self.tr.new_op()
        a = {"kind": spec.partition_kind, "n": spec.dim}
        call = functools.partial(self.tr.call, attrs=a)
        inst = call("instances.generate", ss.generate, spec)
        call("instances.generate_singular", ss.generate_singular, spec, 1)
        path = self.work / "probe_H.json"
        call("matio.write_matrix", write_matrix, path, inst.H)
        H = call("matio.read_matrix", read_matrix, path)
        part = call(
            "partition.validate_partition", ss.validate_partition, inst.partition.chi,
            inst.partition.chibar,
        )
        pair = call("pairs.build_pair", ss.build_pair, H, inst.T, part)
        data = call("pairs.feshbach_map", ss.feshbach_map, pair)
        reports = [
            call("pairs.sufficient_conditions", ss.sufficient_conditions, pair),
            call("identities.verify_basics", ss.verify_basics, pair, data),
            call("identities.verify_resolvent", ss.verify_resolvent, pair),
            call("identities.verify_alt_remark", ss.verify_alt_remark, pair, data),
        ]
        self.note_identities(reports[1:])
        call("isospectral.kernel_correspondence", ss.kernel_correspondence, pair, data)
        full = ss.Subspace.full(spec.dim)
        call("isospectral.invert_H_via_F", ss.invert_H_via_F, pair, data, full)
        call("isospectral.invert_F_via_H", ss.invert_F_via_H, pair, data, full)
        call("pairs.neumann_inverse", ss.neumann_inverse, pair)
        probe_operator_core(self.tr, pair, a)
        dicts = [call("report.to_dict", r.to_dict) for r in reports]
        call("matio.write_json", write_json, self.work / "probe_report.json", dicts)
        T_diag = np.diag(np.diagonal(H)).astype(complex)
        stages = ss.halving_partitions(spec.dim, 3)
        call("isospectral.iterated_reduction", ss.iterated_reduction, H, T_diag, stages)
        ev = np.linalg.eigvals(H)
        grid = np.linspace(ev.real.min(), ev.real.max(), PROBE_SCAN_POINTS) + 0.01j
        traced_scan(self.tr, H, inst.T, part, list(grid))

        self.import_s = statistics.median(
            self.time_import("import smoothschur") for _ in range(IMPORT_REPEATS)
        )

    def time_import(self, statement: str = "import numpy, smoothschur") -> float:
        """Wall seconds of a child interpreter that runs `statement`."""
        t0 = self.clock()
        if run_child(["-c", statement], self.env, self.root) != 0:
            raise RuntimeError(f"child failed: python -c {statement!r}")
        return self.clock() - t0

    def note_identities(self, reports) -> None:
        for report in reports:
            self.max_identity_residual = max(self.max_identity_residual, report.max_residual)

    def counts(self) -> dict[str, int]:
        """Exact counts of the work in one round, by kind."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _timed(self, rnd: Round, label: str, fn, *args):
        t0 = self.clock()
        out = fn(*args)
        rnd.timings.append((label, t0, self.clock()))
        return out


def traced_scan(tr, H, T, partition, grid):
    """spectral_scan inside a span that records the points and valid points."""
    with tr.span("isospectral.spectral_scan", points=len(grid)) as span:
        result = ss.spectral_scan(H, T, partition, grid)
        if span is not None:
            span.attrs["valid"] = sum(result.pair_valid)
    return result


def probe_operator_core(tr, pair, attrs: dict | None = None) -> None:
    """The operator_core calls behind a pair's validation, on its matrices."""
    tr.call("operator_core.op_norm", ss.op_norm, pair.H, attrs=attrs)
    tr.call("operator_core.column_space", ss.column_space, pair.chibar, attrs=attrs)
    tr.call(
        "operator_core.restricted_inverse", ss.restricted_inverse, pair.H_chibar,
        pair.ran_chibar, attrs=attrs,
    )


# ----------------------------------------------------------------- scans


class _Scan(Workload):
    """One in-process spectral_scan call per round, checked at sampled points."""

    figures = {"scan": ("scan_s", "s", 1.0)}
    op_name = "points"
    oracle_points = 0
    probe_points = 0

    def problem(self):
        """(H, T, partition, grid) of the workload."""
        raise NotImplementedError

    def setup(self) -> None:
        super().setup()
        self.H, self.T, self.partition, self.grid = self.problem()
        self.n = self.H.shape[0]
        self._refs = None

    def references(self):
        """Reference values at the seeded sample of grid points."""
        if self._refs is None:
            oracle = FeshbachOracle(self.H, self.T, self.partition.chi, self.partition.chibar)
            idx = sample_indices(self.seed, len(self.grid), self.oracle_points)
            self._refs = [(i, oracle.scan_point(self.grid[i])) for i in idx]
        return self._refs

    def run_round(self) -> Round:
        rnd = Round(ops=len(self.grid))
        self.tr.new_op()
        result = self._timed(rnd, "scan", traced_scan, self.tr, self.H, self.T, self.partition, self.grid)
        rnd.valid = sum(result.pair_valid)
        self.check(rnd, result)
        return rnd

    def check(self, rnd: Round, result) -> None:
        for i, ref in self.references():
            rnd.attempted += 1
            rnd.failed += not scan_point_ok(result.f_smallest_sv[i], result.pair_valid[i], ref)

    def probe(self) -> None:
        eye = np.eye(self.n)
        for i in sample_indices(self.seed + 1, len(self.grid), self.probe_points):
            lam = self.grid[i]
            self.tr.new_op()
            a = {"n": self.n}
            try:
                pair = self.tr.call(
                    "pairs.build_pair", ss.build_pair, self.H - lam * eye, self.T - lam * eye,
                    self.partition, attrs=a,
                )
            except ss.SmoothSchurError:
                continue
            self.tr.call("pairs.feshbach_map", ss.feshbach_map, pair, attrs=a)
            probe_operator_core(self.tr, pair, a)
        super().probe()

    def counts(self) -> dict[str, int]:
        return {"count.grid_points": len(self.grid)}


class ScanFine2x2(_Scan):
    """The criterion-6 scan: worked_2x2 over 0..5 in steps of 1e-3."""

    name = "scan-fine-2x2"
    oracle_points = 500
    probe_points = 200
    step = 1e-3
    EIGENVALUES = ((5 - 5**0.5) / 2, (5 + 5**0.5) / 2)

    def problem(self):
        inst = ss.worked_2x2()
        grid = [complex(z) for z in np.arange(0.0, 5.0 + 1e-12, self.step)]
        return inst.H, inst.T, inst.partition, grid

    def check(self, rnd: Round, result) -> None:
        """Sampled points, and each eigenvalue flagged within one grid step."""
        super().check(rnd, result)
        rnd.attempted += 1
        rnd.failed += not flags_ok(result.flagged_eigenvalues, self.EIGENVALUES, self.step)

    def instance_spec(self) -> InstanceSpec:
        return InstanceSpec(dim=2, partition_kind="sharp", perturbation_scale=0.1, seed=self.seed)


class ScanN64(_Scan):
    """A seeded n=64 nonselfadjoint instance over a 20 x 10 grid around spectrum(H)."""

    name = "scan-n64"
    oracle_points = 40
    probe_points = 20
    dim = 64
    grid_shape = (20, 10)

    def instance_spec(self) -> InstanceSpec:
        return InstanceSpec(
            dim=self.dim, partition_kind="nonselfadjoint", perturbation_scale=0.1,
            seed=derived_seed(self.seed, self.dim),
        )

    def problem(self):
        spec = self.instance_spec()
        inst = self.tr.call(
            "instances.generate", ss.generate, spec, attrs={"kind": spec.partition_kind, "n": spec.dim}
        )
        ev = np.linalg.eigvals(inst.H)
        pad_re = 0.1 * np.ptp(ev.real) + 0.05
        pad_im = 0.1 * np.ptp(ev.imag) + 0.05
        res = np.linspace(ev.real.min() - pad_re, ev.real.max() + pad_re, self.grid_shape[0])
        ims = np.linspace(ev.imag.min() - pad_im, ev.imag.max() + pad_im, self.grid_shape[1])
        grid = [complex(r, i) for i in ims for r in res]
        return inst.H, inst.T, inst.partition, grid


# ----------------------------------------------------------------- verify


@dataclass(frozen=True)
class PairCase:
    n: int
    kind: str
    scale: float
    kernel_dim: int  # 0: generic invertible draw; else planted kernel dimension


def verify_plan(dims=(8, 64, 256)) -> list[PairCase]:
    """Every kind x scale plus one planted kernel per kind at the smaller
    sizes; at the largest, each kind and each scale once plus one planted
    kernel, which keeps a round near six seconds."""
    *small, large = dims
    plan = []
    for n in small:
        plan += [PairCase(n, k, s, 0) for k in KINDS for s in SCALES]
        plan += [PairCase(n, k, 0.1, 1 + i) for i, k in enumerate(KINDS)]
    plan += [PairCase(large, k, s, 0) for k, s in zip(KINDS, SCALES)]
    plan.append(PairCase(large, "sharp", 0.1, 2))
    return plan


class VerifyMix(Workload):
    """The `check` pipeline on a fixed mix of seeded pairs."""

    name = "verify-mix"
    op_name = "pairs"
    dims = (8, 64, 256)

    @property
    def figures(self):
        return {f"n{n}": (f"pair_ms.n{n}", "ms", 1e3) for n in self.dims}

    def setup(self) -> None:
        super().setup()
        self.cases = []
        for i, case in enumerate(verify_plan(self.dims)):
            spec = InstanceSpec(
                dim=case.n, partition_kind=case.kind, perturbation_scale=case.scale,
                seed=derived_seed(self.seed, i),
            )
            a = {"kind": case.kind, "n": case.n}
            if case.kernel_dim:
                inst = self.tr.call(
                    "instances.generate_singular", ss.generate_singular, spec, case.kernel_dim,
                    attrs=a,
                )
            else:
                inst = self.tr.call("instances.generate", ss.generate, spec, attrs=a)
            self.cases.append((case, inst))

    def instance_spec(self) -> InstanceSpec:
        return InstanceSpec(
            dim=self.dims[1], partition_kind="nonselfadjoint", perturbation_scale=0.1,
            seed=derived_seed(self.seed, len(self.cases)),
        )

    def probe(self) -> None:
        for case, inst in self.cases:
            if case.n >= 64 and not case.kernel_dim:
                self.tr.new_op()
                a = {"kind": case.kind, "n": case.n}
                pair = self.tr.call("pairs.build_pair", ss.build_pair, inst.H, inst.T, inst.partition, attrs=a)
                probe_operator_core(self.tr, pair, a)
        super().probe()

    def pipeline(self, case: PairCase, inst) -> dict:
        """What `check` runs on a pair; invertible pairs also run the two
        inverse formulas and, when contractive, the Neumann series."""
        tr = self.tr
        a = {"kind": case.kind, "n": case.n}
        part = tr.call(
            "partition.validate_partition", ss.validate_partition, inst.partition.chi,
            inst.partition.chibar, attrs=a,
        )
        pair = tr.call("pairs.build_pair", ss.build_pair, inst.H, inst.T, part, attrs=a)
        data = tr.call("pairs.feshbach_map", ss.feshbach_map, pair, attrs=a)
        out = {
            "pair": pair,
            "data": data,
            "sufficient": tr.call("pairs.sufficient_conditions", ss.sufficient_conditions, pair, attrs=a),
            "basics": tr.call("identities.verify_basics", ss.verify_basics, pair, data, attrs=a),
            "resolvent": tr.call("identities.verify_resolvent", ss.verify_resolvent, pair, attrs=a),
            "alt": tr.call("identities.verify_alt_remark", ss.verify_alt_remark, pair, data, attrs=a),
            "kernel": tr.call(
                "isospectral.kernel_correspondence", ss.kernel_correspondence, pair, data, attrs=a
            ),
        }
        if case.kernel_dim == 0:
            full = ss.Subspace.full(case.n)
            out["H_inv"] = tr.call(
                "isospectral.invert_H_via_F", ss.invert_H_via_F, pair, data, full, attrs=a
            )
            out["F_inv"] = tr.call(
                "isospectral.invert_F_via_H", ss.invert_F_via_H, pair, data, full, attrs=a
            )
            if out["sufficient"]["sufficient/contraction_right"].residual < 1.0:
                out["neumann"] = tr.call("pairs.neumann_inverse", ss.neumann_inverse, pair, attrs=a)
        return out

    def pair_ok(self, case: PairCase, inst, out: dict) -> bool:
        """Every gate passes at its 1e-9 threshold, the kernel has the planted
        dimension, and F, the inverses and the series agree with references
        computed here."""
        pair, data = out["pair"], out["data"]
        self.note_identities([out["basics"], out["resolvent"], out["alt"]])
        if not pair.evidence.passed or not out["kernel"].passed:
            return False
        if out["kernel"].dim_ker_H != case.kernel_dim:
            return False
        for name in ("sufficient", "basics", "resolvent", "alt"):
            for entry in out[name]:
                if entry.label.startswith(ADVISORY_PREFIXES):
                    continue
                if name != "sufficient" and entry.threshold != RESIDUAL_GATE:
                    return False
                if not entry.passed:
                    return False
        H = np.asarray(inst.H)
        F_ref = FeshbachOracle(H, inst.T, inst.partition.chi, inst.partition.chibar).F()
        if rel_residual(data.F - F_ref, F_ref) > RESIDUAL_GATE:
            return False
        eye = np.eye(case.n)
        if case.kernel_dim == 0:
            R, S = out["H_inv"], out["F_inv"]
            if rel_residual(R @ H - eye, R, H) > RESIDUAL_GATE:
                return False
            if rel_residual(S @ F_ref - eye, S, F_ref) > RESIDUAL_GATE:
                return False
        if "neumann" in out:
            return self.neumann_ok(out["neumann"], pair, inst)
        return True

    @staticmethod
    def neumann_ok(res, pair, inst) -> bool:
        """The series stops within the geometric bound on its terms (criterion
        5) and then inverts H_chibar on ran(chibar); it may be truncated only
        where that bound exceeds the term budget."""
        q = float(np.linalg.norm(pair.chibar @ pair.W @ pair.T_inv_bar @ pair.chibar, 2))
        bound = 1 if q == 0.0 else int(np.ceil(np.log(NEUMANN_TOL) / np.log(q))) + 1
        if res.truncated:
            return bound + 1 >= NEUMANN_MAX_TERMS
        X, Hb = res.approx_inv, pair.H_chibar
        B = basis(inst.partition.chibar)
        return res.terms_used <= bound + 1 and rel_residual(X @ Hb @ B - B, X, Hb) <= RESIDUAL_GATE

    def run_round(self) -> Round:
        rnd = Round()
        for case, inst in self.cases:
            self.tr.new_op()
            out = self._timed(rnd, f"n{case.n}", self.pipeline, case, inst)
            rnd.ops += 1
            rnd.attempted += 1
            ok = self.pair_ok(case, inst, out)
            rnd.valid += ok
            rnd.failed += not ok
        return rnd

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for case, _ in self.cases:
            key = f"count.pairs.{case.kind}.n{case.n}"
            out[key] = out.get(key, 0) + 1
        out["count.planted_kernels"] = sum(1 for case, _ in self.cases if case.kernel_dim)
        return out


# ----------------------------------------------------------------- cli


class Cli(Workload):
    """`python -m smoothschur.cli` children, one at a time."""

    name = "cli"
    op_name = "invocations"
    COMMANDS = ("gen", "check", "reduce", "scan", "fuzz")
    figures = {c: (f"cli_{c}_s", "s", 1.0) for c in COMMANDS}
    gen_dim = 128
    scan_count = 5001
    fuzz_trials = 200
    oracle_points = 200

    def setup(self) -> None:
        super().setup()
        # the first import compiles the package's bytecode; users pay that once
        self.time_import("import smoothschur.cli")
        self.first: dict[str, dict[str, bytes]] = {}

    def instance_spec(self) -> InstanceSpec:
        return InstanceSpec(
            dim=self.gen_dim, partition_kind="nonselfadjoint", perturbation_scale=0.1,
            seed=self.seed,
        )

    def argv(self) -> dict[str, tuple[list[str], list[Path]]]:
        """Command -> (CLI arguments, output files compared across rounds)."""
        inst = self.work / "inst"
        fixture = self.root / "fixtures" / "worked2x2"
        out = {name: self.work / name for name in ("check.json", "reduce.json", "scan.csv", "fuzz.json")}
        spec = self.instance_spec()
        return {
            "gen": (
                ["gen", "--dim", str(spec.dim), "--kind", spec.partition_kind,
                 "--scale", str(spec.perturbation_scale), "--seed", str(spec.seed),
                 "--out", str(inst)],
                [inst / f"{m}.json" for m in ("H", "T", "chi", "chibar", "instance")],
            ),
            "check": (["check", str(inst), "--json", str(out["check.json"])], [out["check.json"]]),
            "reduce": (
                ["reduce", str(inst), "--stages", "3", "--json", str(out["reduce.json"])],
                [out["reduce.json"]],
            ),
            "scan": (
                ["scan", str(fixture), "--re-min", "0", "--re-max", "5",
                 "--re-count", str(self.scan_count), "--out", str(out["scan.csv"])],
                [out["scan.csv"]],
            ),
            "fuzz": (
                ["fuzz", "--trials", str(self.fuzz_trials), "--seed", str(self.seed),
                 "--json", str(out["fuzz.json"])],
                [out["fuzz.json"]],
            ),
        }

    def run_round(self) -> Round:
        rnd = Round()
        for command, (args, files) in self.argv().items():
            for f in files:
                f.unlink(missing_ok=True)
            self.tr.new_op()
            with self.tr.span(f"cli.{command}"):
                code = self._timed(
                    rnd, command, run_child, ["-m", "smoothschur.cli", *args], self.env, self.work
                )
            ok = self.outputs_ok(command, code, files)
            rnd.ops += 1
            rnd.attempted += 1
            rnd.valid += ok
            rnd.failed += not ok
        return rnd

    def outputs_ok(self, command: str, code: int, files: list[Path]) -> bool:
        """Exit code 0, and outputs byte-identical to the first round's; the
        first round's scan CSV is also checked against the reference."""
        if code != 0 or not all(f.is_file() for f in files):
            return False
        blobs = {f.name: f.read_bytes() for f in files}
        if command not in self.first:
            self.first[command] = blobs
            return command != "scan" or self.scan_csv_ok(blobs["scan.csv"])
        return blobs == self.first[command]

    def scan_csv_ok(self, blob: bytes) -> bool:
        fixture = self.root / "fixtures" / "worked2x2"
        H, T, chi, chibar = (read_matrix_json(fixture / f"{m}.json") for m in ("H", "T", "chi", "chibar"))
        oracle = FeshbachOracle(H, T, chi, chibar)
        rows = blob.decode().splitlines()[1:]
        if len(rows) != self.scan_count:
            return False
        for i in sample_indices(self.seed, len(rows), self.oracle_points):
            re, im, sv, valid = rows[i].split(",")
            ref = oracle.scan_point(complex(float(re), float(im)))
            if not scan_point_ok(float(sv), valid == "1", ref):
                return False
        return True

    def counts(self) -> dict[str, int]:
        return {"count.cli_invocations": len(self.COMMANDS)}


WORKLOADS = {w.name: w for w in (ScanFine2x2, ScanN64, VerifyMix, Cli)}
