"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, so it
need not be installed.  BLAS is pinned to one thread before NumPy loads.

The workload is set up three times; setup_s is the median of start-up
and import (timed in a child process) plus set-up.  Then it runs rounds,
at least two, for about S seconds; round_s is their lower quartile,
because neighbours on a shared host only ever add time.  Set-up and
round times are in reference-host seconds: a calibration block before
and after each one measures how fast the host ran (calibration.py).
Per-layer times are plain wall times.
Every round's outputs are checked.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics instead,
from spans the benchmark records around its calls into the package.  A
traced run alternates untraced and traced rounds, so the difference of
their medians is the tracing overhead.  Earlier lines give the same
figures for people, with sample counts, the per-workload breakdown and
the environment; a copy of everything goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
#: span name -> (unit, factor from seconds) of its per-call per-layer metric
SPAN_UNITS = {"operator_core.op_norm": ("us", 1e6)}
DEFAULT_SPAN_UNIT = ("ms", 1e3)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the repository at root, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(rounds, setup_s: float, rss: float) -> dict:
    return {
        "setup_s": setup_s,
        "round_s": lower_quartile([r.seconds * r.scale for r in rounds]),
        "peak_rss_mb": rss,
    }


def figures(workload, rounds) -> list[tuple[str, float, str, str]]:
    """The workload's own breakdown: (name, value, unit, how it was taken)."""
    out = []
    for label, (name, unit, factor) in workload.figures.items():
        samples = [(end - start) * r.scale for r in rounds for lab, start, end in r.timings if lab == label]
        if samples:
            out.append((name, factor * statistics.median(samples), unit, f"median of {len(samples)}"))
    ops = sum(r.ops for r in rounds)
    busy = sum(r.seconds * r.scale for r in rounds)
    out.append((f"{workload.op_name}_per_s", ops / busy, "1/s", f"{ops} over {busy:.1f} s"))
    return out


def per_layer(workload, spans, rounds, traced_flags) -> tuple[dict, dict]:
    """(per-layer metric values, per (name, kind, n) table) from the spans."""
    from spans import per_call_self_seconds

    values = {}
    for name, (mean_s, _) in per_call_self_seconds(spans, key=lambda s: s.name).items():
        unit, factor = SPAN_UNITS.get(name, DEFAULT_SPAN_UNIT)
        values[f"{name}_{unit}"] = factor * mean_s
    scans = [s for s in spans if s.name == "isospectral.spectral_scan"]
    points = sum(s.attrs["points"] for s in scans)
    values["isospectral.spectral_scan_us_per_point"] = 1e6 * sum(s.end - s.start for s in scans) / points
    values["isospectral.scan_valid_ratio"] = sum(s.attrs["valid"] for s in scans) / points
    values["identities.max_residual"] = workload.max_identity_residual
    values["cli.import_s"] = workload.import_s
    traced = [r.seconds * r.scale for r, on in zip(rounds, traced_flags) if on]
    untraced = [r.seconds * r.scale for r, on in zip(rounds, traced_flags) if not on]
    values["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced))
    values["count.ops_per_round"] = rounds[0].ops
    values["count.valid_per_round"] = rounds[0].valid
    table = {
        f"{name}{suffix}": {"self_ms_per_call": 1e3 * mean_s, "calls": calls}
        for (name, suffix), (mean_s, calls) in sorted(per_call_self_seconds(spans).items())
    }
    return values, table


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import smoothschur

    import_s = time.perf_counter() - started
    if Path(smoothschur.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"imported smoothschur from {smoothschur.__file__}, not from {ROOT / 'src'}")
    from calibration import Calibration
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    clock = time.perf_counter
    tracer = Tracer(bool(args.trace), clock)
    workload = WORKLOADS[args.workload](ROOT, args.seed, tracer, clock)
    calibration = Calibration(clock)
    try:
        calibration.block()
        setups, setups_scaled = [], []
        for _ in range(SETUP_REPEATS):
            start = workload.time_import()
            t0 = clock()
            workload.setup()
            setups.append(start + clock() - t0)
            setups_scaled.append(setups[-1] * calibration.scale_since_previous_block())
        rounds, traced_flags = [], []
        t0 = clock()
        # start a round only if a round of average length still fits
        while len(rounds) < MIN_ROUNDS or (clock() - t0) * (1 + 1 / len(rounds)) <= args.seconds:
            tracer.enabled = bool(args.trace) and len(rounds) % 2 == 1
            traced_flags.append(tracer.enabled)
            rounds.append(workload.run_round())
            rounds[-1].scale = calibration.scale_since_previous_block()
        if args.trace:
            tracer.enabled = True
            workload.probe()
        counts = workload.counts()
    finally:
        workload.close()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e = end_to_end(rounds, statistics.median(setups_scaled), peak_rss_mb(args.workload == "cli"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "round_timings": [r.timings for r in rounds],
        "round_scales": [r.scale for r in rounds],
        "calibration_blocks_s": calibration.blocks,
        "import_s": import_s,
        "setup_repeats_s": {"wall": setups, "scaled": setups_scaled},
        "unscaled_round_s": lower_quartile([r.seconds for r in rounds]),
        "end_to_end": e2e,
        "figures": {n: {"value": v, "unit": u, "taken": k} for n, v, u, k in figures(workload, rounds)},
        "fail_frac": failed / attempted,
        "counts": counts,
    }
    if args.trace:
        values, table = per_layer(workload, tracer.spans, rounds, traced_flags)
        record["per_layer"] = values
        record["layers_by_kind_and_n"] = table
        tracer.write(out_dir / f"{stem}.spans.jsonl")
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"commit {env['commit'][:12]}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']}  nproc {env['nproc']}  threads 1")
    taken = {
        "setup_s": f"median of {SETUP_REPEATS}",
        "round_s": f"lower quartile of {len(rounds)}",
        "peak_rss_mb": "peak of the run",
    }
    for name, value, unit, how in figures(workload, rounds):
        print(f"  {name:<44} {value:12.4f} {unit:<6} {how}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:12.4f} {m['unit']:<6} {taken.get(name, '')}")
    for name, value in counts.items():
        print(f"  {name:<44} {value:12d} per round")
    print(f"  {'fail_frac':<44} {failed / attempted:12.4f} of {attempted} checked")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
