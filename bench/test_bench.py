"""Tests of the benchmark itself: every workload runs at a tiny size and
prints every metric with its unit, and the checks can fail.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyFine(workloads.ScanFine2x2):
    step = 1e-2
    oracle_points = 50
    probe_points = 5


class TinyN64(workloads.ScanN64):
    dim = 8
    grid_shape = (4, 2)
    oracle_points = 4
    probe_points = 2


class TinyVerify(workloads.VerifyMix):
    dims = (4, 6, 8)


class TinyCli(workloads.Cli):
    gen_dim = 8
    scan_count = 51
    fuzz_trials = 4
    oracle_points = 10


TINY = {
    "scan-fine-2x2": (TinyFine, ["scan_s"]),
    "scan-n64": (TinyN64, ["scan_s"]),
    "verify-mix": (TinyVerify, ["pair_ms.n4", "pair_ms.n6", "pair_ms.n8", "pairs_per_s"]),
    "cli": (TinyCli, [f"cli_{c}_s" for c in workloads.Cli.COMMANDS]),
}


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_unit(name, trace, monkeypatch, capsys):
    cls, figure_names = TINY[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    text = "\n".join(lines[:-1])
    for figure in figure_names + ["fail_frac"]:
        assert any(line.split()[0] == figure and len(line.split()) >= 3 for line in text.splitlines()), figure


def test_perturbed_sigma_fails_the_scan_check():
    wl = TinyFine(ROOT, 3, Tracer(False, lambda: 0.0), lambda: 0.0)
    wl.setup()
    try:
        result = workloads.ss.spectral_scan(wl.H, wl.T, wl.partition, wl.grid)
        clean = workloads.Round()
        wl.check(clean, result)
        assert clean.attempted > 1 and clean.failed == 0
        result.f_smallest_sv = [sv + 1e-6 for sv in result.f_smallest_sv]
        perturbed = workloads.Round()
        wl.check(perturbed, result)
        assert perturbed.failed / perturbed.attempted > 0
    finally:
        wl.close()


def test_missing_flag_fails_the_criterion_6_check():
    wl = TinyFine(ROOT, 3, Tracer(False, lambda: 0.0), lambda: 0.0)
    wl.setup()
    try:
        result = workloads.ss.spectral_scan(wl.H, wl.T, wl.partition, wl.grid)
        result.flagged_eigenvalues = result.flagged_eigenvalues[:1]
        rnd = workloads.Round()
        wl.check(rnd, result)
        assert rnd.failed == 1
    finally:
        wl.close()


def test_self_time_subtracts_child_coverage():
    from spans import Span, self_times

    spans = [
        Span(0, "outer", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),
        Span(3, "inner", 1.5, 2.0, 1, 0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}
