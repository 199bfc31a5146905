"""Where chibar W chibar vanishes, H_chibar is T bit for bit, and the chibar
blocks K and T_block are one matrix: build_pair gates and decomposes it
once, and a scan certifies it once and drops H_chibar's gate.  Each output
must be the one the two-block path gives, which pairs._same_bits patched to
False forces."""
import numpy as np
import pytest

from smoothschur import build_pair, isospectral, make_sharp, pairs, spectral_scan, worked_2x2
from smoothschur.cli import main
from smoothschur.instances import InstanceSpec, generate
from smoothschur.isospectral import _ShiftedScan
from smoothschur.matio import write_matrix
from smoothschur.pairs import _shift_invariants

from conftest import KINDS, crandn


def _classical(n, seed):
    """A classical Schur complement: chi the coordinate projection onto the
    first n // 2 axes, T the block diagonal of a seeded H, and W = H - T."""
    H = crandn(np.random.default_rng(seed), n)
    m = n // 2
    T = np.zeros_like(H)
    T[:m, :m], T[m:, m:] = H[:m, :m], H[m:, m:]
    return H, T, make_sharp(np.diag(np.arange(n) < m).astype(complex))


def _shared_instance(name):
    """(H, T, partition) of a named instance whose chibar W chibar vanishes.
    In "noncommuting" T is a classical T plus a random 1e-11, so its
    commutation and leak residuals keep T's threshold gate in a scan; H is
    that T plus the classical W, so H and T still agree on the diagonal
    blocks, where W is exactly 0."""
    if name == "worked_2x2":
        inst = worked_2x2()
        return inst.H, inst.T, inst.partition
    kind, n = name.rsplit("-", 1)
    if kind == "classical":
        return _classical(int(n), 5)
    if kind == "noncommuting":
        H, T, partition = _classical(int(n), 5)
        T_moved = T + 1e-11 * crandn(np.random.default_rng(6), int(n))
        return T_moved + (H - T), T_moved, partition
    inst = generate(InstanceSpec(dim=int(n), partition_kind=kind, perturbation_scale=0.0, seed=3))
    return inst.H, inst.T, inst.partition


SHARED = ["worked_2x2", *(f"{kind}-{n}" for kind in (*KINDS, "classical") for n in (8, 64)), "noncommuting-8"]


def _grid(H, T, partition):
    """Shifts across the spectrum of H, on and one rank cutoff off each
    eigenvalue of T_block, where the rank tests fall to the SVD."""
    ev = np.linalg.eigvals(H)
    t_block = _shift_invariants(H, T, partition).T_block
    poles = np.linalg.eigvals(t_block)
    near = poles + 3e-10 * np.linalg.norm(t_block, 2) * t_block.shape[0]
    return [*np.linspace(ev.real.min() - 1, ev.real.max() + 1, 41) + 0.05j, *poles, *near, *ev[:4]]


def _outputs(H, T, partition, grid):
    """The pair's evidence and block_svs, and each ScanResult field, by repr."""
    pair = build_pair(H, T, partition)
    evidence = [(e.label, e.residual, e.threshold, e.note) for e in pair.evidence]
    scan = spectral_scan(H, T, partition, grid)
    return {"evidence": repr(evidence), "block_svs": repr(pair.block_svs), **{k: repr(v) for k, v in vars(scan).items()}}


@pytest.fixture
def unshared(monkeypatch):
    """Run a callable with no pair or scan sharing its chibar block."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(pairs, "_same_bits", lambda A, B: False)
            return fn(*args)

    return run


@pytest.fixture
def certificates(monkeypatch):
    """A one-item list counting the calls of isospectral._eigen_certificate."""
    count = [0]
    original = isospectral._eigen_certificate

    def counting(M):
        count[0] += 1
        return original(M)

    monkeypatch.setattr(isospectral, "_eigen_certificate", counting)
    return count


@pytest.mark.parametrize("name", SHARED)
def test_sharing_leaves_every_output_bit_identical(name, unshared):
    H, T, partition = _shared_instance(name)
    fixed = _shift_invariants(H, T, partition)
    assert fixed.H_chibar is T and fixed.K is fixed.T_block and fixed.K_leak is fixed.T_leak
    grid = _grid(H, T, partition)
    shared = _outputs(H, T, partition, grid)
    fixed = unshared(_shift_invariants, H, T, partition)
    assert fixed.K is not fixed.T_block and np.array_equal(fixed.K, fixed.T_block)
    assert unshared(_outputs, H, T, partition, grid) == shared
    assert "True" in shared["pair_valid"] and "False" in shared["pair_valid"]


@pytest.mark.parametrize("name", ["worked_2x2", "nonselfadjoint-8", "classical-8", "classical-64"])
def test_sharing_leaves_the_reports_bit_identical(name, unshared, tmp_path, capsys):
    H, T, partition = _shared_instance(name)
    directory = tmp_path / "instance"
    directory.mkdir()
    for file, M in zip(("H", "T", "chi", "chibar"), (H, T, partition.chi, partition.chibar)):
        write_matrix(directory / f"{file}.json", M)
    ev = np.linalg.eigvals(H)
    scan = ["--re-min", repr(float(ev.real.min() - 1)), "--re-max", repr(float(ev.real.max() + 1)),
            "--re-count", "61", "--im-min", "-0.5", "--im-max", "0.5", "--im-count", "3"]
    commands = [["check"], ["reduce", "--stages", "3"], ["scan", *scan, "--out", str(tmp_path / "{}.csv")]]

    def reports(side):
        written = []
        for command in commands:
            out = tmp_path / f"{side}-{command[0]}.json"
            main([command[0], str(directory), *(a.format(side) for a in command[1:]), "--json", str(out)])
            written.append(out.read_bytes())
        written.append((tmp_path / f"{side}.csv").read_bytes())
        return written

    assert unshared(reports, "unshared") == reports("shared")
    capsys.readouterr()


@pytest.mark.parametrize("name", SHARED)
def test_a_shared_block_is_gated_and_certified_once(name, monkeypatch, certificates):
    H, T, partition = _shared_instance(name)
    gated, nonsingular = [0], [0]
    gate_block, original = pairs._gate_block, _ShiftedScan._nonsingular

    def counting_gate(*args):
        gated[0] += 1
        return gate_block(*args)

    def counting_rank(self, *args):
        nonsingular[0] += 1
        return original(self, *args)

    monkeypatch.setattr(pairs, "_gate_block", counting_gate)
    monkeypatch.setattr(_ShiftedScan, "_nonsingular", counting_rank)
    pair = build_pair(H, T, partition)
    assert gated[0] == 1 and pair.K is pair.T_block and pair.H_chibar is pair.T
    assert pair.block_svs["T"] == pair.block_svs["H_chibar"]
    grid = _grid(H, T, partition)
    scan = _ShiftedScan(H, T, partition)
    assert len(scan.blocks) == 1 and certificates[0] == 1
    # H_chibar's gate is dropped: T's, where it remains, checks the same leak
    assert [len(gate.checks) for gate in scan.gates] == ([3] if name.startswith("noncommuting") else [])
    spectral_scan(H, T, partition, grid)
    # the grid is one chunk of the validity pass, so the block's rank test runs once
    assert certificates[0] == 2 and nonsingular[0] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_generic_blocks_are_certified_twice(kind, certificates):
    inst = generate(InstanceSpec(dim=8, partition_kind=kind, perturbation_scale=0.1, seed=3))
    fixed = _shift_invariants(inst.H, inst.T, inst.partition)
    assert fixed.H_chibar is not inst.T and fixed.K is not fixed.T_block
    spectral_scan(inst.H, inst.T, inst.partition, _grid(inst.H, inst.T, inst.partition))
    assert certificates[0] == 2


def _one_ulp(name):
    """(H, T, partition): the shared instance with one diagonal entry of H
    inside ran(chibar) moved up by one ulp, so K differs from T_block there."""
    H, T, partition = _shared_instance(name)
    i = H.shape[0] - 1
    H = H.copy()
    H[i, i] = complex(np.nextafter(H[i, i].real, np.inf), H[i, i].imag)
    return H, T, partition


def _negative_zero(name):
    """(H, T, partition): the shared instance with a -0.0 in T off
    ran(chibar)'s block, where H_chibar = T + chibar W chibar reads +0.0."""
    H, T, partition = _shared_instance(name)
    T = T.copy()
    T[0, -1] = complex(-0.0, 0.0)
    return H, T, partition


@pytest.mark.parametrize("make", [_one_ulp, _negative_zero], ids=["one-ulp", "negative-zero"])
@pytest.mark.parametrize("name", ["worked_2x2", "classical-8"])
def test_nearly_equal_blocks_take_the_unshared_path(make, name, unshared, certificates):
    H, T, partition = make(name)
    fixed = _shift_invariants(H, T, partition)
    assert fixed.H_chibar is not T and fixed.K is not fixed.T_block
    if make is _one_ulp:
        moved = fixed.K != fixed.T_block
        assert moved.sum() == 1
        assert fixed.K[moved][0].real == np.nextafter(fixed.T_block[moved][0].real, np.inf)
    else:
        assert np.array_equal(fixed.H_chibar, T)  # equal values, but for the sign of a zero
        assert np.signbit(T[0, -1].real) and not np.signbit(fixed.H_chibar[0, -1].real)
    grid = _grid(H, T, partition)
    want = _outputs(H, T, partition, grid)
    assert certificates[0] == 2
    assert unshared(_outputs, H, T, partition, grid) == want
