import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothschur import cli, isospectral
from smoothschur.cli import main
from smoothschur.errors import MatrixFileError
from smoothschur.instances import KINDS, _generate_pair
from smoothschur.matio import matrix_from_dict, read_matrix, write_matrix

from conftest import crandn

GOLDEN_CRITERION_6 = Path(__file__).parent / "data" / "criterion6_worked2x2.csv"
GOLDEN_CHECK = Path(__file__).parent / "data" / "check_worked2x2.json"
GOLDEN_REDUCE = Path(__file__).parent / "data" / "reduce_worked2x2.json"
GOLDEN_FUZZ = Path(__file__).parent / "data" / "fuzz_seed1.json"

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_ENTRY = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)


@st.composite
def _matrix_dicts(draw):
    """JSON-like dicts: a well-formed matrix dict with some of its keys
    dropped or replaced, by any JSON value, a small integer, or a list of
    entries some of which may be ints past float range (valid JSON)."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    obj = {"rows": rows, "cols": cols}
    for part in ("re", "im"):
        obj[part] = draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols))
    bad_entries = st.lists(_ENTRY | st.integers(2 * 10**308, 10**400), max_size=9)
    for key in draw(st.sets(st.sampled_from(sorted(obj)))):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON | st.integers(-1, 3) | bad_entries)
    return obj


class TestMatrixIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        M = crandn(rng, 5, 3)
        path = tmp_path / "m.json"
        write_matrix(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)  # bit-exact via shortest round-trip floats

    def test_invalid_json_names_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "re": [1, 2, 3, }')
        with pytest.raises(MatrixFileError, match=r"line \d+, column \d+"):
            read_matrix(path)

    def test_non_numeric_token_names_index(self):
        obj = {"rows": 2, "cols": 1, "re": [1.0, "x"], "im": [0.0, 0.0]}
        with pytest.raises(MatrixFileError, match="index 1"):
            matrix_from_dict(obj)

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_infinite_entry_is_non_finite(self, part):
        # JSON's Infinity parses to a float; it is rejected before the parts
        # are combined, so an infinite imaginary part warns of nothing
        obj = {"rows": 1, "cols": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]}
        obj[part][1] = float("inf")
        with pytest.raises(MatrixFileError, match="non-finite entry"):
            matrix_from_dict(obj)

    def test_wrong_entry_count(self):
        obj = {"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]}
        with pytest.raises(MatrixFileError, match="expected 4"):
            matrix_from_dict(obj)

    @settings(max_examples=300, deadline=None)
    @given(obj=_matrix_dicts())
    def test_matrix_from_dict_returns_a_matrix_or_raises_matrix_file_error(self, obj):
        try:
            A = matrix_from_dict(obj)
        except MatrixFileError:
            return
        assert A.dtype == complex and A.shape == (obj["rows"], obj["cols"])
        assert np.isfinite(A).all()


def _assert_matches_golden(got, want, where="report"):
    """got has want's keys, lengths, types, strings, booleans and integers
    exactly, and each float within 1e-12 absolute or relative."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert got == want, where


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    assert main(["gen", "--dim", "5", "--kind", "smooth", "--scale", "0.2",
                 "--seed", "9", "--out", str(out)]) == 0
    return out


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--dim", "4", "--kind", "sharp", "--seed", "42",
                         "--out", str(out)]) == 0
        for name in ("H.json", "T.json", "chi.json", "chibar.json", "instance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_exits_2(self, tmp_path, capsys, scale):
        out = tmp_path / "bad"
        assert main(["gen", "--dim", "4", "--scale", scale, "--out", str(out)]) == 2
        assert "error: perturbation_scale must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_scale_means_H_equals_T(self, tmp_path):
        out = tmp_path / "z"
        main(["gen", "--dim", "4", "--kind", "smooth", "--scale", "0", "--seed", "1",
              "--out", str(out)])
        assert (out / "H.json").read_bytes() == (out / "T.json").read_bytes()

    def test_sharp_rank(self, tmp_path):
        out = tmp_path / "s"
        main(["gen", "--dim", "4", "--kind", "sharp", "--seed", "5", "--out", str(out)])
        chi = read_matrix(out / "chi.json")
        s = np.linalg.svd(chi, compute_uv=False)
        assert np.sum(s > 0.5) == 2  # rank-2 projection: singular values 1,1,0,0
        assert np.allclose(np.sort(s), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


class TestCheck:
    def test_valid_instance_passes(self, instance_dir, capsys):
        code = main(["check", str(instance_dir), "--json", str(instance_dir / "r.json")])
        assert code == 0
        report = json.loads((instance_dir / "r.json").read_text())
        assert report["schema"] == "1.0"
        assert report["summary"]["pass"] is True
        assert "summary: PASS" in capsys.readouterr().out

    def test_worked_fixture(self, tmp_path, capsys):
        # the committed report is this command's as recorded with NumPy 2.4;
        # every key, label, note and verdict must match it exactly, and each
        # number to within the rounding another LAPACK or BLAS build may move
        path = tmp_path / "check.json"
        assert main(["check", "fixtures/worked2x2", "--json", str(path)]) == 0
        _assert_matches_golden(json.loads(path.read_text()), json.loads(GOLDEN_CHECK.read_text()))

    def test_invalid_pair_exits_1(self, tmp_path, capsys):
        # a T that does not commute with chi is a pair build_pair rejects:
        # a property failure, not a usage error
        for name in ("H", "chi", "chibar"):
            (tmp_path / f"{name}.json").write_bytes(Path(f"fixtures/worked2x2/{name}.json").read_bytes())
        write_matrix(tmp_path / "T.json", np.array([[2.0, 0.5], [0.5, 3.0]]))
        assert main(["check", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: chi does not commute with T: residual ")

    def test_kernel_failure_is_labelled(self, tmp_path, capsys, monkeypatch):
        # no residual is at or below a negative threshold, so only the kernel
        # correspondence fails, and its label is the one failure
        monkeypatch.setattr(isospectral, "_KERNEL_THRESHOLD", -1.0)
        path = tmp_path / "check.json"
        assert main(["check", "fixtures/worked2x2", "--json", str(path)]) == 1
        report = json.loads(path.read_text())
        assert report["kernel"]["pass"] is False
        assert report["summary"] == {"pass": False, "failures": ["kernel_correspondence"]}
        out = capsys.readouterr().out
        assert "roundtrip 0.000e+00 -> FAIL" in out and "summary: FAIL" in out

    def test_corrupt_file_exits_2(self, instance_dir, capsys):
        (instance_dir / "H.json").write_text("{broken")
        assert main(["check", str(instance_dir)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rows": true, "cols": 1, "re": [1.0], "im": [0.0]}', "rows/cols must be positive integers"),
            ('{"rows": 1, "cols": 1, "re": 1.0, "im": [0.0]}', "re must be a list, got float"),
            ('{"rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0.0]}', "entry out of float range"),
            ("[1.0, 0.0]", "expected a JSON object"),
            ("null", "expected a JSON object"),
        ],
        ids=["bool-rows", "scalar-re", "400-digit-entry", "list", "null"],
    )
    def test_malformed_matrix_exits_2(self, instance_dir, capsys, text, message):
        (instance_dir / "H.json").write_text(text)
        assert main(["check", str(instance_dir)]) == 2
        assert capsys.readouterr().err == f"error: {instance_dir / 'H.json'}: {message}\n"

    @pytest.mark.parametrize(
        "command", [["check"], ["scan", "--re-min", "0", "--re-max", "1", "--re-count", "2"], ["reduce"]],
        ids=["check", "scan", "reduce"],
    )
    def test_non_square_instance_exits_2(self, tmp_path, capsys, command):
        for name in ("H", "T", "chi", "chibar"):
            write_matrix(tmp_path / f"{name}.json", np.ones((2, 3)))
        assert main([command[0], str(tmp_path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: matrices must be square, got 2x3\n"

    def test_inconsistent_shapes_exit_2(self, tmp_path, capsys):
        for name in ("H", "T", "chi", "chibar"):
            write_matrix(tmp_path / f"{name}.json", np.eye(2 if name == "H" else 3))
        assert main(["check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: inconsistent matrix shapes ")

    def test_missing_dir_exits_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--rank-tol", "0"), ("--res-tol", "-1"), ("--rank-tol", "nan"), ("--res-tol", "inf")]
    )
    def test_bad_tolerance_exits_2(self, capsys, flag, value):
        assert main(["check", "fixtures/worked2x2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive and finite" in err


class TestScan:
    def test_csv_and_flags(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code = main(["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "5",
                     "--re-count", "501", "--out", str(csv_path), "--json", str(json_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,smallest_sv,pair_valid"
        assert len(lines) == 502
        payload = json.loads(json_path.read_text())
        flagged = [complex(re, im) for re, im in payload["flagged_eigenvalues"]]
        for eig in ((5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2):
            assert min(abs(z - eig) for z in flagged) <= 0.01

    def test_csv_to_stdout_without_out(self, tmp_path, capsys):
        # without --out stdout is the CSV alone, byte for byte what --out
        # writes, and the summary line that --out leaves on stdout goes to
        # stderr
        argv = ["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "5", "--re-count", "11"]
        csv_path = tmp_path / "scan.csv"
        assert main([*argv, "--out", str(csv_path)]) == 0
        with_out = capsys.readouterr()
        assert with_out.out.startswith("flagged ") and with_out.err == ""
        assert main(argv) == 0
        without_out = capsys.readouterr()
        assert without_out.out == csv_path.read_text()
        assert without_out.err == with_out.out

    def test_json_is_strict_with_null_at_gaps(self, tmp_path):
        # 2 and 3 are eigenvalues of T, so the grid has gaps; a gap's sigma
        # is null, and the file parses without NaN or Infinity tokens
        json_path = tmp_path / "scan.json"
        assert main(["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "5",
                     "--re-count", "11", "--out", str(tmp_path / "scan.csv"), "--json", str(json_path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(json_path.read_text(), parse_constant=reject)
        svs, valid = payload["f_smallest_sv"], payload["pair_valid"]
        assert not all(valid) and any(valid)
        assert [sv is None for sv in svs] == [not ok for ok in valid]
        assert all(isinstance(sv, float) for sv in svs if sv is not None)

    def test_criterion_6_csv_matches_golden(self, tmp_path):
        # the committed CSV is the criterion-6 scan as recorded with NumPy
        # 2.4; the grid and the validity column must match it exactly, and
        # sigma to within the rounding another LAPACK or BLAS build may move
        csv_path = tmp_path / "scan.csv"
        assert main(["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "5",
                     "--re-count", "5001", "--out", str(csv_path)]) == 0
        got = [line.split(",") for line in csv_path.read_text().splitlines()]
        want = [line.split(",") for line in GOLDEN_CRITERION_6.read_text().splitlines()]
        assert len(got) == len(want) == 5002 and got[0] == want[0]
        for column in (0, 1, 3):
            assert [row[column] for row in got] == [row[column] for row in want]
        sv = np.array([float(row[2]) for row in got[1:]])
        np.testing.assert_allclose(sv, [float(row[2]) for row in want[1:]], rtol=1e-12, atol=1e-15)

    def test_empty_grid_exits_2(self):
        code = main(["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "1",
                     "--re-count", "0"])
        assert code == 2

    @pytest.mark.parametrize("bounds", [("nan", "1"), ("0", "inf")])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, bounds):
        csv_path = tmp_path / "scan.csv"
        code = main(["scan", "fixtures/worked2x2", "--re-min", bounds[0], "--re-max", bounds[1],
                     "--re-count", "3", "--out", str(csv_path)])
        assert code == 2
        assert "error: spectral scan grid has a non-finite point" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_axis_wider_than_the_largest_float(self, tmp_path, capsys):
        # re-max - re-min is 2e308, beyond the largest float; every point is finite
        csv_path = tmp_path / "scan.csv"
        code = main(["scan", "fixtures/worked2x2", "--re-min=-1e308", "--re-max=1e308",
                     "--re-count", "3", "--out", str(csv_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",")[:2] for line in csv_path.read_text().splitlines()[1:]]
        assert rows == [["-1e+308", "0.0"], ["0.0", "0.0"], ["1e+308", "0.0"]]

    @pytest.mark.parametrize("flag", ["--re-min", "--re-max", "--im-min", "--im-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_bound_rejected_before_the_grid(self, tmp_path, capsys, flag, value):
        # linspace over a non-finite bound warns; the bound is rejected first,
        # so stderr holds the error line alone
        bounds = {"--re-min": "0", "--re-max": "1", "--im-min": "0", "--im-max": "1", flag: value}
        argv = ["scan", "fixtures/worked2x2", "--re-count", "3", "--im-count", "2"]
        csv_path = tmp_path / "scan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + [f"{k}={v}" for k, v in bounds.items()] + ["--out", str(csv_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: spectral scan grid has a non-finite point: {flag} {float(value)}\n"
        assert not csv_path.exists()


class TestReduce:
    def test_chain(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["gen", "--dim", "8", "--kind", "sharp", "--scale", "0.1", "--seed", "17",
              "--out", str(out)])
        json_path = tmp_path / "red.json"
        code = main(["reduce", str(out), "--stages", "2", "--json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["dims"] == [8, 4, 2]
        assert payload["H_invertible"] == payload["final_invertible"]

    def test_worked_fixture(self, tmp_path, capsys):
        # one stage of worked_2x2 leaves the 1 x 1 effective operator [[5/3]]
        path = tmp_path / "reduce.json"
        assert main(["reduce", "fixtures/worked2x2", "--stages", "1", "--json", str(path)]) == 0
        _assert_matches_golden(json.loads(path.read_text()), json.loads(GOLDEN_REDUCE.read_text()))
        assert capsys.readouterr().out == (
            "reduction chain: 2 -> 1\n"
            "H invertible: True; final effective operator invertible: True\n"
        )

    def test_reads_h_alone(self, instance_dir, tmp_path, capsys):
        # reduce reads only H.json: a directory holding H alone, or H beside
        # a malformed T, chi and chibar, reports the same bytes as the full one
        alone, malformed = tmp_path / "alone", tmp_path / "malformed"
        for directory in (alone, malformed):
            directory.mkdir()
            (directory / "H.json").write_bytes((instance_dir / "H.json").read_bytes())
        for name in ("T", "chi", "chibar"):
            (malformed / f"{name}.json").write_text("not json")
        reports = []
        for directory in (instance_dir, alone, malformed):
            path = tmp_path / f"{directory.name}.json"
            assert main(["reduce", str(directory), "--stages", "2", "--json", str(path)]) == 0
            reports.append(path.read_bytes())
        assert reports[1:] == [reports[0]] * 2

    @pytest.mark.parametrize("stages", ["0", "-1"])
    def test_no_stages_exits_2(self, instance_dir, capsys, stages):
        assert main(["reduce", str(instance_dir), "--stages", stages]) == 2
        assert "error:" in capsys.readouterr().err

    def test_1x1_instance_exits_2(self, tmp_path, capsys):
        for name in ("H", "T", "chi", "chibar"):
            write_matrix(tmp_path / f"{name}.json", np.eye(1))
        assert main(["reduce", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFuzz:
    def test_deterministic_json(self, tmp_path):
        outs = []
        for name in ("f1.json", "f2.json"):
            path = tmp_path / name
            code = main(["fuzz", "--trials", "12", "--seed", "7", "--json", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_matches_golden(self, tmp_path, capsys):
        # the committed report was recorded with NumPy 2.4; its residuals
        # come from random instances, so their last bits can follow the BLAS
        path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--trials", "30", "--seed", "1", "--dim-max", "6", "--json", str(path)]) == 0
        _assert_matches_golden(json.loads(path.read_text()), json.loads(GOLDEN_FUZZ.read_text()))

    def test_single_kind(self, tmp_path):
        path = tmp_path / "f.json"
        code = main(["fuzz", "--trials", "9", "--kinds", "nonselfadjoint", "--seed", "3",
                     "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["failures"] == 0

    def test_max_residuals_cover_check_labels(self, instance_dir, tmp_path):
        check_json, fuzz_json = tmp_path / "c.json", tmp_path / "f.json"
        assert main(["check", str(instance_dir), "--json", str(check_json)]) == 0
        assert main(["fuzz", "--trials", "3", "--seed", "1", "--json", str(fuzz_json)]) == 0
        reports = json.loads(check_json.read_text())["reports"]
        labels = {entry["label"] for entries in reports.values() for entry in entries}
        assert labels <= set(json.loads(fuzz_json.read_text())["max_residuals"])

    def test_failures_counted(self, tmp_path):
        # no identity residual is within 1e-30, so every trial fails check
        path = tmp_path / "f.json"
        assert main(["fuzz", "--trials", "2", "--seed", "1", "--res-tol", "1e-30", "--json", str(path)]) == 1
        payload = json.loads(path.read_text())
        assert payload["failures"] >= 2 and payload["summary"]["pass"] is False

    def test_trials_cover_every_kind_and_scale(self, monkeypatch):
        # the kind cycles fastest and the scale once per round of kinds, so
        # nine trials draw each of the nine kind x scale pairs once
        specs = []

        def recording(spec, tol):
            specs.append(spec)
            return _generate_pair(spec, tol)

        monkeypatch.setattr(cli, "_generate_pair", recording)
        assert main(["fuzz", "--trials", "9", "--seed", "2"]) == 0
        pairs = {(spec.partition_kind, spec.perturbation_scale) for spec in specs}
        assert len(specs) == 9 and pairs == {(kind, scale) for kind in KINDS for scale in (0.0, 0.1, 0.45)}

    def test_bad_kind_exits_2(self):
        assert main(["fuzz", "--trials", "1", "--kinds", "bogus"]) == 2

    def test_empty_dim_range_exits_2(self, capsys):
        assert main(["fuzz", "--trials", "1", "--dim-min", "5", "--dim-max", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exits_2(self, capsys, trials):
        assert main(["fuzz", "--trials", trials]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1\n"


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--dim", "4", "--out", "{tmp}/inst"],
            ["check", "fixtures/worked2x2", "--json", "{tmp}/check.json"],
            ["scan", "fixtures/worked2x2", "--re-min", "0", "--re-max", "5", "--re-count", "11",
             "--out", "{tmp}/scan.csv", "--json", "{tmp}/scan.json"],
            ["reduce", "fixtures/worked2x2", "--json", "{tmp}/reduce.json"],
            ["fuzz", "--trials", "1", "--json", "{tmp}/fuzz.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_option_is_read(self, argv, tmp_path, capsys):
        # an option that its command never reads is one the user can set to
        # no effect; parsing reads the namespace too, so the record starts
        # after it
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = cli.build_parser().parse_args([a.format(tmp=tmp_path) for a in argv], namespace=Recording())
        reads.clear()
        assert args.func(args) in (0, 1)
        assert set(vars(args)) - {"func", "command"} - reads == set()

    def test_gen_takes_no_json(self, tmp_path, capsys):
        out, report = tmp_path / "inst", tmp_path / "report.json"
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "--dim", "4", "--out", str(out), "--json", str(report)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        assert not out.exists() and not report.exists()
