import json
import warnings

import numpy as np
import pytest

from smoothschur.cli import main
from smoothschur.errors import MatrixFileError
from smoothschur.matio import matrix_from_dict, read_matrix, write_matrix

from conftest import crandn


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

    def test_wrong_entry_count(self):
        obj = {"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]}
        with pytest.raises(MatrixFileError, match="expected 4"):
            matrix_from_dict(obj)


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

    def test_worked_fixture(self, capsys):
        code = main(["check", "fixtures/worked2x2"])
        assert code == 0

    def test_corrupt_file_exits_2(self, instance_dir, capsys):
        (instance_dir / "H.json").write_text("{broken")
        assert main(["check", str(instance_dir)]) == 2

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

    def test_bad_kind_exits_2(self):
        assert main(["fuzz", "--trials", "1", "--kinds", "bogus"]) == 2

    def test_empty_dim_range_exits_2(self, capsys):
        assert main(["fuzz", "--trials", "1", "--dim-min", "5", "--dim-max", "3"]) == 2
        assert "error:" in capsys.readouterr().err
