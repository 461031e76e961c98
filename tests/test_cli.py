import json
import pathlib

from germforge.cli import main

DATA = pathlib.Path(__file__).parent / "data"

S1_GERM = {
    "variables": ["u", "v"],
    "components": ["u", "v^2", "v^3 + u^2*v"],
    "order": 6,
    "mode": "exact",
}


def write_germ(tmp_path, data, name="germ.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_s1_label(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "classify", "--input", path)
        assert code == 0, err
        report = json.loads(out)
        assert report["class"]["label"] == "S1+"
        assert report["class"]["singular_point_type"] == "degenerate-inflection"
        assert report["normal_form"]["mode"] == "float"

    def test_output_file_deterministic(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(capsys, "classify", "--input", path, "--output", str(out1))[0] == 0
        assert run(capsys, "classify", "--input", path, "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classify", "--input", "/nonexistent.json")
        assert code == 1
        assert "error" in json.loads(err)

    def test_bad_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 1
        assert "error" in json.loads(err)

    def test_cross_cap_label(self, tmp_path, capsys):
        germ = dict(S1_GERM, components=["u", "v^2", "u*v"])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 0
        assert json.loads(out)["class"]["label"] == "S0"

    def test_hk_detection(self, tmp_path, capsys):
        germ = dict(S1_GERM, components=["u", "u*v + v^5", "v^3"])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 0
        assert json.loads(out)["class"]["tag"] == "TWO_JET_UV"


class TestGeometry:
    def test_sweep_has_samples(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, _ = run(capsys, "geometry", "--input", path, "--theta-samples", "16")
        assert code == 0
        geo = json.loads(out)["geometry"]
        assert geo["n"] == 1
        assert len(geo["samples"]) == 16
        # the pi/2 sample keeps the finite quantities and drops the divided ones
        last = geo["samples"][-1]
        assert last["K0"] is None
        assert last["k10"] is not None


class TestDistance:
    def test_probes_from_file(self, tmp_path, capsys):
        germ = dict(S1_GERM, probes=[[0, 0, 2], [1, 0, 0]],
                    theta_lambda=[[0.4, 0.7]])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "distance", "--input", path)
        assert code == 0
        dist = json.loads(out)["distance"]
        assert len(dist["probes"]) == 2
        assert dist["probes"][1]["sing_type"] == "Regular"
        assert len(dist["normal_directions"]) == 1


class TestFocal:
    def test_degenerate_inflection_single_line(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, _ = run(capsys, "focal", "--input", path)
        assert code == 0
        focal = json.loads(out)["focal_locus"]
        assert focal["kind"] == "SingleLine"

    def test_intersecting_pair(self, tmp_path, capsys):
        germ = dict(S1_GERM, components=["u", "v^2 + u^2", "v^3 + u^2*v + u^2"])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "focal", "--input", path)
        assert code == 0
        focal = json.loads(out)["focal_locus"]
        assert focal["kind"] == "IntersectingPair"


class TestMesh:
    def test_surface_obj(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        out_path = tmp_path / "m.obj"
        code, out, _ = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", "surface", "--grid", "8x8",
        )
        assert code == 0
        assert json.loads(out)["mesh"]["vertices"] == 64
        text = out_path.read_text().splitlines()
        assert text[0].startswith("v ")
        assert text[-1].startswith("f ")

    def test_wavefront_csv_blowup(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        out_path = tmp_path / "m.csv"
        code, out, _ = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", "wavefront", "--chart", "blowup", "--grid", "9x12",
            "--t0", "0.2", "--format", "csv",
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,z"

    def test_exact_mode_direct_wavefront(self, tmp_path, capsys):
        # v^2 is already 1/2*v^2, so the normal form stays exact
        germ = dict(S1_GERM, components=["u", "1/2*v^2", "v^3 + u^2*v"])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 0 and json.loads(out)["normal_form"]["mode"] == "exact"
        out_path = tmp_path / "w.obj"
        code, out, err = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", "wavefront", "--t0", "0.1", "--grid", "9x9",
        )
        assert code == 0, err
        summary = json.loads(out)["mesh"]
        # the odd grid puts a node on the singular point, which is dropped
        assert (summary["vertices"], summary["skipped"]) == (80, 1)
        lines = out_path.read_text().splitlines()
        assert sum(line.startswith("v ") for line in lines) == 80
        assert sum(line.startswith("f ") for line in lines) == summary["faces"]

    def test_focal_mesh(self, tmp_path, capsys):
        germ = dict(S1_GERM, components=["u", "v^2 + u^2", "v^3 + u^2*v"])
        path = write_germ(tmp_path, germ)
        out_path = tmp_path / "f.obj"
        code, out, _ = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", "focal", "--grid", "9x16",
        )
        assert code == 0
        assert json.loads(out)["mesh"]["kind"] == "focal-sheet"


class TestVerify:
    def test_verify_exits_zero(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, _ = run(
            capsys, "verify", "--input", path, "--samples", "25", "--seed", "3"
        )
        assert code == 0, out
        result = json.loads(out)
        assert result["oracle_equivalence"]["mismatches"] == []
        assert result["versality_dual"]["mismatches"] == []
        table = result["crosscheck"]["entries"]
        assert table
        assert not any(e["hard_mismatch"] for e in table)

    def test_verify_stdout_pinned(self, tmp_path, capsys):
        # captured before verify and the mesh summary shared germ_io.write_json
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(
            capsys, "verify", "--input", path, "--samples", "10", "--seed", "3"
        )
        assert code == 0, err
        assert out == (DATA / "verify_s1_samples10_seed3.json").read_text()
        report = tmp_path / "verify.json"
        run(capsys, "verify", "--input", path, "--samples", "10", "--seed", "3",
            "--output", str(report))
        assert report.read_text() == out

    def test_verify_deterministic(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        _, out1, _ = run(capsys, "verify", "--input", path, "--samples", "10")
        _, out2, _ = run(capsys, "verify", "--input", path, "--samples", "10")
        assert out1 == out2


class TestModeOverride:
    def test_env_var_forces_float(self, tmp_path, capsys, monkeypatch):
        germ = dict(S1_GERM, components=["u", "1/2*v^2", "u^2*v + v^3"])
        path = write_germ(tmp_path, germ)
        code, out, _ = run(capsys, "classify", "--input", path)
        assert json.loads(out)["normal_form"]["mode"] == "exact"
        monkeypatch.setenv("GERMFORGE_MODE", "float")
        code, out, _ = run(capsys, "classify", "--input", path)
        assert json.loads(out)["normal_form"]["mode"] == "float"


class TestVerifyHardMismatch:
    def test_corrupted_reference_exits_two(self, tmp_path, capsys, monkeypatch):
        import germforge.closed_forms as cf

        broken = dict(cf._REFERENCE)
        broken["n21"] = lambda ctx, theta: 123.456
        monkeypatch.setattr(cf, "_REFERENCE", broken)
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, "--samples", "5")
        assert code == 2
        result = json.loads(out)
        assert any(
            e["hard_mismatch"] and e["symbol"] == "n21"
            for e in result["crosscheck"]["entries"]
        )
