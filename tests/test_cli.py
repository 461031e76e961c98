import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest

import germforge
from germforge.cli import main
from germforge.closed_forms import CROSSCHECK_SYMBOLS

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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

    @pytest.mark.parametrize(
        "flag, value", [("--order", "-3"), ("--order", "0"), ("--kmax", "-2"), ("--kmax", "0")]
    )
    def test_order_and_kmax_below_one_are_usage_errors(self, tmp_path, capsys, flag, value):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "classify", "--input", path, flag, value)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "%s must be >= 1" % flag}

    def test_order_override_reaches_the_report(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "classify", "--input", path, "--order", "1")
        assert code == 0, err
        assert json.loads(out)["germ"]["order"] == 1


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

    @pytest.mark.parametrize("kind", ["surface", "wavefront", "focal"])
    @pytest.mark.parametrize("grid", ["-3x4", "0x4", "1x1", "8x1"])
    def test_grid_below_two_is_usage_error(self, tmp_path, capsys, kind, grid):
        path = write_germ(tmp_path, S1_GERM)
        out_path = tmp_path / "m.obj"
        code, out, err = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", kind, "--grid=" + grid,
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "--grid sizes must be >= 2"}
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, name", [
        (["--kind", "focal", "--rmax", "0"], "r_max"),
        (["--extent", "0"], "extent"),
        (["--kind", "wavefront", "--chart", "blowup", "--rmax", "-1"], "r_max"),
        (["--kind", "wavefront", "--extent", "nan"], "extent"),
        (["--extent", "inf"], "extent"),
    ])
    def test_bad_extent_or_rmax_is_usage_error(self, tmp_path, capsys, argv, name):
        path = write_germ(tmp_path, S1_GERM)
        out_path = tmp_path / "m.obj"
        code, out, err = run(
            capsys, "mesh", "--input", path, "--output", str(out_path), "--grid", "8x8",
            *argv,
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "%s must be a finite positive number" % name}
        assert not out_path.exists()

    def test_infinite_extent_prints_one_line_in_a_fresh_process(self, tmp_path):
        # numpy warnings would reach stderr ahead of the error object
        path = write_germ(tmp_path, S1_GERM)
        proc = python("-m", "germforge.cli", "mesh", "--input", path,
                      "--output", str(tmp_path / "m.obj"), "--extent", "inf")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            '{"error": "extent must be a finite positive number"}'
        ]

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

    @pytest.mark.parametrize("samples", [5, 8])
    def test_theta_grid_leaves_out_the_principal_normal(self, tmp_path, capsys, samples):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, "--samples", "2",
                             "--theta-samples", str(samples))
        assert code == 0, err
        entries = json.loads(out)["crosscheck"]["entries"]
        for symbol in CROSSCHECK_SYMBOLS:
            thetas = [float(e["theta"]) for e in entries if e["symbol"] == symbol]
            assert len(thetas) == samples - 1
            assert all(abs(t) < math.pi / 2 - 1e-3 for t in thetas)
        assert len(entries) == len(CROSSCHECK_SYMBOLS) * (samples - 1)
        assert not any(e["hard_mismatch"] for e in entries)

    def test_negative_theta_samples_is_usage_error(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, _, err = run(capsys, "verify", "--input", path, "--theta-samples", "-1")
        assert code == 1
        assert json.loads(err) == {"error": "--theta-samples must not be negative"}

    def test_negative_samples_is_usage_error(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, "--samples", "-3")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "--samples must not be negative"}

    def test_verify_stdout_pinned(self, tmp_path, capsys):
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


class TestSpecialDirectionsPinned:
    """geometry and distance reports of an exact S1+ germ with a20, b2, a30 and
    b3 all nonzero.  Its theta-lambda pairs reach every branch of
    geometric_verdict: the principal normal at and away from the focal
    intersection, off the focal locus, focal off the ridge, and focal at the
    ridge and at the sub-parabolic direction; the last pair lies on the
    parabolic direction tan theta = a b2 / (m a20)."""

    GERM = DATA / "s1_special_directions_germ.json"

    @pytest.mark.parametrize("argv, name", [
        (["geometry", "--theta-samples", "16"], "s1_special_directions_geometry16.json"),
        (["distance"], "s1_special_directions_distance.json"),
    ])
    def test_report_pinned(self, capsys, argv, name):
        code, out, err = run(capsys, *argv, "--input", str(self.GERM))
        assert code == 0, err
        assert out == (DATA / name).read_text()

    def test_pairs_reach_every_branch(self):
        report = json.loads((DATA / "s1_special_directions_distance.json").read_text())
        pairs = report["distance"]["normal_directions"]
        assert [rec["sing_type"] for rec in pairs] == [
            "D4plus", "A2", "A1", "A2", "A3", "A2", "A1"]
        flags = [rec["flags"] for rec in pairs]
        assert [f.get("focal_intersection") for f in flags[:2]] == [True, False]
        assert [f["on_focal_locus"] for f in flags[2:]] == [
            False, True, True, True, False]
        assert flags[4]["is_first_order_ridge"] and flags[5]["is_subparabolic"]
        assert [f["parabolic"] for f in flags[2:]] == [False] * 4 + [True]


class TestGeometrySweepPinned:
    """128-theta geometry reports of an n = 1 germ (the S1+ germ above) and an
    n = 2 germ (C3+), pinned byte for byte.  Every sample but the principal
    normal direction carries the series pipeline's K0 and k20."""

    @pytest.mark.parametrize("germ, name", [
        ("s1_special_directions_germ.json", "s1_special_directions_geometry128.json"),
        ("c3_geometry_germ.json", "c3_geometry128.json"),
    ])
    def test_report_pinned(self, capsys, germ, name):
        code, out, err = run(capsys, "geometry", "--theta-samples", "128",
                             "--input", str(DATA / germ))
        assert code == 0, err
        assert out == (DATA / name).read_text()


class TestModeOverride:
    def test_mode_flag_forces_float(self, tmp_path, capsys, monkeypatch):
        # --mode is the only override of the file's mode; the environment is not read
        germ = dict(S1_GERM, components=["u", "1/2*v^2", "u^2*v + v^3"])
        path = write_germ(tmp_path, germ)
        monkeypatch.setenv("GERMFORGE_MODE", "float")
        code, out, _ = run(capsys, "classify", "--input", path)
        assert json.loads(out)["normal_form"]["mode"] == "exact"
        code, out, _ = run(capsys, "classify", "--input", path, "--mode", "float")
        assert json.loads(out)["normal_form"]["mode"] == "float"

    def test_override_applies_before_parsing(self, tmp_path, capsys):
        # the components are parsed once, in the mode the run uses
        germ = dict(S1_GERM, components=["u", "0.5*v^2", "u^2*v + v^3"])
        path = write_germ(tmp_path, germ)
        code, out, err = run(capsys, "classify", "--input", path)
        assert code == 1
        assert json.loads(err) == {
            "error": "decimal literal '0.5' requires float mode; use a p/q rational"
                     " (line 1, column 1)"
        }
        code, out, err = run(capsys, "classify", "--input", path, "--mode", "float")
        assert code == 0, err
        assert json.loads(out)["class"]["label"] == "S1+"
        # a cross-cap has no normal form, so mesh expands the germ itself
        germ = dict(S1_GERM, components=["u", "0.5*v^2", "u*v"])
        path = write_germ(tmp_path, germ, "cross_cap.json")
        code, out, err = run(capsys, "mesh", "--input", path, "--mode", "float",
                             "--output", str(tmp_path / "m.obj"), "--grid", "4x4")
        assert code == 0, err
        assert json.loads(out)["mesh"]["vertices"] == 16


FLOAT_S1 = dict(S1_GERM, components=["u", "1/2*v^2", "u^2*v + v^3"], mode="float")


class TestNonFiniteInput:
    @pytest.mark.parametrize("germ, error", [
        (dict(FLOAT_S1, probes=[[0, "1e400", 1]]),
         "germ.probes[0]: expected a finite number, got '1e400'"),
        (dict(FLOAT_S1, probes=[[0, "nan", 1]]),
         "germ.probes[0]: expected a finite number, got 'nan'"),
        # an exact file whose reduction falls back to float: the probe is
        # converted to the reduced mode under its index
        (dict(S1_GERM, probes=[[0, "1e400", 1]]),
         "germ.probes[0]: float-mode numbers must lie within float range"),
        (dict(S1_GERM, probes=[[0, "1/3", 1], [0, 2, "-1e400"]]),
         "germ.probes[1]: float-mode numbers must lie within float range"),
        (dict(FLOAT_S1, theta_lambda=[["x", 1]]),
         "germ.theta_lambda[0]: expected a finite number, got 'x'"),
        (dict(FLOAT_S1, theta_lambda=[[None, 1]]),
         "germ.theta_lambda[0]: expected a number or numeric string"),
        (dict(FLOAT_S1, theta_lambda=[[math.inf, 1]]),
         "germ.theta_lambda[0]: expected a finite number, got inf"),
        (dict(FLOAT_S1, components=["u", "1/2*v^2", "v^3 + 1%s*u^2*v" % ("0" * 400)]),
         "number literal of 401 characters lies outside float range"
         " (line 1, column 7)"),
    ])
    def test_exits_one_with_one_error_line(self, tmp_path, capsys, germ, error):
        path = write_germ(tmp_path, germ)
        code, out, err = run(capsys, "distance", "--input", path)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": error}


@pytest.mark.parametrize("command", ["classify", "geometry", "distance", "focal", "mesh"])
def test_seed_is_a_verify_option_only(tmp_path, capsys, command):
    path = write_germ(tmp_path, S1_GERM)
    code, out, err = run(capsys, command, "--input", path, "--seed", "3")
    assert (code, out) == (1, "")
    assert "--seed" in json.loads(err)["error"]


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


# the public names of the package; front's and closed_forms' load on access
PUBLIC_NAMES = [
    "BkRecursionTrace", "BlowupContext", "Branch", "ClassificationOutcome",
    "CurvatureSeries", "DistSing", "DistanceVerdict", "EXACT", "FLOAT",
    "FocalKind", "FocalLocus", "FormSeries", "FrontType", "FrontVerdict",
    "GermJets", "GermSpec", "Jet2", "K_EQUIV", "Mesh", "MondClass", "MondTag",
    "NormalFormCoeffs", "NormalSeries", "PointType", "ProbePoint", "R_PLUS",
    "RidgeReport", "SingularPointType", "SingularityType", "TransformLog",
    "TwoJetClass", "WavefrontSpec", "bk_recursion", "build_context", "classify",
    "classify_distance", "classify_germ", "classify_spec", "corank_at_origin",
    "crosscheck_closed_forms", "curvature_series", "distance_jet", "emit_mesh",
    "emit_report", "expand_germ", "extended_normal", "focal_locus",
    "focal_sheet_mesh", "front_verdict", "fundamental_forms", "geometric_verdict",
    "load_germ", "parse_polynomial", "print_polynomial",
    "reduce_to_normal_form", "ridge_report", "singular_point_type",
    "split_and_type", "surface_mesh", "theta_grid", "two_jet_class",
    "verify_by_substitution", "versality_rank_oracle", "versality_rank_test",
    "wavefront_mesh",
]
HEAVY = ("numpy", "germforge.front", "germforge.closed_forms")


def python(*argv):
    """Run a fresh interpreter on the package in src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GERMFORGE_MODE", None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestColdStart:
    def test_non_mesh_calls_load_no_heavy_module(self, tmp_path):
        path = write_germ(tmp_path, S1_GERM)
        script = textwrap.dedent("""
            import json, sys
            heavy = %r
            loaded = {}
            def note(step):
                loaded[step] = [m for m in heavy if m in sys.modules]
            import germforge
            note("import germforge")
            import germforge.cli
            note("import germforge.cli")
            for command in ("classify", "geometry", "distance", "focal"):
                code = germforge.cli.main(
                    [command, "--input", sys.argv[1], "--output", sys.argv[2]])
                assert code == 0, command
                note(command)
            print(json.dumps(loaded))
        """) % (HEAVY,)
        proc = python("-c", script, path, str(tmp_path / "report.json"))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert list(loaded) == [
            "import germforge", "import germforge.cli",
            "classify", "geometry", "distance", "focal",
        ]
        assert all(mods == [] for mods in loaded.values()), loaded

    def test_mesh_and_verify_still_run(self, tmp_path):
        path = write_germ(tmp_path, S1_GERM)
        mesh = tmp_path / "m.obj"
        proc = python("-m", "germforge.cli", "mesh", "--input", path,
                      "--output", str(mesh), "--grid", "8x8")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mesh"]["vertices"] == 64
        proc = python("-m", "germforge.cli", "verify", "--input", path,
                      "--samples", "4")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["crosscheck"]["entries"]

    def test_every_exported_name_resolves_in_a_fresh_process(self):
        script = textwrap.dedent("""
            import germforge
            bad = [n for n in germforge.__all__ if getattr(germforge, n, None) is None]
            assert not bad, bad
            import germforge.closed_forms, germforge.front
            assert germforge.Mesh is germforge.front.Mesh
            assert (germforge.crosscheck_closed_forms
                    is germforge.closed_forms.crosscheck_closed_forms)
            namespace = {}
            exec("from germforge import *", namespace)
            assert set(germforge.__all__) <= set(namespace)
        """)
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_public_names_pinned(self):
        assert sorted(germforge.__all__) == PUBLIC_NAMES
        public = {
            name for name in dir(germforge)
            if not name.startswith("_")
            and not isinstance(getattr(germforge, name), types.ModuleType)
        }
        assert public == set(PUBLIC_NAMES)
