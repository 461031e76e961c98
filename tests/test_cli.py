import json
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time
import types
from itertools import islice

import pytest

import germforge
from germforge import cli, germ_io, pipeline
from germforge.blowup import MAX_THETA_SAMPLES
from germforge.cli import main, verify_probes
from germforge.closed_forms import CROSSCHECK_SYMBOLS
from germforge.distance import (
    SingularPointType, agrees_with_oracle, classify_distance, distance_jet,
    singular_point_type, versality_rank_test,
)
from germforge.errors import InternalConsistencyError
from germforge.oracle import K_EQUIV, R_PLUS, SingularityType, split_and_type

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

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_order_above_the_cap_exits_1_at_once(self, tmp_path, capsys, where):
        # order 80 would take minutes to reduce; 21 is refused before parsing
        germ = dict(S1_GERM, components=["u + v^2 + u^3", "v^2 + u*v^2", "u^2*v + v^3"])
        if where == "file":
            germ["order"] = 21
        path = write_germ(tmp_path, germ)
        argv = ["classify", "--input", path] + (["--order", "21"] if where == "flag" else [])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"file": "germ.order: order must be <= 20",
                                             "flag": "--order must be <= 20"}[where]}

    def test_order_override_reaches_the_report(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "classify", "--input", path, "--order", "1")
        assert code == 0, err
        assert json.loads(out)["germ"]["order"] == 1

    def test_order_below_the_working_order_changes_only_the_germ_order(self, tmp_path, capsys):
        path = write_germ(tmp_path, S1_GERM)
        _, plain, _ = run(capsys, "classify", "--input", path)
        _, low, _ = run(capsys, "classify", "--input", path, "--order", "5")
        plain, low = json.loads(plain), json.loads(low)
        assert (plain["germ"].pop("order"), low["germ"].pop("order")) == (6, 5)
        assert low == plain and plain["normal_form"]["order"] == 17


FLOAT_WARNING = ("float-mode zero tests (threshold 1e-9 relative): "
                 "classification is numerically certified only")


# kind -> (components, file mode, label, whether the float warning stands);
# the kinds without a normal form are read in float mode, where it would show
OUTCOME_KINDS = {
    "immersion": (["u", "v", "u^2"], "float", "Immersion", False),
    "corank 2": (["u^2", "v^2", "u*v"], "float", "Indeterminate", False),
    "cross-cap": (["u", "v^2", "u*v"], "float", "S0", False),
    "(u, uv, 0)": (["u", "u*v + v^5", "v^3"], "float", "TwoJetUV", False),
    "degenerate two-jet": (["u", "v^3", "v^4"], "float", "Indeterminate", False),
    "exact labelled": (["u", "v^2/2", "v^3 + u^2*v/2"], "exact", "S1+", False),
    "exact germ, float form": (["u", "v^2", "v^3 + u^2*v"], "exact", "S1+", True),
    "float labelled": (["u", "v^2/2", "v^3 + u^2*v/2"], "float", "S1+", True),
    "float Indeterminate": (["u", "v^2/2", "0"], "float", "Indeterminate", True),
}


@pytest.mark.parametrize("kind", OUTCOME_KINDS)
def test_warnings_of_every_outcome_kind(tmp_path, capsys, kind):
    # the float warning stands exactly where the class is read off a float
    # normal form, in the library and in the classify report
    components, mode, label, warned = OUTCOME_KINDS[kind]
    data = {"variables": ["u", "v"], "components": components, "order": 6, "mode": mode}
    want = [FLOAT_WARNING] if warned else []
    outcome = pipeline.classify_spec(germ_io.germ_spec_from_dict(data))
    assert (outcome.mond.label, outcome.warnings) == (label, want)
    with pytest.raises(AttributeError):
        outcome.warnings = want
    code, out, err = run(capsys, "classify", "--input", write_germ(tmp_path, data))
    assert code == 0 and json.loads(out)["warnings"] == want, err


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

    @pytest.mark.parametrize("kind", ["surface", "wavefront", "focal"])
    @pytest.mark.parametrize("grid", ["100000x100000", "99999999999999999999x2"])
    def test_grid_over_the_node_cap_is_usage_error(self, tmp_path, capsys, kind, grid):
        path = write_germ(tmp_path, S1_GERM)
        out_path = tmp_path / "m.obj"
        code, out, err = run(
            capsys, "mesh", "--input", path, "--output", str(out_path),
            "--kind", kind, "--grid", grid,
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "grid %s has more than 1048576 nodes" % grid}
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

    @pytest.mark.parametrize("argv, summary", [
        (["--kind", "wavefront", "--t0", "0.1", "--extent", "0.75"],
         {"kind": "wavefront", "chart": "direct", "sign": 1, "t0": "0.10000000000000001",
          "extent": "0.75"}),
        (["--kind", "focal", "--rmax", "0.25"], {"kind": "focal-sheet", "r_max": "0.25"}),
    ])
    def test_summary_numbers(self, tmp_path, capsys, argv, summary):
        # extent, t0 and r_max are written as the report writes any float;
        # grid, vertices, faces and skipped stay integers
        out_path = tmp_path / "m.obj"
        code, out, err = run(
            capsys, "mesh", "--input", str(DATA / "s1_special_directions_germ.json"),
            "--output", str(out_path), "--grid", "5x4", *argv,
        )
        assert code == 0, err
        assert json.loads(out) == {"mesh": dict(
            summary, grid=[5, 4], vertices=20, faces=24, skipped=0, format="obj",
            output=str(out_path))}

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
    @pytest.mark.parametrize("samples", [0, 25])
    def test_samples_is_the_one_probe_count(self, tmp_path, capsys, samples):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, "--samples", str(samples),
                             "--seed", "3")
        assert code == 0, err
        result = json.loads(out)
        assert result["oracle_equivalence"] == {"agreements": samples, "mismatches": []}
        assert result["versality_dual"] == {"agreements": 2 * samples, "mismatches": []}
        table = result["crosscheck"]["entries"]
        assert table and not any(e["hard_mismatch"] for e in table)

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

    @pytest.mark.parametrize("flag", ["--samples", "--theta-samples"])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, flag):
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, flag, "-3")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "%s must not be negative" % flag}

    @pytest.mark.parametrize("command", ["geometry", "verify"])
    def test_theta_samples_over_the_cap_is_usage_error(self, tmp_path, capsys, command):
        path = write_germ(tmp_path, S1_GERM)
        for samples in (MAX_THETA_SAMPLES + 1, 10**12):
            code, out, err = run(capsys, command, "--input", path,
                                 "--theta-samples", str(samples))
            assert (code, out) == (1, "")
            assert json.loads(err) == {
                "error": "theta grid has more than %d samples" % MAX_THETA_SAMPLES}

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

    def test_probe_stream_reaches_every_case(self):
        # the first 50 probes of each seed reach every case of the decision
        # tree and every singular point type, and the splitting oracle and
        # both rank tests agree with the tree
        for seed in range(10):
            cases, point_types = set(), set()
            for nf, p in islice(verify_probes(random.Random(seed)), 50):
                verdict = classify_distance(nf, p)
                typ = split_and_type(distance_jet(nf, p, 6), 6)
                assert agrees_with_oracle(verdict.sing_type, typ), (seed, p, typ.label)
                for flavor, closed in ((R_PLUS, verdict.r_plus_versal),
                                       (K_EQUIV, verdict.k_versal)):
                    assert versality_rank_test(nf, p, flavor) == closed, (seed, p)
                cases.add(verdict.case)
                point_types.add(singular_point_type(nf))
            assert sorted(cases) == ["1", "2a", "2b", "3a", "3b", "4a", "4b", "5"], (seed, cases)
            assert point_types == set(SingularPointType), (seed, point_types)


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
        (["focal"], "s1_special_directions_focal.json"),
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


class TestFloatReductionPinned:
    """classify reports whose reduction runs in float, pinned byte for byte:
    the README germ (v^2 scaled by an irrational root), an S1+ germ whose
    reduction also rotates the image line and the (y, z)-plane and changes
    both source coordinates, and a B2- germ with a first-component term to
    flatten and second-component terms to clean up at every degree."""

    @pytest.mark.parametrize("name", ["readme", "s1", "b2"])
    def test_report_pinned(self, capsys, name):
        germ = DATA / ("classify_float_%s_germ.json" % name)
        code, out, err = run(capsys, "classify", "--input", str(germ))
        assert code == 0, err
        assert out == (DATA / ("classify_float_%s.json" % name)).read_text()
        assert json.loads(out)["normal_form"]["mode"] == "float"

    def test_readme_focal_pinned(self, capsys):
        germ = DATA / "classify_float_readme_germ.json"
        code, out, err = run(capsys, "focal", "--input", str(germ))
        assert code == 0, err
        assert out == (DATA / "classify_float_readme_focal.json").read_text()


class TestCase4aPinned:
    """distance reports of a germ whose twelve probes all reach case 4a, the
    case that splits the distance jet at its critical curve, in the file's
    exact mode and in float mode, pinned byte for byte."""

    GERM = DATA / "case4a_probes_germ.json"

    @pytest.mark.parametrize("mode, name", [
        ([], "case4a_probes_distance.json"),
        (["--mode", "float"], "case4a_probes_distance_float.json"),
    ])
    def test_report_pinned(self, capsys, mode, name):
        code, out, err = run(capsys, "distance", "--input", str(self.GERM), *mode)
        assert code == 0, err
        assert out == (DATA / name).read_text()
        assert [p["case"] for p in json.loads(out)["distance"]["probes"]] == ["4a"] * 12


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

# exact germs with a number beyond float range: the exact answers need no
# float, and each float conversion ends in the typed float-range error
EXACT_S1 = dict(S1_GERM, components=["u", "v^2/2", "u^2/2 + u^2*v + v^3"])
G400 = dict(S1_GERM, components=["u", "v^2/2", "10^400*u^2/2 + u^2*v + v^3"],
            probes=[[0, 1, 0], [1, 0, 0]])
P400 = dict(EXACT_S1, probes=[[0, "1e400", 0], [0, 1, 1]])
# the rotation stays exact, but scaling v^2 to 1/2 takes sqrt(2 * 10^401)
G401 = dict(S1_GERM, components=["u", "10^401*v^2", "u^2*v + v^3"])
FLOAT_RANGE = {"error": "float-mode numbers must lie within float range"}


class TestParsePositions:
    """A parse error in a multi-line component names its line and column:
    lines split at "\\n" only, columns count characters from 1."""

    @pytest.mark.parametrize("mode, text, error", [
        ("float", "u^2*v +\n 2.*v^3", "digits expected after decimal point (line 2, column 4)"),
        ("exact", "u^2*v\n + v^3\n + w", "unknown identifier 'w' (line 3, column 4)"),
        ("exact", "u^2*v\n\n  +  é", "unknown identifier 'é' (line 3, column 6)"),
        ("exact", "u^2*v +\n * v^3", "unexpected token '*' (line 2, column 2)"),
        ("exact", "u^2*v +\n", "unexpected token '<end>' (line 2, column 1)"),
        ("exact", "(u^2*v +\n v^3", "expected ')' (line 2, column 5)"),
        ("exact", "u^2*v +\n v^(1/2)",
         "exponent must be a nonnegative integer (line 2, column 4)"),
        ("exact", "u^2*v +\n 2*v^-3",
         "exponent must be a nonnegative integer (line 2, column 6)"),
        ("exact", "u^2*v +\n\t0.5*v^3",
         "decimal literal '0.5' requires float mode; use a p/q rational (line 2, column 2)"),
        ("exact", "u^2*v +\n v^3 + 1e5*u^4",
         "decimal literal '1e5' requires float mode; use a p/q rational (line 2, column 8)"),
        ("float", "u^2*v +\n 2v^3", "unexpected trailing input (line 2, column 3)"),
        ("float", "u^2*v +\n v^3 + 1%s*u^4" % ("0" * 400),
         "number literal of 401 characters lies outside float range (line 2, column 8)"),
        ("exact", "u^2*v +\n v^²", "unexpected character '²' (line 2, column 4)"),
        ("exact", "u^2*v\n%2", "unexpected character '%' (line 2, column 1)"),
        ("exact", "u^2*v +\n v^3/v", "a number literal must follow '/' (line 2, column 6)"),
        ("float", "u^2*v\n + v^3/0", "division by zero (line 2, column 8)"),
        ("exact", "u^2*v\n + 1/0*v^3", "zero denominator (line 2, column 4)"),
        # a carriage return or a Unicode line separator is one column, not a line break
        ("exact", "u^2*v +\r\n w", "unknown identifier 'w' (line 2, column 2)"),
        ("exact", "u^2*v\u2028+ w", "unknown identifier 'w' (line 1, column 9)"),
    ])
    def test_classify_exits_one_naming_the_position(self, tmp_path, capsys, mode, text, error):
        germ = dict(S1_GERM, components=["u", "1/2*v^2", text], mode=mode)
        code, out, err = run(capsys, "classify", "--input", write_germ(tmp_path, germ))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": error}


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
        (G401, FLOAT_RANGE["error"]),
        (dict(FLOAT_S1, theta_lambda=[["x", 1]]),
         "germ.theta_lambda[0]: expected a finite number, got 'x'"),
        (dict(FLOAT_S1, theta_lambda=[[None, 1]]),
         "germ.theta_lambda[0]: expected a number or numeric string"),
        (dict(FLOAT_S1, theta_lambda=[[math.inf, 1]]),
         "germ.theta_lambda[0]: expected a finite number, got inf"),
        (dict(FLOAT_S1, theta_lambda=[[-math.inf, 1]]),
         "germ.theta_lambda[0]: expected a finite number, got -inf"),
        (dict(FLOAT_S1, theta_lambda=[[0.4, 0.7], [math.nan, 1]]),
         "germ.theta_lambda[1]: expected a finite number, got nan"),
        (dict(FLOAT_S1, theta_lambda=[["-inf", 1]]),
         "germ.theta_lambda[0]: expected a finite number, got '-inf'"),
        (dict(FLOAT_S1, components=["u", "1/2*v^2", "v^3 + 1%s*u^2*v" % ("0" * 400)]),
         "number literal of 401 characters lies outside float range"
         " (line 1, column 7)"),
        # a JSON true or false is not a number, though Python's bool is an int
        (dict(S1_GERM, order=True), "germ.order: expected int"),
        (dict(S1_GERM, probes=[[False, True, 0]]),
         "germ.probes[0]: expected a number or numeric string"),
        (dict(FLOAT_S1, theta_lambda=[[0.4, 0.7], [True, 1]]),
         "germ.theta_lambda[1]: expected a number or numeric string"),
    ])
    def test_exits_one_with_one_error_line(self, tmp_path, capsys, germ, error):
        path = write_germ(tmp_path, germ)
        code, out, err = run(capsys, "distance", "--input", path)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": error}


class TestBeyondFloatRange:
    @pytest.mark.parametrize("germ, command, code", [
        (G400, "classify", 0), (G400, "distance", 0), (G400, "focal", 0),
        (G400, "geometry", 1), (G400, "mesh", 1),
        (P400, "classify", 0), (P400, "distance", 0), (P400, "focal", 0),
        (P400, "geometry", 0),
    ])
    def test_exits_with_an_answer_or_one_error_line(self, tmp_path, capsys, germ, command, code):
        path = write_germ(tmp_path, germ)
        argv = [command, "--input", path]
        if command == "mesh":
            argv += ["--output", str(tmp_path / "mesh.obj")]
        got, out, err = run(capsys, *argv)
        assert got == code and "Traceback" not in err
        if code:
            assert out == "" and err.count("\n") == 1 and json.loads(err) == FLOAT_RANGE
        else:
            report = json.loads(out)
            assert err == "" and report["normal_form"]["mode"] == "exact"
            assert report["class"]["label"] == "S1+"

    def test_exact_distance_answers_beyond_float_range(self, tmp_path, capsys):
        _, out, _ = run(capsys, "distance", "--input", write_germ(tmp_path, P400))
        probes = json.loads(out)["distance"]["probes"]
        assert probes[0]["p0"] == ["0", str(10**400), "0"]
        assert [p["sing_type"] for p in probes] == ["A1", "A3"]
        _, out, _ = run(capsys, "distance", "--input", write_germ(tmp_path, G400))
        report = json.loads(out)
        assert report["normal_form"]["a"]["2,0"] == str(10**400)
        assert [p["sing_type"] for p in report["distance"]["probes"]] == ["A1", "Regular"]

    def test_focal_direction_beyond_float_range(self, tmp_path, capsys):
        # the second focal line is 10^400 z = 1: its direction is (1, 0)
        code, out, err = run(capsys, "focal", "--input", write_germ(tmp_path, G400))
        assert (code, err) == (0, "")
        second = json.loads(out)["focal_locus"]["lines"][1]
        assert second["equation"]["z"] == str(10**400)
        assert [float(x) for x in second["direction"]] == [1.0, 0.0]


# a literal, a written number and a JSON number past Python's int/str digit limit
DIGITS = "1" + "0" * 5000
LIMIT = "the limit of %d digits on int/str conversion"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int/str digit limit")
class TestPastTheDigitLimit:
    @pytest.mark.parametrize("text, error", [
        (json.dumps(dict(S1_GERM, components=["u", "v^2", DIGITS + "*u^3 + u^2*v + v^3"])),
         "number literal of 5001 characters exceeds %s (line 1, column 1)" % LIMIT),
        (json.dumps(dict(S1_GERM, components=["u", "v^2/2", "u^2*v + v^" + "9" * 5000])),
         "number literal of 5000 characters exceeds %s (line 1, column 11)" % LIMIT),
        (json.dumps(dict(S1_GERM, components=["u", "v^2/2", "10^5000*u^3 + u^2*v + v^3"])),
         "power has a coefficient past %s (line 1, column 4)" % LIMIT),
        (json.dumps(dict(S1_GERM, order=20, components=["u", "v^2", "(1+u)^" + "9" * 1000])),
         "power has a coefficient past %s (line 1, column 7)" % LIMIT),
        (json.dumps(dict(S1_GERM, components=[
            "u", "v^2/2", "%s*%s*u^3 + u^2*v + v^3" % (DIGITS[:4001], DIGITS[:4001])])),
         "a number to write exceeds %s" % LIMIT),
        (json.dumps(dict(S1_GERM, probes=[[0, 1, 1]])).replace("[0, 1, 1]", "[0, %s, 1]" % DIGITS),
         "germ: invalid JSON: "),
        # a bad probe entry is named, and echoed only in part
        (json.dumps(dict(S1_GERM, probes=[[0, DIGITS, 1]])),
         "germ.probes[0]: number of 5001 characters exceeds %s" % LIMIT),
        (json.dumps(dict(S1_GERM, mode="float", probes=[[0, 1, 1]])).replace(
            "[0, 1, 1]", "[0, %s, 1]" % DIGITS[:4001]),
         "germ.probes[0]: expected a finite number, got %s... (4001 characters)" % DIGITS[:40]),
        (json.dumps(dict(S1_GERM, probes=[[0, "a" * 3000, 1]])),
         "germ.probes[0]: expected a finite number, got '%s... (3000 characters)" % ("a" * 39)),
    ])
    def test_exits_one_with_one_error_line(self, tmp_path, text, error):
        path = tmp_path / "germ.json"
        path.write_text(text)
        proc = python("-m", "germforge.cli", "distance", "--input", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert len(proc.stderr.encode()) < 200
        error = error.replace("%d", str(sys.get_int_max_str_digits()))
        assert json.loads(proc.stderr)["error"].startswith(error)


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
        broken["n21"] = lambda h: 123.456
        monkeypatch.setattr(cf, "_REFERENCE", broken)
        path = write_germ(tmp_path, S1_GERM)
        code, out, err = run(capsys, "verify", "--input", path, "--samples", "5")
        assert code == 2
        result = json.loads(out)
        assert any(
            e["hard_mismatch"] and e["symbol"] == "n21"
            for e in result["crosscheck"]["entries"]
        )


class TestDualCheckMismatch:
    def verify(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", "--input", write_germ(tmp_path, S1_GERM),
                             "--samples", "10", "--seed", "2")
        assert (code, err) == (2, "")
        probes = islice(verify_probes(random.Random(2)), 10)
        return json.loads(out), [classify_distance(nf, p) for nf, p in probes]

    def test_inverted_rank_answers_exit_two(self, tmp_path, capsys, monkeypatch):
        real = cli.versality_rank_test
        monkeypatch.setattr(cli, "versality_rank_test", lambda *args: not real(*args))
        result, verdicts = self.verify(tmp_path, capsys)
        assert result["oracle_equivalence"] == {"agreements": 10, "mismatches": []}
        assert result["versality_dual"] == {"agreements": 0, "mismatches": [
            {"flavor": flavor, "closed_form": closed, "rank": not closed,
             "sing_type": v.sing_type.value}
            for v in verdicts
            for flavor, closed in ((R_PLUS, v.r_plus_versal), (K_EQUIV, v.k_versal))]}

    def test_wrong_split_type_exits_two(self, tmp_path, capsys, monkeypatch):
        # A1 for every probe: only the two generic probes agree
        monkeypatch.setattr(cli, "split_and_type", lambda f, order: SingularityType("A", k=1))
        result, verdicts = self.verify(tmp_path, capsys)
        assert result["versality_dual"] == {"agreements": 20, "mismatches": []}
        assert result["oracle_equivalence"] == {"agreements": 2, "mismatches": [
            {"closed_form": v.sing_type.value, "oracle": "A1"}
            for v in verdicts if v.case != "1"]}


def test_internal_consistency_failure_exits_two(tmp_path, capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli.pipeline, "classify_spec", disagree)
    code, out, err = run(capsys, "classify", "--input", write_germ(tmp_path, S1_GERM))
    assert (code, out, err) == (2, "", '{"error": "routes disagree"}\n')


# the public names of the package; front's meshes and closed_forms' load on access
PUBLIC_NAMES = [
    "BkRecursionTrace", "BlowupContext", "Branch", "ClassificationOutcome",
    "DistSing", "DistanceVerdict", "EXACT", "FLOAT", "FocalKind",
    "FocalLocus", "FrontType", "FrontVerdict", "GermJets", "GermSpec",
    "Jet2", "K_EQUIV", "Mesh", "MondClass", "MondTag", "NormalFormCoeffs",
    "PointType", "ProbePoint", "R_PLUS", "RidgeReport", "SingularPointType",
    "SingularityType", "TransformLog", "TwoJetClass", "WavefrontSpec",
    "bk_recursion", "build_context", "classify", "classify_distance",
    "classify_germ", "classify_spec", "corank_at_origin",
    "crosscheck_closed_forms", "distance_jet", "emit_mesh", "emit_report",
    "expand_germ", "focal_locus", "focal_sheet_mesh", "front_verdict",
    "geometric_verdict", "load_germ", "parse_polynomial",
    "print_polynomial", "reduce_to_normal_form", "ridge_report",
    "series_columns", "singular_point_type", "split_and_type",
    "surface_mesh", "theta_grid",
    "versality_rank_oracle", "versality_rank_test", "wavefront_mesh",
]
HEAVY = ("numpy", "germforge.front", "germforge.closed_forms")
# dataclasses, with the inspect it imports, adds to the start-up of every
# CLI process; numpy imports inspect itself, so mesh may load that
MACHINERY = ("dataclasses", "inspect")


def python(*argv):
    """Run a fresh interpreter on the package in src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GERMFORGE_MODE", None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def imported(importtime_stderr):
    """The modules a ``python -X importtime`` process imported."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


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
        """) % (HEAVY + MACHINERY,)
        proc = python("-c", script, path, str(tmp_path / "report.json"))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert list(loaded) == [
            "import germforge", "import germforge.cli",
            "classify", "geometry", "distance", "focal",
        ]
        assert all(mods == [] for mods in loaded.values()), loaded

    def test_front_prediction_loads_no_heavy_module(self):
        path = DATA / "s1_special_directions_germ.json"
        script = textwrap.dedent("""
            import sys
            from germforge import FrontType, FrontVerdict, front_verdict
            from germforge.germ_io import read_germ_spec
            from germforge.pipeline import blowup_context, classify_spec
            ctx = blowup_context(classify_spec(read_germ_spec(sys.argv[1])))
            verdict = front_verdict(ctx, 0.4)
            assert isinstance(verdict, FrontVerdict)
            assert isinstance(verdict.wavefront_type, FrontType)
            print([m for m in %r if m in sys.modules])
        """) % (HEAVY,)
        proc = python("-c", script, str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_mesh_and_verify_still_run(self, tmp_path):
        path = write_germ(tmp_path, S1_GERM)
        mesh = tmp_path / "m.obj"
        proc = python("-X", "importtime", "-m", "germforge.cli", "mesh", "--input", path,
                      "--output", str(mesh), "--grid", "8x8")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mesh"]["vertices"] == 64
        loaded = imported(proc.stderr)
        assert "numpy" in loaded and "dataclasses" not in loaded
        proc = python("-X", "importtime", "-m", "germforge.cli", "verify", "--input", path,
                      "--samples", "4")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["crosscheck"]["entries"]
        loaded = imported(proc.stderr)
        assert "germforge.closed_forms" in loaded and "dataclasses" not in loaded

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
