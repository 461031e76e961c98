import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from germforge.errors import ParseError, SchemaError, UsageError
from germforge.germ_io import (
    emit_mesh,
    emit_report,
    expand_germ,
    germ_spec_from_dict,
    load_germ,
    load_report,
    parse_polynomial,
    print_polynomial,
    write_json,
)
from germforge.jets import EXACT, FLOAT, Jet2

from germforge.front import Mesh, WavefrontSpec, surface_mesh, wavefront_mesh

from conftest import germ_from_strings, rand_jet


def reference_mesh_text(mesh, fmt):
    """The whole mesh file, formatted value by value and joined."""
    lines = []
    if fmt == "obj":
        for vx, vy, vz in mesh.vertices:
            lines.append("v %.17g %.17g %.17g" % (vx, vy, vz))
        for a, b, c in mesh.faces:
            lines.append("f %d %d %d" % (a + 1, b + 1, c + 1))
    else:
        lines.append("x,y,z")
        for vx, vy, vz in mesh.vertices:
            lines.append("%.17g,%.17g,%.17g" % (vx, vy, vz))
    return "\n".join(lines) + "\n"


class TestParse:
    def test_v_squared(self):
        jet = parse_polynomial("v^2", order=4)
        assert jet == Jet2(4, {(0, 2): 1})

    def test_sum_of_monomials(self):
        jet = parse_polynomial("u^2*v + v^3", order=4)
        assert jet == Jet2(4, {(2, 1): 1, (0, 3): 1})

    def test_rational_coefficients(self):
        jet = parse_polynomial("1/2*v^2 - 3*u*v", order=4)
        assert jet == Jet2(4, {(0, 2): Fraction(1, 2), (1, 1): -3})

    def test_parentheses_and_unary_minus(self):
        # '-' is part of base, so the power applies to the negated base
        jet = parse_polynomial("-(u - v)^2", order=4)
        assert jet == Jet2(4, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
        jet = parse_polynomial("0 - (u - v)^2", order=4)
        assert jet == Jet2(4, {(2, 0): -1, (1, 1): 2, (0, 2): -1})

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u + w", order=3)
        assert "w" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u + * v", order=3)
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("u^(1/2)", order=3)

    def test_decimal_needs_float_mode(self):
        with pytest.raises(ParseError):
            parse_polynomial("0.5*v^2", order=3, mode=EXACT)
        jet = parse_polynomial("0.5*v^2", order=3, mode=FLOAT)
        assert jet.coeff(0, 2) == 0.5

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2u", order=3)

    def test_custom_variable_names(self):
        jet = parse_polynomial("x*y^2", variables=("x", "y"), order=4)
        assert jet == Jet2(4, {(1, 2): 1})

    def test_parse_print_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            jet = rand_jet(rng, 5)
            text = print_polynomial(jet)
            assert parse_polynomial(text, order=5) == jet


class TestGermFiles:
    GERM = {
        "variables": ["u", "v"],
        "components": ["u", "v^2", "v^3 + u^2*v"],
        "order": 6,
        "mode": "exact",
    }

    def test_load_table_entry(self, tmp_path):
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(self.GERM))
        spec, jets = load_germ(path)
        assert spec.order == 6
        assert jets.y == Jet2(6, {(0, 2): 1})
        assert jets.z == Jet2(6, {(0, 3): 1, (2, 1): 1})

    def test_missing_field_names_path(self):
        bad = dict(self.GERM)
        del bad["components"]
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(bad)
        assert "components" in str(exc.value)

    def test_bad_mode_rejected(self):
        bad = dict(self.GERM, mode="fuzzy")
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(bad)
        assert "mode" in str(exc.value)

    def test_nonvanishing_component_rejected(self):
        bad = dict(self.GERM, components=["u + 1", "v^2", "v^3"])
        with pytest.raises(SchemaError):
            expand_germ(germ_spec_from_dict(bad))

    def test_probes_parsed(self):
        data = dict(self.GERM, probes=[[0, "1/2", 3]])
        spec = germ_spec_from_dict(data)
        assert spec.probes == ((Fraction(0), Fraction(1, 2), Fraction(3)),)


class TestReports:
    def test_round_trip(self, tmp_path):
        report = {
            "class": {"label": "S1+", "k": "1"},
            "normal_form": {"a": {"2,1": "3/2"}},
            "geometry": None,
            "distance": None,
            "focal_locus": None,
            "warnings": ["float mode"],
        }
        path = tmp_path / "report.json"
        emit_report(report, path)
        assert load_report(path) == report

    def test_write_json_path_and_stream_agree(self, tmp_path):
        doc = {"b": [1, "2/3"], "a": {"z": None, "y": True}}
        path = tmp_path / "doc.json"
        write_json(doc, path)
        buf = io.StringIO()
        write_json(doc, buf)
        text = '{\n  "a": {\n    "y": true,\n    "z": null\n  },\n  "b": [\n    1,\n    "2/3"\n  ]\n}\n'
        assert path.read_text() == buf.getvalue() == text

    def test_malformed_json_names_field(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError) as exc:
            load_report(path)
        assert "report" in str(exc.value)


class TestMeshIO:
    class _Mesh:
        vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.5)]
        faces = [(0, 1, 1)]

    def test_obj_output(self, tmp_path):
        path = tmp_path / "m.obj"
        emit_mesh(self._Mesh(), path, "obj")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("v 0")
        assert lines[-1] == "f 1 2 2"

    def test_csv_output(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_mesh(self._Mesh(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 3

    @staticmethod
    def _numpy_meshes():
        germ = germ_from_strings(["u", "v^2", "u^2*v + v^3"], 5).to_float()
        odd = WavefrontSpec(t0=0.3, grid=(9, 11), extent=0.7)
        special = np.array([[-0.0, 1e-300, -1.5e300], [0.1, 2.0 / 3.0, -7.0]])
        return [
            surface_mesh(germ, (41, 37), 0.9),  # more lines than one block
            wavefront_mesh(germ, odd, -1),  # drops the node at the origin
            Mesh(special, np.array([[0, 1, 1]])),
            Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
        ]

    @pytest.mark.parametrize("fmt", ["obj", "csv"])
    def test_numpy_mesh_bytes_match_reference(self, tmp_path, fmt):
        for idx, mesh in enumerate(self._numpy_meshes()):
            path = tmp_path / ("m%d.%s" % (idx, fmt))
            emit_mesh(mesh, path, fmt)
            want = reference_mesh_text(mesh, fmt)
            assert path.read_bytes() == want.encode("utf-8")
            buf = io.StringIO()
            emit_mesh(mesh, buf, fmt)
            assert buf.getvalue() == want

    def test_empty_mesh_text(self):
        empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        for fmt, want in (("obj", "\n"), ("csv", "x,y,z\n")):
            buf = io.StringIO()
            emit_mesh(empty, buf, fmt)
            assert buf.getvalue() == want

    def test_bad_format_writes_nothing(self, tmp_path):
        path = tmp_path / "m.ply"
        with pytest.raises(UsageError):
            emit_mesh(self._Mesh(), path, "ply")
        assert not path.exists()
