import math
import pathlib

import numpy as np
import pytest

from germforge import front, germ_io, pipeline
from germforge.blowup import (
    COS_TOL,
    BlowupContext,
    FrontType,
    PointType,
    front_verdict,
    geometry_samples,
    ridge_report,
    theta_grid,
    verdict_from_flags,
)
from germforge.distance import geometric_verdict
from germforge.errors import HypothesisError, UsageError
from germforge.front import (
    MAX_GRID_NODES,
    WavefrontSpec,
    _check_grid,
    _grid_faces,
    _point_geometry,
    focal_sheet_mesh,
    surface_mesh,
    wavefront_mesh,
)
from germforge.jets import FLOAT, FLOAT_ZERO_REL

from conftest import GEOMETRY_GERMS, classified_ctx, germ_from_strings, make_nf, raw_geometry


# ---------------------------------------------------------------------------
# scalar per-node reference: one node at a time, from the jet partials
# ---------------------------------------------------------------------------


def ref_node(ctx, germ, r, theta):
    """raw_geometry at one blow-up node; on the exceptional set r = 0 the
    unit normal and the bounded curvature take their closed-form limits."""
    geo = raw_geometry(ctx, r, theta, germ)
    if r == 0.0:
        rr = ridge_report(ctx, theta)
        geo.update(normal=np.array(rr.normal_r0), kappa=rr.k10)
    return geo


def ref_grid_faces(nu, nv, keep):
    """Cell-by-cell triangulation, triangles (a, b, c) and (a, c, d)."""
    index = -np.ones(nu * nv, dtype=int)
    index[keep] = np.arange(keep.sum())
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            q = [i * nv + j, (i + 1) * nv + j, (i + 1) * nv + j + 1, i * nv + j + 1]
            ids = index[q]
            if (ids[[0, 1, 2]] >= 0).all():
                faces.append(ids[[0, 1, 2]])
            if (ids[[0, 2, 3]] >= 0).all():
                faces.append(ids[[0, 2, 3]])
    return np.array(faces, dtype=int) if faces else np.zeros((0, 3), dtype=int)


def ref_blowup_nodes(grid, r_max):
    rs = np.linspace(-r_max, r_max, grid[0])
    thetas = np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, grid[1])
    return [(r, theta) for r in rs for theta in thetas]


def ref_blowup_offset(ctx, germ, grid, r_max, t0, sign):
    """(vertices, faces, skipped) of the blow-up-chart offset, node by node."""
    verts, keep = [], []
    for r, theta in ref_blowup_nodes(grid, r_max):
        geo = {"normal": None}
        if abs(math.cos(theta)) > COS_TOL:
            geo = ref_node(ctx, germ, r, theta)
        keep.append(geo["normal"] is not None)
        if geo["normal"] is not None:
            verts.append(geo["point"] + sign * t0 * geo["normal"])
    keep = np.array(keep)
    return np.array(verts), ref_grid_faces(*grid, keep), int((~keep).sum())


def ref_focal_sheet(ctx, grid, r_max, focal_distance_max=100.0):
    """(vertices, faces, skipped) of the focal sheet, node by node."""
    germ = ctx.nf.reconstruct()
    kappa_min = max(FLOAT_ZERO_REL, 1.0 / focal_distance_max)
    verts, keep = [], []
    for r, theta in ref_blowup_nodes(grid, r_max):
        geo = {"normal": None, "kappa": None}
        if abs(math.cos(theta)) > COS_TOL:
            geo = ref_node(ctx, germ, r, theta)
        kappa, normal = geo["kappa"], geo["normal"]
        ok = kappa is not None and normal is not None and abs(kappa) > kappa_min
        keep.append(ok)
        if ok:
            verts.append(geo["point"] + normal / kappa)
    keep = np.array(keep)
    return np.array(verts), ref_grid_faces(*grid, keep), int((~keep).sum())


def ref_direct_mesh(germ, grid, extent, t0=0.0, sign=1):
    """(vertices, faces, skipped) of the direct chart from whole-grid arrays."""
    nu, nv = grid
    uu, vv = np.meshgrid(
        np.linspace(-extent, extent, nu), np.linspace(-extent, extent, nv),
        indexing="ij",
    )
    pts = np.empty(uu.shape + (3,))
    for idx, comp in enumerate(germ.components()):
        pts[..., idx] = comp.evaluate(uu, vv)
    keep = np.ones(nu * nv, dtype=bool)
    if t0 == 0.0:
        return pts.reshape(-1, 3), ref_grid_faces(nu, nv, keep), 0
    comps = germ.components()
    gu = np.stack([c.partial("u").evaluate(uu, vv) + 0 * uu for c in comps], axis=-1)
    gv = np.stack([c.partial("v").evaluate(uu, vv) + 0 * uu for c in comps], axis=-1)
    cross = np.cross(gu, gv)
    norms = np.linalg.norm(cross, axis=-1)
    keep = (norms > 1e-12 * max(norms.max(), 1e-30)).reshape(-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        offset = pts + sign * t0 * (cross / norms[..., None])
    verts = offset.reshape(-1, 3)[keep]
    return verts, ref_grid_faces(nu, nv, keep), int((~keep).sum())


def assert_vertices_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(got - want) <= rel * scale)


def ctx_s1():
    nf = make_nf(
        order=6,
        mode=FLOAT,
        a={(2, 0): 0.7, (2, 1): 1.4, (0, 3): 0.9, (3, 0): -0.4,
           (1, 2): 0.3, (4, 0): 0.5, (0, 4): 0.2},
        b={2: 1.1, 3: 0.8, 4: -0.6},
    )
    return BlowupContext(nf, 1)


class TestFrontVerdict:
    def test_non_ridge_cuspidal_edge(self):
        ctx = ctx_s1()
        theta0 = 0.4
        assert not ridge_report(ctx, theta0).is_ridge
        fv = front_verdict(ctx, theta0)
        assert fv.wavefront_type is FrontType.CUSPIDAL_EDGE
        assert fv.caustic_type is FrontType.UNDETERMINED

    def test_first_order_ridge_swallowtail(self):
        ctx = ctx_s1()
        theta0 = math.atan2(ctx.a_lead * ctx.nf.b_(3), ctx.fact * ctx.nf.a_(3, 0))
        if abs(math.cos(theta0)) < 0.1:
            theta0 -= math.pi
        rr = ridge_report(ctx, theta0)
        assert rr.is_first_order_ridge and not rr.is_subparabolic
        fv = front_verdict(ctx, theta0)
        assert fv.wavefront_type is FrontType.SWALLOWTAIL
        assert fv.caustic_type is FrontType.CUSPIDAL_EDGE

    def test_higher_ridge_undetermined(self):
        # b3 = a30 = 0 makes every direction a ridge; b4 = a40 = a21-free
        nf = make_nf(
            order=6, mode=FLOAT,
            a={(2, 1): 1.0, (0, 3): 1.0, (2, 0): 0.5},
            b={2: 1.0},
        )
        ctx = BlowupContext(nf, 1)
        rr = ridge_report(ctx, 0.7)
        assert rr.is_ridge
        fv = front_verdict(ctx, 0.7)
        if rr.is_first_order_ridge and not rr.is_subparabolic:
            assert fv.wavefront_type is FrontType.SWALLOWTAIL
        else:
            assert fv.wavefront_type is FrontType.UNDETERMINED

    def test_flag_table_exhaustive(self):
        cases = {
            (False, False, False): (FrontType.CUSPIDAL_EDGE, FrontType.UNDETERMINED),
            (False, False, True): (FrontType.CUSPIDAL_EDGE, FrontType.UNDETERMINED),
            (True, True, False): (FrontType.SWALLOWTAIL, FrontType.CUSPIDAL_EDGE),
            (True, True, True): (FrontType.UNDETERMINED, FrontType.UNDETERMINED),
            (True, False, False): (FrontType.UNDETERMINED, FrontType.UNDETERMINED),
            (True, False, True): (FrontType.UNDETERMINED, FrontType.UNDETERMINED),
        }
        for flags, want in cases.items():
            assert verdict_from_flags(*flags) == want, flags

    def test_principal_normal_undetermined(self):
        fv = front_verdict(ctx_s1(), math.pi / 2)
        assert fv.wavefront_type is FrontType.UNDETERMINED
        assert fv.caustic_type is FrontType.UNDETERMINED
        assert fv.basis.get("on_principal_normal")

    def test_zero_curvature_hypothesis(self):
        nf = make_nf(order=6, mode=FLOAT, a={(2, 1): 1.0, (0, 3): 1.0})
        ctx = BlowupContext(nf, 1)  # a20 = b2 = 0 -> k10 == 0 everywhere
        with pytest.raises(HypothesisError):
            front_verdict(ctx, 0.4)


class TestDirectionFlagsAgree:
    """ridge_report decides the direction flags; the geometry samples, the
    front basis and the distance route's flags all repeat its decision."""

    GERM = pathlib.Path(__file__).parent / "data" / "s1_special_directions_germ.json"

    @classmethod
    def ctx(cls):
        spec = germ_io.read_germ_spec(str(cls.GERM))
        return pipeline.blowup_context(pipeline.classify_spec(spec))

    @staticmethod
    def special_thetas(ctx):
        """The ridge, sub-parabolic and parabolic directions (tan theta)."""
        nf, a, m = ctx.nf, ctx.a_lead, ctx.fact
        return (
            math.atan(a * nf.b_(3) / (m * nf.a_(3, 0))),
            math.atan(-a * nf.a_(2, 0) / (m * nf.b_(2))),
            math.atan(a * nf.b_(2) / (m * nf.a_(2, 0))),
        )

    def test_parabolic_flag_follows_the_point_type(self):
        ctx = self.ctx()
        *_, parabolic = special = self.special_thetas(ctx)
        assert ridge_report(ctx, parabolic).point_type is PointType.PARABOLIC
        for theta in theta_grid(16)[:-1] + list(special):  # all off pi/2
            rr = ridge_report(ctx, theta)
            flags = geometric_verdict(ctx, theta, 1.0).flags
            assert flags["parabolic"] is (rr.point_type is PointType.PARABOLIC)
            assert {key: flags[key] for key in rr.flags} == rr.flags
        assert geometric_verdict(ctx, parabolic, 1.0).flags["parabolic"] is True

    def test_front_basis_equals_the_geometry_flags(self):
        ctx = self.ctx()
        ridge, subparabolic, parabolic = self.special_thetas(ctx)
        thetas = theta_grid(16) + [ridge, subparabolic]
        records = geometry_samples(ctx, thetas)
        principal = 0
        for theta, rec in zip(thetas, records):
            basis = front_verdict(ctx, theta).basis
            if basis.pop("on_principal_normal", False):
                principal += 1
                assert rec["point_type"] is None
            else:
                assert rec["point_type"] is not None
            assert basis == rec["flags"] == ridge_report(ctx, theta).flags
        assert principal == 1
        assert records[-2]["flags"]["is_first_order_ridge"]
        assert records[-1]["flags"]["is_subparabolic"]
        with pytest.raises(HypothesisError):
            front_verdict(ctx, parabolic)  # k10 vanishes there
        assert geometry_samples(ctx, [parabolic])[0]["point_type"] == "parabolic"

    def test_flags_are_a_fresh_dict(self):
        rr = ridge_report(self.ctx(), math.pi / 2)
        rr.flags["on_principal_normal"] = True
        assert set(rr.flags) == {"is_ridge", "is_first_order_ridge", "is_subparabolic"}


class TestMeshes:
    GERM = ["u", "v^2", "u^2*v + v^3"]

    def test_surface_mesh_shape(self):
        g = germ_from_strings(self.GERM, 5).to_float()
        mesh = surface_mesh(g, (16, 16), 0.8)
        assert mesh.vertices.shape == (256, 3)
        assert len(mesh.faces) == 2 * 15 * 15
        mesh.validate()

    def test_zero_offset_equals_surface(self):
        g = germ_from_strings(self.GERM, 5).to_float()
        surf = surface_mesh(g, (64, 64), 1.0)
        wf = wavefront_mesh(g, WavefrontSpec(t0=0.0, grid=(64, 64), extent=1.0))
        assert np.array_equal(surf.vertices, wf.vertices)
        assert np.array_equal(surf.faces, wf.faces)

    def test_offset_distance_invariant(self):
        g = germ_from_strings(self.GERM, 5).to_float()
        t0 = 0.35
        surf = surface_mesh(g, (64, 64), 1.0)
        wf = wavefront_mesh(g, WavefrontSpec(t0=t0, grid=(64, 64), extent=1.0))
        assert wf.skipped == 0  # even grid avoids the singular point
        dist = np.linalg.norm(wf.vertices - surf.vertices, axis=1)
        assert np.max(np.abs(dist - t0)) < 1e-9

    def test_blowup_chart_offsets(self):
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        spec = WavefrontSpec(
            t0=0.2, grid=(21, 32), chart="blowup", r_max=0.4, context=ctx
        )
        wf = wavefront_mesh(germ, spec, sign=-1)
        wf.validate()
        assert len(wf.vertices) > 0
        # vertices on the exceptional set r = 0 sit at -t0 * n(0, theta)
        mid = np.where(np.linspace(-0.4, 0.4, 21) == 0.0)[0]
        assert mid.size == 1

    def test_focal_sheet_derivative_conditions(self):
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        mesh = focal_sheet_mesh(ctx, grid=(15, 24), r_max=0.3)
        assert len(mesh.vertices) > 0
        rs = np.linspace(-0.3, 0.3, 15)
        thetas = np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, 24)
        nodes = [(r, t) for r in rs for t in thetas]
        vi = 0
        checked = 0
        for idx, (r, theta) in enumerate(nodes):
            # reproduce the keep-decision: vertices appear in grid order
            if abs(math.cos(theta)) <= 1e-7:
                continue
            geo = ref_node(ctx, germ, r, theta)
            kappa, normal = geo["kappa"], geo["normal"]
            if kappa is None or normal is None or abs(kappa) <= max(FLOAT_ZERO_REL, 1e-2):
                continue
            p = mesh.vertices[vi]
            vi += 1
            if r == 0.0:
                continue
            du = float((geo["point"] - p) @ geo["gu"])
            dv = float((geo["point"] - p) @ geo["gv"])
            assert abs(du) < 1e-6 and abs(dv) < 1e-6
            checked += 1
        assert vi == len(mesh.vertices)
        assert checked > 50

    def test_flat_bounded_curvature_gives_empty_sheet(self):
        # a20 = b2 = 0 -> bounded curvature vanishes along the exceptional set
        nf = make_nf(order=6, mode=FLOAT, a={(2, 1): 1.0, (0, 3): 1.0})
        ctx = BlowupContext(nf, 1)
        mesh = focal_sheet_mesh(ctx, grid=(9, 16), r_max=0.05)
        assert len(mesh.vertices) == 0
        assert mesh.skipped == 9 * 16

    def test_near_degenerate_triangles_at_focal_offset(self):
        # offsetting by 1/k10(theta*) pinches the front near the focal point
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        theta_star = 0.4
        rr = ridge_report(ctx, theta_star)
        assert not rr.is_ridge
        t0 = abs(1.0 / rr.k10)
        spec = WavefrontSpec(
            t0=t0, grid=(41, 64), chart="blowup", r_max=0.45, context=ctx
        )
        sign = 1 if rr.k10 > 0 else -1
        wf = wavefront_mesh(germ, spec, sign)
        tri = wf.vertices[wf.faces]
        areas = 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
        )
        degenerate = int((areas < 1e-2 * np.median(areas)).sum())
        assert degenerate > 0

    def test_bad_spec_rejected(self):
        with pytest.raises(UsageError):
            WavefrontSpec(t0=-1.0)
        with pytest.raises(UsageError):
            WavefrontSpec(grid=(1, 5))
        with pytest.raises(UsageError):
            WavefrontSpec(chart="blowup")

    @pytest.mark.parametrize("grid", [(1, 5), (0, 4), (-2, 3), (5,)])
    def test_grid_below_two_rejected_by_every_mesh(self, grid):
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        with pytest.raises(UsageError, match="grid sizes must be >= 2"):
            WavefrontSpec(grid=grid)
        with pytest.raises(UsageError, match="grid sizes must be >= 2"):
            surface_mesh(germ, grid, 1.0)
        with pytest.raises(UsageError, match="grid sizes must be >= 2"):
            focal_sheet_mesh(ctx, grid, 0.5)

    # numpy would try to allocate these grids (75 GiB for the first) or
    # refuse their size with a bare ValueError; the cap refuses them first
    @pytest.mark.parametrize("grid", [(1025, 1024), (2, 2**19 + 1), (100000, 100000),
                                      (10**20, 2)])
    def test_grid_over_the_node_cap_rejected_by_every_mesh(self, grid):
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        message = "^grid %dx%d has more than 1048576 nodes$" % grid
        with pytest.raises(UsageError, match=message):
            WavefrontSpec(grid=grid)
        with pytest.raises(UsageError, match=message):
            surface_mesh(germ, grid, 1.0)
        with pytest.raises(UsageError, match=message):
            focal_sheet_mesh(ctx, grid, 0.5)

    def test_node_cap_admits_its_own_size(self):
        assert MAX_GRID_NODES == 1024 * 1024
        for grid in ((1024, 1024), (2, 2**19)):
            _check_grid(grid)


class TestBlowupChartOffsets:
    def test_offset_distance_in_blowup_chart(self):
        ctx = ctx_s1()
        germ = ctx.nf.reconstruct()
        t0 = 0.3
        spec0 = WavefrontSpec(t0=0.0, grid=(15, 20), chart="blowup",
                              r_max=0.4, context=ctx)
        base = wavefront_mesh(germ, spec0, 1)
        spec1 = WavefrontSpec(t0=t0, grid=(15, 20), chart="blowup",
                              r_max=0.4, context=ctx)
        for sign in (1, -1):
            wf = wavefront_mesh(germ, spec1, sign)
            assert wf.vertices.shape == base.vertices.shape
            dist = np.linalg.norm(wf.vertices - base.vertices, axis=1)
            assert np.max(np.abs(dist - t0)) < 1e-9


class TestExceptionalRow:
    """The blow-up chart's r = 0 row reads one ridge_reports loop over the
    chart's theta grid, and only when the grid has that row (nr odd)."""

    @staticmethod
    def recorded_loops(monkeypatch):
        calls = []
        loop = front.ridge_reports

        def recording(ctx, thetas):
            calls.append(list(thetas))
            return loop(ctx, thetas)

        monkeypatch.setattr(front, "ridge_reports", recording)
        return calls

    @pytest.mark.parametrize("nr, loops", [(2, 0), (3, 1), (16, 0), (21, 1)])
    def test_one_loop_for_an_odd_nr(self, monkeypatch, nr, loops):
        ctx = ctx_s1()
        calls = self.recorded_loops(monkeypatch)
        spec = WavefrontSpec(t0=0.1, grid=(nr, 24), chart="blowup", r_max=0.4,
                             context=ctx)
        wavefront_mesh(ctx.nf.reconstruct(), spec, 1)
        assert len(calls) == loops
        focal_sheet_mesh(ctx, (nr, 24), 0.4)
        assert len(calls) == 2 * loops
        assert all(len(thetas) == 24 for thetas in calls)

    @pytest.mark.parametrize("ntheta", [2, 64])
    def test_theta_grid_ends_off_the_principal_normal(self, monkeypatch, ntheta):
        # the chart keeps no direction mask: a grid reaching the principal
        # normal direction (|cos theta| <= COS_TOL) must fail here
        calls = self.recorded_loops(monkeypatch)
        focal_sheet_mesh(ctx_s1(), (3, ntheta), 0.4)
        (thetas,) = calls
        assert thetas[0] < 0 < thetas[-1]
        for theta in (thetas[0], thetas[-1]):
            assert abs(math.cos(theta)) > COS_TOL


class TestKernelMatchesScalarReference:
    def test_grid_faces_match_double_loop(self):
        rng = np.random.default_rng(7)
        nu, nv = 37, 53
        for keep in (
            rng.random(nu * nv) >= 0.05,
            np.ones(nu * nv, dtype=bool),
            np.zeros(nu * nv, dtype=bool),
        ):
            got = _grid_faces(nu, nv, keep)
            want = ref_grid_faces(nu, nv, keep)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_curvature_undefined_where_mean_term_vanishes(self):
        # on z = u^2 - v^2 the term E N - 2 F M + G L is exactly 0 at |u| = |v|
        germ = germ_from_strings(["u", "v", "u^2 - v^2"], 4).to_float()
        grid = np.arange(-4, 5) / 8.0  # dyadic, so u^2 = v^2 holds exactly
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        kappa = _point_geometry(germ, uu, vv, curvature=True)[3]
        assert np.array_equal(np.isnan(kappa), np.abs(uu) == np.abs(vv))

    @pytest.mark.parametrize("label", sorted(GEOMETRY_GERMS))
    def test_blowup_offsets_match(self, label):
        got_label, ctx = classified_ctx(GEOMETRY_GERMS[label])
        assert got_label == label
        germ = ctx.nf.reconstruct()
        grid, r_max, t0 = (21, 32), 0.5, 0.15
        for sign in (1, -1):
            spec = WavefrontSpec(t0=t0, grid=grid, chart="blowup", r_max=r_max,
                                 context=ctx)
            mesh = wavefront_mesh(germ, spec, sign)
            verts, faces, skipped = ref_blowup_offset(ctx, germ, grid, r_max, t0, sign)
            assert_vertices_close(mesh.vertices, verts)
            assert np.array_equal(mesh.faces, faces)
            assert mesh.skipped == skipped

    @pytest.mark.parametrize("label", sorted(GEOMETRY_GERMS))
    def test_focal_sheet_matches(self, label):
        _, ctx = classified_ctx(GEOMETRY_GERMS[label])
        grid, r_max = (21, 32), 0.5
        mesh = focal_sheet_mesh(ctx, grid, r_max)
        verts, faces, skipped = ref_focal_sheet(ctx, grid, r_max)
        assert 0 < len(verts) < grid[0] * grid[1]
        assert_vertices_close(mesh.vertices, verts)
        assert np.array_equal(mesh.faces, faces)
        assert mesh.skipped == skipped

    @pytest.mark.parametrize("label", sorted(GEOMETRY_GERMS))
    def test_direct_chart_and_surface_equal(self, label):
        _, ctx = classified_ctx(GEOMETRY_GERMS[label])
        germ = ctx.nf.reconstruct()
        grid, extent = (33, 33), 0.8
        surf = surface_mesh(germ, grid, extent)
        verts, faces, _ = ref_direct_mesh(germ, grid, extent)
        assert np.array_equal(surf.vertices, verts)
        assert np.array_equal(surf.faces, faces)
        for t0, sign in ((0.0, 1), (0.1, 1), (0.1, -1)):
            spec = WavefrontSpec(t0=t0, grid=grid, extent=extent)
            mesh = wavefront_mesh(germ, spec, sign)
            verts, faces, skipped = ref_direct_mesh(germ, grid, extent, t0, sign)
            assert skipped == (1 if t0 else 0)  # the odd grid hits the origin
            assert np.array_equal(mesh.vertices, verts)
            assert np.array_equal(mesh.faces, faces)
            assert mesh.skipped == skipped
