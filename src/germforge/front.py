"""Meshes of the surface, its offset (wave-front) sheets and the bounded
focal sheet.

Meshes are for inspection, not recognition.  Every mesh comes from one
vectorized kernel, ``_point_geometry``, evaluated over the whole parameter
grid at once: points, raw normals and, for the focal sheet, the bounded
principal curvature.  Offsets use the exact unit normal away from the
singular locus and the extended normal orientation across it (blow-up
chart), so the offset-distance invariant holds to rounding.  Triangulation
is array slicing of the node-index grid.
"""

import math

import numpy as np

from .blowup import COS_TOL, ridge_report
from .blowup import front_verdict  # noqa: F401  perfbench calls and traces front.front_verdict
from .errors import UsageError
from .records import Record

# Focal-sheet nodes whose bounded curvature is at most this are skipped:
# their centers lie beyond distance 1 / KAPPA_MIN = 100.
KAPPA_MIN = 0.01

# Largest number of grid nodes a mesh may sample (1024 x 1024): a larger grid
# is refused before any array is allocated.
MAX_GRID_NODES = 2**20


class Mesh(Record):
    __slots__ = _fields = ("vertices", "faces", "metadata", "skipped")

    def __init__(self, vertices, faces, metadata=None, skipped=0):
        self.vertices = vertices  # (V, 3) float64
        self.faces = faces        # (F, 3) int vertex indices
        self.metadata = {} if metadata is None else metadata
        self.skipped = skipped    # grid nodes dropped (degenerate data)

    def validate(self):
        if len(self.vertices) and not np.isfinite(self.vertices).all():
            raise UsageError("mesh contains non-finite vertices")
        if len(self.faces) and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise UsageError("mesh face indices out of range")
        return self


class WavefrontSpec(Record):
    __slots__ = _fields = ("t0", "grid", "chart", "extent", "r_max", "context")

    def __init__(self, t0=0.0, grid=(64, 64), chart="direct", extent=1.0, r_max=0.5,
                 context=None):
        self.t0 = t0
        self.grid = grid
        self.chart = chart            # "direct" | "blowup"
        self.extent = extent          # half-width of the sampled parameter box
        self.r_max = r_max            # blow-up chart radial half-width
        self.context = context        # BlowupContext, required for "blowup"
        if self.t0 < 0 or not math.isfinite(self.t0):
            raise UsageError("t0 must be a finite nonnegative offset")
        _check_grid(self.grid)
        _check_width("extent", self.extent)
        _check_width("r_max", self.r_max)
        if self.chart not in ("direct", "blowup"):
            raise UsageError("chart must be 'direct' or 'blowup'")
        if self.chart == "blowup" and self.context is None:
            raise UsageError("the blow-up chart needs a BlowupContext")


def _check_grid(grid):
    """Reject a sampling grid without two sizes of at least 2, or with more
    than MAX_GRID_NODES nodes."""
    if len(grid) != 2 or min(grid) < 2:
        raise UsageError("grid sizes must be >= 2")
    if grid[0] * grid[1] > MAX_GRID_NODES:
        raise UsageError("grid %dx%d has more than %d nodes"
                         % (grid[0], grid[1], MAX_GRID_NODES))


def _check_width(name, value):
    """Reject a sampling half-width that is not a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise UsageError("%s must be a finite positive number" % name)


def _grid_faces(nu, nv, keep):
    """CCW triangulation of an (nu x nv) node grid, skipping dropped nodes.

    Each cell (a, b, c, d) = (i j, i+1 j, i+1 j+1, i j+1) gives the triangles
    (a, b, c) and (a, c, d), in row-major cell order; a triangle touching a
    dropped node is left out.
    """
    index = np.full(nu * nv, -1)
    index[keep] = np.arange(np.count_nonzero(keep))
    index = index.reshape(nu, nv)
    a, b = index[:-1, :-1], index[1:, :-1]
    c, d = index[1:, 1:], index[:-1, 1:]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return tris[(tris >= 0).all(axis=1)]


def _stack(jets, uu, vv):
    """Jet values at every node, as (..., 3); constant jets fill the grid."""
    return np.stack([jet.evaluate(uu, vv) + 0 * uu for jet in jets], axis=-1)


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _point_geometry(germ, uu, vv, curvature=False):
    """Point-wise geometry of the germ over (u, v) arrays of one shape.

    Returns the points, the raw normals g_u x g_v, their lengths and, with
    ``curvature``, the bounded principal curvature with respect to the unit
    raw normal (NaN where E G - F^2 <= 0 or the mean term vanishes; None
    without ``curvature``).  Every partial jet is built once, whatever the
    number of nodes.
    """
    comps = germ.to_float().components()
    pts = np.stack([comp.evaluate(uu, vv) for comp in comps], axis=-1)
    du = [comp.partial("u") for comp in comps]
    dv = [comp.partial("v") for comp in comps]
    gu, gv = _stack(du, uu, vv), _stack(dv, uu, vv)
    cross = np.cross(gu, gv)
    norms = np.linalg.norm(cross, axis=-1)
    if not curvature:
        return pts, cross, norms, None
    guu = _stack([d.partial("u") for d in du], uu, vv)
    guv = _stack([d.partial("v") for d in du], uu, vv)
    gvv = _stack([d.partial("v") for d in dv], uu, vv)
    with np.errstate(invalid="ignore", divide="ignore"):
        nhat = cross / norms[..., None]
        E, F, G = _dot(gu, gu), _dot(gu, gv), _dot(gv, gv)
        L, M, N = _dot(nhat, guu), _dot(nhat, guv), _dot(nhat, gvv)
        A = E * G - F * F
        B = E * N - 2 * F * M + G * L
        C = L * N - M * M
        disc = np.maximum(B * B - 4 * A * C, 0.0)
        kappa = 2 * C / (B + np.copysign(np.sqrt(disc), B))
    kappa[(A <= 0.0) | (B == 0.0)] = np.nan
    return pts, cross, norms, kappa


def _parameter_grid(nu, nv, extent):
    us = np.linspace(-extent, extent, nu)
    vs = np.linspace(-extent, extent, nv)
    return np.meshgrid(us, vs, indexing="ij")


def surface_mesh(germ, grid=(64, 64), extent=1.0):
    """Image of a (u, v) parameter grid under the germ."""
    _check_grid(grid)
    _check_width("extent", extent)
    nu, nv = grid
    uu, vv = _parameter_grid(nu, nv, extent)
    pts = _point_geometry(germ, uu, vv)[0]
    keep = np.ones(nu * nv, dtype=bool)
    faces = _grid_faces(nu, nv, keep)
    return Mesh(
        pts.reshape(-1, 3),
        faces,
        {"kind": "surface", "grid": [nu, nv], "extent": extent},
    ).validate()


def wavefront_mesh(germ, spec, sign=1):
    """Offset surface g +- t0 * n; see WavefrontSpec for the chart choice."""
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    if spec.chart == "blowup":
        return _blowup_offset_mesh(germ, spec, sign)
    nu, nv = spec.grid
    uu, vv = _parameter_grid(nu, nv, spec.extent)
    pts, cross, norms, _ = _point_geometry(germ, uu, vv)
    if spec.t0 == 0.0:
        keep = np.ones(nu * nv, dtype=bool)
        verts = pts.reshape(-1, 3)
        skipped = 0
    else:
        scale = max(norms.max(), 1e-30)
        keep2d = norms > 1e-12 * scale
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = cross / norms[..., None]
        offset = pts + sign * spec.t0 * normals
        keep = keep2d.reshape(-1)
        verts = offset.reshape(-1, 3)[keep]
        skipped = int((~keep).sum())
    faces = _grid_faces(nu, nv, keep)
    return Mesh(
        verts,
        faces,
        {
            "kind": "wavefront",
            "chart": "direct",
            "t0": spec.t0,
            "sign": sign,
            "grid": [nu, nv],
            "extent": spec.extent,
        },
        skipped,
    ).validate()


def _blowup_geometry(ctx, germ, grid, r_max, curvature=False):
    """Geometry over the blow-up chart's (r, theta) grid, flattened row-major.

    Returns the points, the unit normals with the extended orientation, the
    bounded curvature with respect to them (None without ``curvature``) and
    the mask of usable nodes.  Nodes with |cos theta| <= COS_TOL or a
    vanishing normal are not usable; the r = 0 row takes the closed-form
    limits from ridge_report.
    """
    n = ctx.n
    nr, ntheta = grid
    rs = np.linspace(-r_max, r_max, nr)
    thetas = np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, ntheta)
    # math.cos/sin as in the closed forms; numpy's SIMD sin/cos may differ
    # from them in the last ulp
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    rpow = (rs ** (n + 1))[:, None] * cos**n
    uu = rs[:, None] * cos
    vv = rpow * sin
    pts, cross, norms, kappa = _point_geometry(germ, uu, vv, curvature)
    orient = np.copysign(1.0, rpow)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = orient[..., None] * cross / norms[..., None]
    if curvature:
        kappa = orient * kappa  # flipping the normal flips kappa exactly
    cos_ok = np.abs(cos) > COS_TOL
    keep = (norms != 0.0) & cos_ok
    for i in np.flatnonzero(rs == 0.0):
        keep[i] = cos_ok
        for j in np.flatnonzero(cos_ok):
            rr = ridge_report(ctx, thetas[j])
            normals[i, j] = rr.normal_r0
            if curvature:
                kappa[i, j] = rr.k10
    if curvature:
        kappa = kappa.reshape(-1)
    return pts.reshape(-1, 3), normals.reshape(-1, 3), kappa, keep.reshape(-1)


def _blowup_offset_mesh(germ, spec, sign):
    nr, ntheta = spec.grid
    pts, normals, _, keep = _blowup_geometry(spec.context, germ, spec.grid, spec.r_max)
    verts = pts[keep] + sign * spec.t0 * normals[keep]
    return Mesh(
        verts,
        _grid_faces(nr, ntheta, keep),
        {
            "kind": "wavefront",
            "chart": "blowup",
            "t0": spec.t0,
            "sign": sign,
            "grid": [nr, ntheta],
            "r_max": spec.r_max,
        },
        int((~keep).sum()),
    ).validate()


def focal_sheet_mesh(ctx, grid=(33, 64), r_max=0.5):
    """Sheet of centers g + n / kappa_1 for the bounded curvature branch.

    Nodes where |kappa_1| <= KAPPA_MIN are skipped: their centers escape
    far from the surface and carry no information.
    """
    _check_grid(grid)
    _check_width("r_max", r_max)
    nr, ntheta = grid
    pts, normals, kappa, keep = _blowup_geometry(
        ctx, ctx.nf.reconstruct(), grid, r_max, curvature=True
    )
    keep &= np.abs(kappa) > KAPPA_MIN  # NaN kappa fails this too
    verts = pts[keep] + normals[keep] / kappa[keep, None]
    return Mesh(
        verts,
        _grid_faces(nr, ntheta, keep),
        {"kind": "focal-sheet", "grid": [nr, ntheta], "r_max": r_max},
        int((~keep).sum()),
    ).validate()
