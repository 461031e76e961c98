"""Meshes of the surface, its offset (wave-front) sheets and the bounded
focal sheet.

Meshes are for inspection, not recognition.  The offset and focal meshes
come from one vectorized kernel, ``_point_geometry``, evaluated over the
parameter grid a block of rows at a time: points, raw normals and, for the
focal sheet, the bounded principal curvature, from the components and
partials evaluated in one ``jets._evaluate_jets`` call over one table of the
powers of u and v per block.  The surface mesh evaluates the points only,
over its sparse product grid.  Each mesh kind computes a keep mask over its
grid and the vertices of the kept nodes only, and one helper, ``_mesh``,
triangulates the kept nodes by array slicing of the node-index grid and
counts the skipped ones.  Offsets use the exact unit normal away from the
singular locus and the extended normal orientation across it (blow-up
chart), whose r = 0 row takes its closed-form limits from one
``ridge_reports`` loop over the theta grid, so the offset-distance
invariant holds to rounding.
"""

import math

import numpy as np

from .blowup import ridge_reports
# perfbench calls and traces front.front_verdict, and traces front.ridge_report
from .blowup import front_verdict, ridge_report  # noqa: F401
from .errors import UsageError
from .jets import _evaluate_jets
from .records import Record

# Focal-sheet nodes whose bounded curvature is at most this are skipped:
# their centers lie beyond distance 1 / KAPPA_MIN = 100.
KAPPA_MIN = 0.01

# Largest number of grid nodes a mesh may sample (1024 x 1024): a larger grid
# is refused before any array is allocated.
MAX_GRID_NODES = 2**20

# The point kernel evaluates a grid at most this many nodes (or one row) at a
# time, so its table of powers and its intermediates take memory bounded by
# the block, whatever the germ's order and the grid's size.
_BLOCK_NODES = 2**16


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


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _point_geometry(germ, uu, vv, curvature=False):
    """Point-wise geometry of the germ over (u, v) arrays that broadcast to
    one grid shape (the direct chart passes a sparse meshgrid, the blow-up
    chart full arrays).

    Returns the points, the raw normals g_u x g_v, their lengths and, with
    ``curvature``, the bounded principal curvature with respect to the unit
    raw normal (NaN where E G - F^2 <= 0 or the mean term vanishes; None
    without ``curvature``), all over the full grid.  Every partial jet is
    built once, whatever the number of nodes.  The grid is evaluated one
    block of rows (at most ``_BLOCK_NODES`` nodes, or one row) at a time:
    the components and partials in one ``_evaluate_jets`` call over one
    table of the powers of u and v (over a sparse meshgrid each power covers
    one row or column of the block), and every other intermediate over the
    block only.
    """
    comps = germ.to_float().components()
    du = [comp.partial("u") for comp in comps]
    dv = [comp.partial("v") for comp in comps]
    jets = [*comps, *du, *dv]
    if curvature:
        jets += [d.partial("u") for d in du] + [d.partial("v") for d in du]
        jets += [d.partial("v") for d in dv]
    shape = np.broadcast_shapes(uu.shape, vv.shape)
    pts, cross = np.empty(shape + (3,)), np.empty(shape + (3,))
    norms = np.empty(shape)
    kappa = np.empty(shape) if curvature else None
    step = max(1, _BLOCK_NODES // math.prod(shape[1:]))  # rows per block
    for rows in (slice(a, a + step) for a in range(0, shape[0], step)):
        # a grid array of one row is broadcast over every block
        u, v = (x if len(x) == 1 else x[rows] for x in (uu, vv))
        values = _grid_values(jets, u, v)
        zero = 0 * u  # each partial is its value + 0 * u, which sets the sign of a zero
        np.stack(values[:3], axis=-1, out=pts[rows])
        gu, gv, *second = [np.stack([x + zero for x in values[k:k + 3]], axis=-1)
                           for k in range(3, len(values), 3)]
        cross[rows] = np.cross(gu, gv)
        norms[rows] = np.linalg.norm(cross[rows], axis=-1)
        if curvature:
            kappa[rows] = _bounded_curvature(gu, gv, cross[rows], norms[rows], *second)
    return pts, cross, norms, kappa


def _bounded_curvature(gu, gv, cross, norms, guu, guv, gvv):
    """The bounded principal curvature from the first and second partials
    and the raw normal; see ``_point_geometry``."""
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
    return kappa


def _grid_values(jets, uu, vv):
    """The jets' values over the grid that ``uu`` and ``vv`` broadcast to,
    each at the grid's full shape (a constant or zero jet's value has the
    shape of ``uu``)."""
    shape = np.broadcast_shapes(uu.shape, vv.shape)
    return [np.broadcast_to(x, shape) for x in _evaluate_jets(jets, uu, vv)]


def _parameter_grid(nu, nv, extent):
    """The direct chart's (u, v) grid as a sparse meshgrid: u as a column, v
    as a row."""
    us = np.linspace(-extent, extent, nu)
    vs = np.linspace(-extent, extent, nv)
    return np.meshgrid(us, vs, indexing="ij", sparse=True)


def _mesh(verts, keep, grid, metadata):
    """Mesh of the kept nodes of a node grid: ``verts`` has one vertex per
    node of the flat row-major mask ``keep`` (picked by ``compress``, much
    faster than a boolean index); the others count as skipped."""
    return Mesh(verts, _grid_faces(*grid, keep), metadata, int((~keep).sum())).validate()


def surface_mesh(germ, grid=(64, 64), extent=1.0):
    """Image of a (u, v) parameter grid under the germ."""
    _check_grid(grid)
    _check_width("extent", extent)
    uu, vv = _parameter_grid(*grid, extent)
    pts = np.stack(_grid_values(germ.to_float().components(), uu, vv), axis=-1).reshape(-1, 3)
    keep = np.ones(len(pts), dtype=bool)
    return _mesh(pts, keep, grid, {"kind": "surface", "grid": list(grid), "extent": extent})


def wavefront_mesh(germ, spec, sign=1):
    """Offset surface g +- t0 * n; see WavefrontSpec for the chart choice.
    The direct chart drops the nodes of a vanishing normal unless t0 = 0."""
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    meta = {"kind": "wavefront", "chart": spec.chart, "t0": spec.t0, "sign": sign,
            "grid": list(spec.grid)}
    if spec.chart == "blowup":
        pts, normals, _, keep = _blowup_geometry(spec.context, germ, spec.grid, spec.r_max)
        verts = pts.compress(keep, 0) + sign * spec.t0 * normals.compress(keep, 0)
        meta["r_max"] = spec.r_max
    else:
        uu, vv = _parameter_grid(*spec.grid, spec.extent)
        pts, cross, norms, _ = _point_geometry(germ, uu, vv)
        pts, cross, norms = pts.reshape(-1, 3), cross.reshape(-1, 3), norms.reshape(-1)
        if spec.t0 == 0.0:
            keep, verts = np.ones(len(pts), dtype=bool), pts
        else:
            keep = norms > 1e-12 * max(norms.max(), 1e-30)
            unit = cross.compress(keep, 0) / norms.compress(keep)[:, None]
            verts = pts.compress(keep, 0) + sign * spec.t0 * unit
        meta["extent"] = spec.extent
    return _mesh(verts, keep, spec.grid, meta)


def _blowup_geometry(ctx, germ, grid, r_max, curvature=False):
    """Geometry over the blow-up chart's (r, theta) grid, flattened row-major.

    Returns the points, the unit normals with the extended orientation, the
    bounded curvature with respect to them (None without ``curvature``) and
    the mask of usable nodes, those of a nonvanishing normal.  The r = 0 row
    (nr odd) takes the closed-form limits from one ``ridge_reports`` loop
    over the theta grid, which stops 0.02 short of the principal normal
    direction +-pi/2.
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
    pts, cross, norms, kappa = _point_geometry(germ, rs[:, None] * cos, rpow * sin, curvature)
    orient = np.copysign(1.0, rpow)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = orient[..., None] * cross / norms[..., None]
    if curvature:
        kappa = orient * kappa  # flipping the normal flips kappa exactly
    keep = norms != 0.0
    r0 = rs == 0.0  # the exceptional set
    if r0.any():
        reports = ridge_reports(ctx, thetas)
        keep[r0] = True
        normals[r0] = [rr.normal_r0 for rr in reports]
        if curvature:
            kappa[r0] = [rr.k10 for rr in reports]
    if curvature:
        kappa = kappa.reshape(-1)
    return pts.reshape(-1, 3), normals.reshape(-1, 3), kappa, keep.reshape(-1)


def focal_sheet_mesh(ctx, grid=(33, 64), r_max=0.5):
    """Sheet of centers g + n / kappa_1 for the bounded curvature branch.

    Nodes where |kappa_1| <= KAPPA_MIN are skipped: their centers escape
    far from the surface and carry no information.
    """
    _check_grid(grid)
    _check_width("r_max", r_max)
    pts, normals, kappa, keep = _blowup_geometry(
        ctx, ctx.nf.reconstruct(), grid, r_max, curvature=True
    )
    keep &= np.abs(kappa) > KAPPA_MIN  # NaN kappa fails this too
    verts = pts.compress(keep, 0) + normals.compress(keep, 0) / kappa.compress(keep)[:, None]
    return _mesh(verts, keep, grid, {"kind": "focal-sheet", "grid": list(grid), "r_max": r_max})
