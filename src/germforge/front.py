"""Wave-front and caustic type predictions at focal points, plus mesh
generation for the surface, its offset (wave-front) sheets and the bounded
focal sheet.

Predictions are table-driven from the ridge/sub-parabolic flags:

    not a ridge                        -> wave-front: cuspidal edge
    first-order ridge, not subparabolic -> wave-front: swallowtail,
                                           caustic:    cuspidal edge
    anything else                      -> undetermined

Meshes are for inspection, not recognition.  Every mesh comes from one
vectorized kernel, ``_point_geometry``, evaluated over the whole parameter
grid at once: points, raw normals and, for the focal sheet, the bounded
principal curvature.  Offsets use the exact unit normal away from the
singular locus and the extended normal orientation across it (blow-up
chart), so the offset-distance invariant holds to rounding.  Triangulation
is array slicing of the node-index grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .blowup import COS_TOL, k10_closed, k10_scale, normal_r0_closed, ridge_report
from .errors import HypothesisError, UsageError
from .jets import is_zero

# Focal-sheet nodes whose bounded curvature is at most this are skipped:
# their centers lie beyond distance 1 / KAPPA_MIN = 100.
KAPPA_MIN = 0.01


class FrontType(Enum):
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    UNDETERMINED = "Undetermined"


@dataclass
class FrontVerdict:
    theta0: float
    wavefront_type: FrontType
    caustic_type: FrontType
    basis: dict


def verdict_from_flags(is_ridge, is_first_order_ridge, is_subparabolic):
    """The (wavefront, caustic) type pair as a pure function of the flags."""
    if not is_ridge:
        return (FrontType.CUSPIDAL_EDGE, FrontType.UNDETERMINED)
    if is_first_order_ridge and not is_subparabolic:
        return (FrontType.SWALLOWTAIL, FrontType.CUSPIDAL_EDGE)
    return (FrontType.UNDETERMINED, FrontType.UNDETERMINED)


def front_verdict(ctx, theta0):
    """Predicted wave-front/caustic type at the focal point along theta0.

    Along the principal normal direction itself the unfolding is never
    versal and no type is claimed: both predictions are Undetermined.
    """
    rr = ridge_report(ctx, theta0)
    basis = {
        "is_ridge": rr.is_ridge,
        "is_first_order_ridge": rr.is_first_order_ridge,
        "is_subparabolic": rr.is_subparabolic,
    }
    if abs(math.cos(theta0)) <= COS_TOL:
        basis["on_principal_normal"] = True
        return FrontVerdict(
            theta0, FrontType.UNDETERMINED, FrontType.UNDETERMINED, basis
        )
    scale = max(1.0 / ctx.ma(theta0), k10_scale(ctx, theta0))
    if is_zero(k10_closed(ctx, theta0), scale):
        raise HypothesisError(
            "the bounded principal curvature vanishes at theta0 = %g" % theta0
        )
    wavefront, caustic = verdict_from_flags(
        rr.is_ridge, rr.is_first_order_ridge, rr.is_subparabolic
    )
    return FrontVerdict(theta0, wavefront, caustic, basis)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass
class Mesh:
    vertices: np.ndarray              # (V, 3) float64
    faces: np.ndarray                 # (F, 3) int vertex indices
    metadata: dict = field(default_factory=dict)
    skipped: int = 0                  # grid nodes dropped (degenerate data)

    def validate(self):
        if len(self.vertices) and not np.isfinite(self.vertices).all():
            raise UsageError("mesh contains non-finite vertices")
        if len(self.faces) and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise UsageError("mesh face indices out of range")
        return self


@dataclass
class WavefrontSpec:
    t0: float = 0.0
    grid: tuple = (64, 64)
    chart: str = "direct"             # "direct" | "blowup"
    extent: float = 1.0               # half-width of the sampled parameter box
    r_max: float = 0.5                # blow-up chart radial half-width
    context: Optional[object] = None  # BlowupContext, required for "blowup"

    def __post_init__(self):
        if self.t0 < 0 or not math.isfinite(self.t0):
            raise UsageError("t0 must be a finite nonnegative offset")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise UsageError("grid sizes must be >= 2")
        if self.chart not in ("direct", "blowup"):
            raise UsageError("chart must be 'direct' or 'blowup'")
        if self.chart == "blowup" and self.context is None:
            raise UsageError("the blow-up chart needs a BlowupContext")


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
    limits.
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
            normals[i, j] = normal_r0_closed(ctx, thetas[j])
            if curvature:
                kappa[i, j] = k10_closed(ctx, thetas[j])
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
