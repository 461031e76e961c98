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
invariant holds to rounding.  Each mesh kind runs with numpy's float
overflow raised: a grid whose geometry overflows is a UsageError, not
warnings and an empty mesh.

The mesh writer (``germ_io.emit_mesh``) takes the text of a block of lines
from here, because only meshes load numpy: vertex lines from
``_vertex_text``, each coordinate exactly as '%.17g' writes it, built from
its correctly rounded 17-digit significand when '%.17g' writes it in fixed
notation, and face lines from ``_face_text``, each index exactly as '%d'
writes it.  Both lay a block out as rows of uint32 words, four ASCII bytes
each, read from one table of four-digit groups, and drop the zero bytes.
"""

import functools
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
        check_grid(self.grid)
        check_width("extent", self.extent)
        check_width("r_max", self.r_max)
        if self.chart not in ("direct", "blowup"):
            raise UsageError("chart must be 'direct' or 'blowup'")
        if self.chart == "blowup" and self.context is None:
            raise UsageError("the blow-up chart needs a BlowupContext")


def check_grid(grid):
    """Reject a sampling grid without two sizes of at least 2, or with more
    than MAX_GRID_NODES nodes."""
    if len(grid) != 2 or min(grid) < 2:
        raise UsageError("grid sizes must be >= 2")
    if grid[0] * grid[1] > MAX_GRID_NODES:
        raise UsageError("grid %dx%d has more than %d nodes"
                         % (grid[0], grid[1], MAX_GRID_NODES))


def check_width(name, value):
    """Reject a sampling half-width that is not a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise UsageError("%s must be a finite positive number" % name)


def _grid_faces(nu, nv, keep):
    """CCW triangulation of an (nu x nv) node grid, skipping dropped nodes.

    Each cell (a, b, c, d) = (i j, i+1 j, i+1 j+1, i j+1) gives the triangles
    (a, b, c) and (a, c, d), in row-major cell order; a triangle touching a
    dropped node is left out.  The faces are counted from the triangles'
    keep masks and written a block of cell rows (at most ``_BLOCK_NODES``
    nodes) at a time, so only one block's triangles exist besides them.
    """
    index = np.full(nu * nv, -1)
    index[keep] = np.arange(np.count_nonzero(keep))
    index = index.reshape(nu, nv)
    a, b = index[:-1, :-1], index[1:, :-1]
    c, d = index[1:, 1:], index[:-1, 1:]
    k = keep.reshape(nu, nv)
    ac = k[:-1, :-1] & k[1:, 1:]
    kept = np.stack([ac & k[1:, :-1], ac & k[:-1, 1:]], axis=-1)  # (a, b, c), (a, c, d)
    faces = np.empty((np.count_nonzero(kept), 3), index.dtype)
    at = 0
    step = max(1, _BLOCK_NODES // nv)  # cell rows per block
    for rows in (slice(i, i + step) for i in range(0, nu - 1, step)):
        tris = np.stack([x[rows] for x in (a, b, c, a, c, d)], axis=-1).reshape(-1, 3)
        count = np.count_nonzero(kept[rows])
        np.compress(kept[rows].ravel(), tris, axis=0, out=faces[at:at + count])
        at += count
    return faces


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


def _float_range(mesh_kind):
    """A mesh entry point run with numpy's float overflow raised, as a
    UsageError: a grid whose geometry overflows gives no mesh, rather than
    warnings and skipped nodes.  A division by zero or an invalid operation
    gives inf or NaN, which the keep masks and ``Mesh.validate`` handle."""
    @functools.wraps(mesh_kind)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="ignore", invalid="ignore"):
                return mesh_kind(*args, **kwargs)
        except FloatingPointError:
            raise UsageError("mesh geometry overflows float range") from None
    return run


def _mesh(verts, keep, grid, metadata):
    """Mesh of the kept nodes of a node grid: ``verts`` has one vertex per
    node of the flat row-major mask ``keep`` (picked by ``compress``, much
    faster than a boolean index); the others count as skipped."""
    return Mesh(verts, _grid_faces(*grid, keep), metadata, int((~keep).sum())).validate()


@_float_range
def surface_mesh(germ, grid=(64, 64), extent=1.0):
    """Image of a (u, v) parameter grid under the germ."""
    check_grid(grid)
    check_width("extent", extent)
    uu, vv = _parameter_grid(*grid, extent)
    pts = np.stack(_grid_values(germ.to_float().components(), uu, vv), axis=-1).reshape(-1, 3)
    keep = np.ones(len(pts), dtype=bool)
    return _mesh(pts, keep, grid, {"kind": "surface", "grid": list(grid), "extent": extent})


@_float_range
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


@_float_range
def focal_sheet_mesh(ctx, grid=(33, 64), r_max=0.5):
    """Sheet of centers g + n / kappa_1 for the bounded curvature branch.

    Nodes where |kappa_1| <= KAPPA_MIN are skipped: their centers escape
    far from the surface and carry no information.
    """
    check_grid(grid)
    check_width("r_max", r_max)
    pts, normals, kappa, keep = _blowup_geometry(
        ctx, ctx.nf.reconstruct(), grid, r_max, curvature=True
    )
    keep &= np.abs(kappa) > KAPPA_MIN  # NaN kappa fails this too
    verts = pts.compress(keep, 0) + normals.compress(keep, 0) / kappa.compress(keep)[:, None]
    return _mesh(verts, keep, grid, {"kind": "focal-sheet", "grid": list(grid), "r_max": r_max})


# ---------------------------------------------------------------------------
# mesh text (germ_io writes mesh files through this)
# ---------------------------------------------------------------------------


# The text tables below hold four ASCII bytes per entry, read as one uint32:
# a group of four digits 0000..9999 in full, without its leading zeros (zero
# bytes, dropped from the text), without its leading zeros but with at least
# its last digit, and without its trailing zeros.
_FULL, _NO_LEAD, _AT_LEAST_ONE, _NO_TRAIL = 0, 10000, 20000, 30000


@functools.lru_cache(maxsize=None)
def _digit_groups():
    """The four tables of digit groups, one uint32 array of 40000 words."""
    n = np.arange(10000, dtype=np.int16)
    full = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=-1)
    zeros = full == 0
    full = (full + ord("0")).astype(np.uint8)
    no_lead = np.where(np.logical_and.accumulate(zeros, axis=1), 0, full)
    at_least_one = no_lead.copy()
    at_least_one[0, 3] = ord("0")
    no_trail = np.where(np.logical_and.accumulate(zeros[:, ::-1], axis=1)[:, ::-1], 0, full)
    table = np.concatenate([full, no_lead, at_least_one, no_trail]).view(np.uint32).ravel()
    table.flags.writeable = False  # one array serves every caller
    return table


@functools.lru_cache(maxsize=None)
def _word(text):
    """The uint32 whose bytes are ``text``, padded with zero bytes."""
    return np.frombuffer(text.encode().ljust(4, b"\0"), np.uint32)[0]


def _two_product(a, b):
    """hi + lo = a * b exactly (Dekker), for finite a * b far from overflow
    and underflow."""
    hi = a * b
    c = 134217729.0 * a  # 2^27 + 1: Veltkamp's split into 26-bit halves
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _significands(mag):
    """The correctly rounded 17-digit significands s (int64) and decimal
    exponents X of values 1e-4 <= mag < 1e17: mag = s * 10^(X - 16) to
    within half a unit of s.

    mag * 10^(16 - X) is formed exactly as hi + lo by the two-product (10^k
    is exact in float64 for k <= 22), the guess of X from log10 moves by one
    while hi + lo lies outside [10^16, 10^17), and s = hi + rint(lo): hi is
    an even integer there, so a tie rounds to even, as '%' does.  s never
    rounds up to 10^17: every float below a power of ten 10^-3 .. 10^17 lies
    more than 8 units of s below it.
    """
    exp = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.int64)
    pow10 = np.array([10**k for k in range(21)], dtype=float)
    while True:
        hi, lo = _two_product(mag, pow10[16 - exp])
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low | high).any():
            break
        exp += high.astype(np.int64) - low
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), exp


def _integer_words(ip, words):
    """Write the integers 0 <= ip into ``words``, the last axis of which
    holds as many groups of four digits as the largest needs: without
    leading zeros, a lone 0 kept."""
    table = _digit_groups()
    lone = _AT_LEAST_ONE
    for k in reversed(range(words.shape[-1])):
        ip, group = np.divmod(ip, 10000)
        group = group.astype(np.intp, copy=False)  # uint64 + int64 would be float
        words[..., k] = table[group + np.where(ip > 0, _FULL, lone)]
        lone = _NO_LEAD


def _digit_words(sig, exp, words):
    """Write the digits of s * 10^(X - 16) into ``words``, the last axis of
    which holds the integer part's words, the point's and five words of
    places: the integer part in groups of four digits without its leading
    zeros (a lone 0 kept), the point if a place is nonzero, and the 20
    places after it in groups without trailing zeros."""
    table = _digit_groups()
    ten = np.array([10**k for k in range(18)])
    places = 16 - exp  # 0 .. 20
    ip, frac = np.divmod(sig, ten[np.minimum(places, 17)])
    int_words = words.shape[-1] - 6
    _integer_words(ip, words[..., :int_words])
    # the places, padded with zeros to 20: the first four, then sixteen
    lead, rest = np.divmod(frac, ten[np.maximum(places - 4, 0)])
    first = lead * ten[np.maximum(4 - places, 0)]
    rest *= ten[np.minimum(20 - places, 16)]
    words[..., int_words] = np.where((first > 0) | (rest > 0), _word("."), 0)
    upper, lower = np.divmod(rest, 10**8)
    groups = [first, *np.divmod(upper, 10000), *np.divmod(lower, 10000)]
    nonzero_after = [rest > 0, (groups[2] > 0) | (lower > 0), lower > 0, groups[4] > 0, False]
    for k, (group, more) in enumerate(zip(groups, nonzero_after)):
        words[..., int_words + 1 + k] = table[group + np.where(more, _FULL, _NO_TRAIL)]


def _vertex_text(rows, head, sep):
    """The lines ``head x sep y sep z`` of an (n, 3) float block, each value
    written exactly as ``'%.17g'`` writes it.

    '%.17g' writes 17 significant digits, without trailing zeros, in fixed
    notation when the rounded decimal exponent X is in [-4, 16]: for 0 and
    for 1e-4 <= |x| < 1e17.  Such a value's digits are built from its
    significand (``_significands``) by ``_digit_words``, in the word rows
    of ``_line_words``.  A row holding any other value (exponent form, nan,
    inf) is written by '%'.
    """
    mag = np.abs(rows)
    zero = rows == 0
    fixed = (mag >= 1e-4) & (mag < 1e17)  # False on nan
    sig, exp = _significands(np.where(fixed, mag, 1.0))
    sig[zero] = 0
    # per value: the integer part's words (at least one), point, places
    width = 6 + (max(int(exp.max()), 0) + 4) // 4
    words, digits = _line_words(np.signbit(rows), head, sep, width)
    _digit_words(sig, exp, digits)
    # the text of each run of rows between those written by '%'
    line = head + sep.join(["%.17g"] * 3) + "\n"
    pieces, start = [], 0
    for stop in [*np.flatnonzero(~(fixed | zero).all(axis=1)).tolist(), len(rows)]:
        pieces.append(_text(words[start:stop]))
        if stop < len(rows):
            pieces.append(line % tuple(rows[stop]))
        start = stop + 1
    return "".join(pieces)


def _face_text(faces):
    """The lines ``f a b c`` of an (n, 3) int64 block, each index written
    exactly as '%d' writes it: its digits in as many groups of four as the
    block's largest |index| needs (``_integer_words``), in the word rows of
    ``_line_words``.
    """
    mag = np.abs(faces).view(np.uint64)  # |-2^63| wraps to -2^63, whose bits are 2^63
    width = (len(str(int(mag.max()))) + 3) // 4
    words, digits = _line_words(faces < 0, "f ", " ", width)
    _integer_words(mag, digits)
    return _text(words)


def _line_words(negative, head, sep, width):
    """Rows of uint32 words for the lines ``head a sep b sep c`` of an (n, 3)
    block, and the (n, 3, width) view of them that the caller fills with the
    digits of a, b and c.  Each value takes a word of the text before it,
    ``head`` or ``sep`` and then its sign, and ``width`` words of digits,
    and a newline word ends the row."""
    n = len(negative)
    words = np.empty((n, 3 * (1 + width) + 1), np.uint32)
    body = words[:, :-1].reshape(n, 3, 1 + width)
    for k, text in enumerate((head, sep, sep)):
        body[:, k, 0] = np.where(negative[:, k], _word(text + "-"), _word(text))
    words[:, -1] = _word("\n")
    return words, body[..., 1:]


def _text(words):
    """The text of rows of uint32 words, their zero bytes dropped."""
    text = words.view(np.uint8).ravel()
    return str(text.compress(text != 0), "ascii")
