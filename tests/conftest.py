import math
import random
from fractions import Fraction

import numpy as np
import pytest

from germforge import germ_io, pipeline
from germforge.jets import EXACT, GermJets, Jet2
from germforge.normal_form import NormalFormCoeffs


def rand_fraction(rng, max_num=9, max_den=5, nonzero=False):
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_jet(rng, order, mode=EXACT, density=0.6, max_num=9, max_den=5):
    terms = {}
    for d in range(order + 1):
        for i in range(d + 1):
            if rng.random() < density:
                c = rand_fraction(rng, max_num, max_den)
                if c:
                    terms[(i, d - i)] = c if mode == EXACT else float(c)
    return Jet2(order, terms, mode)


def make_nf(order=6, mode=EXACT, a=None, b=None):
    """Build NormalFormCoeffs from {(i,j): value} / {i: value} dicts."""
    a = dict(a or {})
    b = dict(b or {})
    if mode == EXACT:
        a = {k: Fraction(v) for k, v in a.items()}
        b = {k: Fraction(v) for k, v in b.items()}
    else:
        a = {k: float(v) for k, v in a.items()}
        b = {k: float(v) for k, v in b.items()}
    return NormalFormCoeffs(order, mode, a, b)


def classified_ctx(components):
    """The class label and blow-up context of an exact order-9 germ."""
    doc = {"variables": ["u", "v"], "components": components, "order": 9,
           "mode": "exact"}
    outcome = pipeline.classify_spec(germ_io.germ_spec_from_dict(doc))
    return outcome.mond.label, pipeline.blowup_context(outcome)


GEOMETRY_GERMS = {
    "S1+": ["u", "1/2*v^2 + 7/10*u^2 + 4/5*u^3",
            "v^3 + 7/5*u^2*v - 2/5*u^3 + 1/2*u^4 + 3/10*u*v^2"],
    "B2+": ["u", "1/2*v^2 + 3/5*u^2 - 1/2*u^3",
            "6/5*u^2*v + v^5 + 1/3*u^3 - 1/4*u*v^2"],
    "C3+": ["u", "1/2*v^2 + 1/2*u^2 + 1/3*u^3",
            "u*v^3 + u^3*v + 2/5*u^3 - 1/5*u^4"],
}


def jets_close(a, b, tol=1e-9):
    """Jets of one order whose coefficients agree within tol times the
    largest coefficient magnitude (at least 1)."""
    if a.order != b.order:
        return False
    keys = set(a.coeffs) | set(b.coeffs)
    scale = max(1.0, float(a.max_abs()), float(b.max_abs()))
    return all(
        abs(float(a.coeff(*k)) - float(b.coeff(*k))) <= tol * scale for k in keys
    )


def unit_defect(normal):
    """Series of n1^2 + n2^2 + n3^2 - 1 for a NormalSeries (vanishes through
    its depth when the normal has unit length)."""
    def square(a):
        return [a[0] * a[0], 2 * a[0] * a[1], 2 * a[0] * a[2] + a[1] * a[1]]

    total = [sum(terms) for terms in zip(*map(square, (normal.n1, normal.n2, normal.n3)))]
    total[0] -= 1.0
    return total


def germ_from_strings(components, order, mode=EXACT):
    from germforge.germ_io import parse_polynomial

    jets = [parse_polynomial(c, ("u", "v"), order, mode) for c in components]
    return GermJets(*jets)


def raw_geometry(ctx, r, theta, germ=None):
    """Point-wise geometry at the blow-up node (r, theta), one node at a time.

    The scalar reference for the series pipeline, the mesh kernel and the
    curvature limits: the germ (default: the context's normal form) is
    evaluated with its jet partials at (u, v) = (r cos, r^(n+1) cos^n sin).
    Returns the point, g_u, g_v, E/F/G, the unit normal with the extended
    orientation sign(r^(n+1) cos^n theta), L/M/N, the Gaussian curvature K,
    and the bounded and unbounded principal curvatures kappa and kappa2.
    Where g_u x g_v vanishes the normal and every value built on it is None;
    kappa and kappa2 are also None where E G - F^2 <= 0 or the mean term
    E N - 2 F M + G L vanishes.
    """
    n = ctx.n
    c, s = math.cos(theta), math.sin(theta)
    u, v = r * c, r ** (n + 1) * c**n * s
    comps = (ctx.nf.reconstruct() if germ is None else germ).components()

    def at(jets):
        return np.array([jet.evaluate(u, v) for jet in jets])

    du = [comp.partial("u") for comp in comps]
    dv = [comp.partial("v") for comp in comps]
    gu, gv = at(du), at(dv)
    E, F, G = gu @ gu, gu @ gv, gv @ gv
    geo = dict(point=at(comps), gu=gu, gv=gv, E=E, F=F, G=G, normal=None,
               L=None, M=None, N=None, K=None, kappa=None, kappa2=None)
    cross = np.cross(gu, gv)
    norm = np.linalg.norm(cross)
    if norm == 0.0:
        return geo
    nhat = math.copysign(1.0, r ** (n + 1) * c**n) * cross / norm
    L = nhat @ at([d.partial("u") for d in du])
    M = nhat @ at([d.partial("v") for d in du])
    N = nhat @ at([d.partial("v") for d in dv])
    A = E * G - F * F
    B = E * N - 2 * F * M + G * L
    C = L * N - M * M
    geo.update(normal=nhat, L=L, M=M, N=N, K=C / A)
    if A > 0.0 and B != 0.0:
        root = B + math.copysign(math.sqrt(max(B * B - 4 * A * C, 0.0)), B)
        geo.update(kappa=2 * C / root, kappa2=root / (2 * A))
    return geo


@pytest.fixture
def rng():
    return random.Random(20240817)
