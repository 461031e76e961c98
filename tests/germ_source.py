"""Seeded test germs with known answers, drawn on the benchmark corpus.

``perfbench/corpus.py`` builds germs in plain Fraction arithmetic and reads
their class off the Mond criteria without importing germforge.  This module
loads it read-only (its source is compiled here, so no bytecode is written
under ``perfbench/``) and adds what the tests draw:

* ``prenormal``: an exact pre-normal form of a given label, with probes
  placed to reach every branch of the distance tree and theta-lambda pairs
  on the focal locus; ``gallery_draws`` cycles it through ``GALLERY``;
* ``dense_form``: a normal form with every coefficient nonzero;
* ``weighted_scaling``: the normal form of mu^2 g;
* ``conjugation``: a rational source change and target rotation.

Coefficients are the factorial-scaled a_ij and b_i as Fractions, in dicts
{(i, j): a_ij} and {i: b_i}; a test builds its NormalFormCoeffs from them
in either scalar mode.  Nothing here imports germforge, so every label is
decided independently of the program under test.

Every function that draws takes a ``draw(...)`` source, not any
``random.Random``: the corpus draws signs from its own ``rng.signs``.
"""

import itertools
import types
from fractions import Fraction as Q
from pathlib import Path

CORPUS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
corpus = types.ModuleType("perfbench_corpus")
exec(compile(CORPUS_FILE.read_text(encoding="utf-8"), str(CORPUS_FILE), "exec"), vars(corpus))

draw = corpus.fixed_draw        # a seeded source: draw("stream name")
_rational = corpus.small_rational

# one label per class and sign of S1-S3, B2-B3, C3-C4 and F4
GALLERY = ("S1+", "S1-", "S2", "S3+", "S3-", "B2+", "B2-", "B3+", "B3-",
           "C3+", "C3-", "C4", "F4")


def dense_form(rng, order, n=1):
    """(a, b) of a normal form of the given order with every coefficient
    nonzero but a_21 .. a_n1, so that it admits the blow-up exponent n."""
    a = {(i, d - i): _rational(rng) for d in range(3, order + 1) for i in range(d + 1)
         if not (d - i == 1 and 2 <= i <= n)}
    a[(2, 0)] = _rational(rng)
    return a, {i: _rational(rng) for i in range(2, order + 1)}


def prenormal(rng, label, tune=False, order=6):
    """(g, probes, pairs) for a ``corpus.PreNormal`` g of the given label
    ("S1+", or "S1" for either sign), redrawn until its label matches.

    g carries ``corpus.prenormal_germ``'s terms (with ``tune`` its quartic
    witnesses vanish at the focal/cubic-line intersection, the case-4a
    point) and every term of degree 4 to ``order`` but a_40 and a_04 that
    keeps its label.  The probes lie on the normal plane off the focal
    locus, on the focal line off the cubic line, at the focal/cubic-line
    intersection, at the umbilic (0, 0, 1/a20) and on the principal normal
    at (0, 0, 2/a20); the pairs (theta, 1/k10) lie on the focal locus at a
    generic and at the ridge direction.
    """
    tag, k = ("F4", None) if label == "F4" else (label[0], int(label[1:].rstrip("+-")))
    while True:
        g, (y3, z3), zp, theta_r, theta_g = corpus.prenormal_germ(rng, tag, k, tune)
        if label in (g.label()[0], g.label()[0].rstrip("+-")):
            break
    a, b = dense_form(rng, order)
    for key, c in a.items():
        if (sum(key) >= 4 and key not in g.a and key not in ((4, 0), (0, 4))
                and corpus.criterion_label({**g.a, key: c}) == g.label()):
            g.a[key] = c
    g.b.update((i, c) for i, c in b.items() if i >= 5)
    a20, b2 = g.A(2, 0), g.B(2)
    while True:
        t, y1, z1 = _rational(rng), _rational(rng), _rational(rng)
        z2 = (1 - b2 * t) / a20
        if b2 * y1 + a20 * z1 != 1 and g.B(3) * t + g.A(3, 0) * z2:
            break
    zero = Q(0)
    probes = [(zero, y1, z1), (zero, t, z2), (zero, y3, z3), (zero, zero, 1 / a20),
              (zero, zero, zp)]
    return g, probes, [(theta, 1 / g.k10(theta)) for theta in (theta_g, theta_r)]


def gallery_draws(rng, order=6):
    """Endless (label, g, probes, pairs) of ``prenormal`` forms of the
    ``GALLERY`` labels in turn, every second form tuned to reach case 4a."""
    for idx in itertools.count():
        label = GALLERY[idx % len(GALLERY)]
        yield (label, *prenormal(rng, label, idx % 2 == 1, order))


def weighted_scaling(a, b, mu):
    """(a', b') of the normal form of mu^2 g, through u' = mu^2 u and
    v' = mu v: a'_ij = mu^(2-2i-j) a_ij and b'_i = mu^(2-2i) b_i."""
    return ({(i, j): c * mu ** (2 - 2 * i - j) for (i, j), c in a.items()},
            {i: c * mu ** (2 - 2 * i) for i, c in b.items()})


def _rotation(w):
    """The Cayley transform (I + S)(I - S)^-1 = I + 2 (S + S^2) / (1 + |w|^2)
    of the skew matrix S with S x = cross(w, x): a rational rotation."""
    n2 = sum(c * c for c in w)
    skew = ((0, -w[2], w[1]), (w[2], 0, -w[0]), (-w[1], w[0], 0))
    return [[(i == j) + 2 * (skew[i][j] + w[i] * w[j] - n2 * (i == j)) / (1 + n2)
             for j in range(3)] for i in range(3)]


def conjugation(rng):
    """(x, y, matrix): the source change u -> x(u, v), v -> y(u, v), a Cayley
    rotation of the (u, v)-plane plus every term of degree 2 and 3, and a
    Cayley rotation of the target, times the reflection z -> -z in one draw
    of two."""
    plane = _rotation((0, 0, _rational(rng)))
    x, y = ({(1, 0): row[0], (0, 1): row[1]} for row in plane[:2])
    for poly in (x, y):
        poly.update({(i, d - i): _rational(rng) for d in (2, 3) for i in range(d + 1)})
    matrix = _rotation([_rational(rng) for _ in range(3)])
    if rng.random() < 0.5:
        matrix[2] = [-c for c in matrix[2]]
    return x, y, matrix
