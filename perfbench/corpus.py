"""Seeded inputs for the germforge benchmark.

Everything here is plain Python over ``fractions.Fraction``; nothing is
imported from germforge, so the intended labels, probe types and mode mix
are decided independently of the program under test.

A germ is built as ``(u, y, z)`` from a base third component ``z0`` whose
class is read off the A-simple criteria (README of germforge, ``mond``
docstring), then perturbed only in ways that keep the class and its sign:

* pure-u terms added to ``y`` (they become ``b_i`` and never reach ``z``);
* ``y = q v^2`` with ``q > 0`` instead of ``v^2/2`` (rescaling ``v`` multiplies
  every ``a_ij`` by a positive power of one factor, so zero patterns and the
  sign products ``a_{k+1,1} a_03``, ``xi_k a_21``, ``a_m1 a_13`` are kept);
* the target shear ``z -> z + lam * y`` (a target diffeomorphism; the reducer
  undoes it with an orientation-preserving rotation that scales ``z`` by a
  positive factor);
* terms in ``z`` of degree above the class's determinacy degree.

Whether the reduction stays exact is predicted from the square roots the
reducer must take: ``sqrt(1 + lam^2)`` for the rotation and ``sqrt(s)`` for
the ``v^2`` scaling, with ``s = 2 q sqrt(1 + lam^2)``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

K_MAX = 8            # germforge's default k_max
WORK_ORDER = 17      # min(2 * K_MAX + 1, 20): the order classify_spec expands to

# (shear lam, v^2 coefficient q) -> the reduction's square roots are exact or not.
# Exact choices need sqrt(1 + lam^2) rational and s = 2 q sqrt(1 + lam^2) a square.
_EXACT_PLAIN = (Q(1, 2), Q(2), Q(9, 2), Q(1, 8))
_FLOAT_PLAIN = (Q(1), Q(3, 2), Q(3), Q(1, 3))
_EXACT_SHEAR = ((Q(3, 4), Q(5, 2)), (Q(-3, 4), Q(5, 8)), (Q(4, 3), Q(3, 10)),
                (Q(-4, 3), Q(15, 2)))
_FLOAT_SHEAR = ((Q(1), Q(2)), (Q(3, 4), Q(1)), (Q(-1, 2), Q(2)), (Q(2), Q(1)))


class Draw(random.Random):
    """Random source of one corpus.

    The seed decides the sign of every coefficient, the probe signs and the
    item order (``signs``).  Magnitudes, term positions and perturbation
    parameters come from a stream fixed per corpus kind, so every seed has
    the same cost profile (class mix, B_k indices, rotations, Fraction sizes)
    and the spread between seeds measures the program, not the corpus.
    """

    def __init__(self, seed, stream):
        super().__init__("germforge-bench:shape:%s" % stream)
        self.signs = random.Random("germforge-bench:%d:%s" % (seed, stream))


def fixed_draw(stream):
    """A Draw whose signs come from the fixed stream too (seed-independent)."""
    rng = Draw(0, stream)
    rng.signs = rng
    return rng


def small_rational(rng, nonzero=True, num=5, dens=(1, 2, 3, 4)):
    mag = Q(rng.randint(1 if nonzero else 0, num), rng.choice(dens))
    return mag if rng.signs.random() < 0.5 else -mag


# ---------------------------------------------------------------------------
# polynomials: {(i, j): Fraction} for the jet coefficient of u^i v^j
# ---------------------------------------------------------------------------


def padd(*polys):
    out = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def pscale(p, c):
    return {k: v * c for k, v in p.items() if v * c}


def pformat(p):
    """Render in germforge's expression grammar ('p/q*u^i*v^j' terms)."""
    if not p:
        return "0"
    parts = []
    for (i, j) in sorted(p, key=lambda k: (k[0] + k[1], -k[0])):
        c = p[(i, j)]
        factors = [str(abs(c))]
        if i:
            factors.append("u^%d" % i if i > 1 else "u")
        if j:
            factors.append("v^%d" % j if j > 1 else "v")
        body = "*".join(factors)
        parts.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def pparse(text):
    """Inverse of pformat (used by the generator's self-check only)."""
    out = {}
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token.startswith("-"):
            sign, token = -1, token[1:]
        elif token.startswith("+"):
            sign, token = 1, token[1:]
        c, i, j = Q(1), 0, 0
        for factor in token.split("*"):
            if factor.startswith("u"):
                i = int(factor[2:]) if "^" in factor else 1
            elif factor.startswith("v"):
                j = int(factor[2:]) if "^" in factor else 1
            else:
                c = Q(factor)
        out[(i, j)] = out.get((i, j), 0) + sign * c
        sign = 1
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# class criteria on the base third component (jet coefficients)
# ---------------------------------------------------------------------------


def _sign(x):
    return "+" if x > 0 else "-"


def determinacy_degree(tag, k):
    if tag in ("S0", "F4"):
        return {"S0": 2, "F4": 5}[tag]
    return {"S": k + 2, "B": 2 * k + 1, "C": k + 1}[tag]


def criterion_label(z):
    """(label, sign) of (u, v^2/2, z) by the Mond criteria, or None if the
    base is not in the restricted shape the generator uses."""
    a = lambda i, j: z.get((i, j), 0)  # noqa: E731  jet coefficients
    if a(0, 2) or a(1, 0) or a(0, 1):
        return None
    if a(1, 1):
        return ("S0", None)
    if a(0, 3):
        for k in range(1, K_MAX + 1):
            if a(k + 1, 1):
                sign = None if k % 2 == 0 else _sign(a(k + 1, 1) * a(0, 3))
                return ("S%d%s" % (k, sign or ""), sign)
        return ("Indeterminate", None)
    if a(2, 1):
        # base shape keeps every shift constant c_i zero: no u v^(2n-1) terms,
        # so xi_n is the v^(2n+1) coefficient itself
        if any(a(1, 2 * n - 1) for n in range(2, K_MAX + 1)):
            return None
        for k in range(2, K_MAX + 1):
            if a(0, 2 * k + 1):
                sign = _sign(a(0, 2 * k + 1) * a(2, 1))
                return ("B%d%s" % (k, sign), sign)
        return ("Indeterminate", None)
    if a(1, 3):
        for m in range(3, K_MAX + 1):
            if a(m, 1):
                sign = None if m % 2 == 0 else _sign(a(m, 1) * a(1, 3))
                return ("C%d%s" % (m, sign or ""), sign)
        return ("Indeterminate", None)
    if a(3, 1) and a(0, 5):
        return ("F4", None)
    return ("Indeterminate", None)


def _free_terms(rng, tag, k, count):
    """Terms that leave the class criteria of (tag, k) untouched."""
    terms = {}
    while len(terms) < count:
        deg = rng.randint(3, 6)
        i = rng.randint(0, deg)
        j = deg - i
        if j % 2 == 1:
            lowest_free_i1 = {"S": (k or 0) + 2, "B": 3, "C": (k or 0) + 1}.get(tag, 4)
            if j == 1 and i < lowest_free_i1:
                continue
            if tag != "S" and (i, j) == (0, 3):
                continue
            if tag == "B" and (i == 1 or i == 0):
                continue
            if tag in ("C", "F4") and (i, j) == (1, 3):
                continue
            if tag == "F4" and (i, j) in ((2, 1), (0, 5)):
                continue
        terms[(i, j)] = small_rational(rng)
    return terms


def base_third_component(rng, tag, k=None, free=2):
    """Base z with a prescribed class; free terms drawn from the seed."""
    z = {(2, 0): small_rational(rng, nonzero=False)}
    if tag == "S0":
        z[(1, 1)] = small_rational(rng)
    elif tag == "S":
        z[(0, 3)] = small_rational(rng)
        z[(k + 1, 1)] = small_rational(rng)
    elif tag == "B":
        z[(2, 1)] = small_rational(rng)
        z[(0, 2 * k + 1)] = small_rational(rng)
    elif tag == "C":
        z[(1, 3)] = small_rational(rng)
        z[(k, 1)] = small_rational(rng)
    elif tag == "F4":
        z[(3, 1)] = small_rational(rng)
        z[(0, 5)] = small_rational(rng)
    elif tag == "Indeterminate":
        # a_03 != 0 with every a_i1 = 0 up to i = K_MAX + 1, or none of the
        # class-defining coefficients at all
        if rng.random() < 0.5:
            z[(0, 3)] = small_rational(rng)
        else:
            z[(2, 2)] = small_rational(rng)
        return {key: c for key, c in z.items() if c}
    z.update(_free_terms(rng, tag, k, free))
    return {key: c for key, c in z.items() if c}


# ---------------------------------------------------------------------------
# classify-batch corpus
# ---------------------------------------------------------------------------

# The class mix is fixed, so the tail-setting properties (B_k index, target
# rotation, Fraction vs float arithmetic) have the same weight on every seed.
CLASSIFY_MIX = (
    [("S0", None)] * 8
    + [("S", k) for k in range(1, 9) for _ in range(16)]
    + [("B", k) for k in range(2, 9) for _ in range(16)]
    + [("C", k) for k in range(3, 9) for _ in range(16)]
    + [("F4", None)] * 16
    + [("UUV", None)] * 8
    + [("Indeterminate", None)] * 16
)
# One germ in sixteen of each class is rotated (exact or float by class), so
# rotations set the far tail and the B_k index sets p90; the other fifteen
# alternate between exact and float reductions.
ROTATED_SLOT = 7


def _variant(slot, cls_index):
    if slot % 16 == ROTATED_SLOT:
        return True, cls_index % 2 == 0
    return False, slot % 2 == 0


def _probe_list(rng):
    probes = [[Q(0), small_rational(rng), small_rational(rng)] for _ in range(2)]
    probes.append([Q(0), Q(0), small_rational(rng)])
    probes.append([small_rational(rng), small_rational(rng), small_rational(rng)])
    return [[str(c) for c in p] for p in probes]


def classify_corpus(seed):
    """Germ documents with their intended label, sign and mix properties."""
    rng = Draw(seed, "classify")
    items = []
    counters = {}
    for tag, k in CLASSIFY_MIX:
        slot = counters.get((tag, k), 0)
        counters[(tag, k)] = slot + 1
        rotated, exact = _variant(slot, len(counters))
        if tag == "S0":
            rotated, exact = None, None
        if tag == "UUV":
            y = {(1, 1): small_rational(rng)}
            z = {(0, 3): small_rational(rng), (2, 1): small_rational(rng)}
            y.update({(i, 0): small_rational(rng) for i in (2, 3) if rng.random() < 0.5})
            items.append(_doc(y, z, "TwoJetUV", None, None, None, None, rng))
            continue
        perturb = tag != "Indeterminate"
        if not perturb:
            rotated = False
        # rotated germs carry no extra terms: the rotation already spreads every
        # odd-v term of z into y, and the reduction cost grows with their number
        base = base_third_component(rng, tag, k, free=0 if rotated else rng.randint(0, 3))
        if rotated:
            lam, q = rng.choice(_EXACT_SHEAR if exact else _FLOAT_SHEAR)
        else:
            lam, q = Q(0), rng.choice(_EXACT_PLAIN if exact else _FLOAT_PLAIN)
        y = {(0, 2): q}
        for i in range(2, 5):
            if rng.random() < 0.5:
                y[(i, 0)] = small_rational(rng)
        high = {}
        if perturb and not rotated and tag != "S0":
            dmin = determinacy_degree(tag, k) + 1
            for _ in range(rng.randint(0, 2)):
                if dmin <= WORK_ORDER:
                    deg = rng.randint(dmin, min(dmin + 3, WORK_ORDER))
                    i = rng.randint(0, deg)
                    high[(i, deg - i)] = small_rational(rng)
        z = padd(base, pscale(y, lam), high)
        label, sign = criterion_label(base)
        items.append(_doc(y, z, label, sign, rotated, _predict_exact(lam, q), (tag, k), rng,
                          base=base, lam=lam, q=q, high=high))
    for idx, item in enumerate(items):
        item["id"] = "g%03d" % idx
    rng.signs.shuffle(items)
    return items


def _is_square(x):
    x = Q(x)
    return x >= 0 and all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def _predict_exact(lam, q):
    """Exact iff every square root the reducer takes is rational."""
    r2 = 1 + lam * lam
    if not _is_square(r2):
        return False
    root = Q(math.isqrt(r2.numerator), math.isqrt(r2.denominator))
    return _is_square(2 * q * root)


def _doc(y, z, label, sign, rotated, exact, cls, rng, **parts):
    doc = {
        "variables": ["u", "v"],
        "components": ["u", pformat(y), pformat(z)],
        "order": 6,
        "mode": "exact",
        "probes": _probe_list(rng),
    }
    return {
        "doc": doc,
        "label": label,
        "sign": sign,
        "rotated": rotated,
        "exact": exact,
        "cls": cls,
        "expects_nf": label not in ("S0", "TwoJetUV"),
        "parts": parts,
    }


def check_classify_corpus(items):
    """Generator self-check: printed components equal the intended polynomials,
    and every perturbation is of a label-preserving kind.  Returns a list of
    problems (empty when the corpus is sound)."""
    problems = []
    for item in items:
        comps = item["doc"]["components"]
        parts = item["parts"]
        if not parts:
            if pparse(comps[0]) != {(1, 0): Q(1)}:
                problems.append((item["id"], "x component is not u"))
            continue
        base, lam, q, high = parts["base"], parts["lam"], parts["q"], parts["high"]
        y = pparse(comps[1])
        z = pparse(comps[2])
        if pparse(comps[0]) != {(1, 0): Q(1)}:
            problems.append((item["id"], "x component is not u"))
        if any(j and (i, j) != (0, 2) for (i, j) in y) or y.get((0, 2), 0) != q or q <= 0:
            problems.append((item["id"], "y is not q*v^2 plus pure-u terms with q > 0"))
        if padd(z, pscale(base, -1), pscale(y, -lam), pscale(high, -1)):
            problems.append((item["id"], "z is not base + lam*y + high terms"))
        tag, k = item["cls"]
        if high and min(i + j for i, j in high) <= determinacy_degree(tag, k):
            problems.append((item["id"], "high-order term at or below the determinacy degree"))
        if (criterion_label(base) or (None, None)) != (item["label"], item["sign"]):
            problems.append((item["id"], "base class differs from the intended label"))
        if lam and item["label"] == "Indeterminate":
            problems.append((item["id"], "indeterminate germ was sheared"))
    return problems


def mix_summary(items):
    """Counts of the properties that set classify-batch's tail."""
    out = {"germs": len(items), "rotated": 0, "exact_predicted": 0, "bk_index": {}}
    for item in items:
        out["rotated"] += bool(item["rotated"])
        out["exact_predicted"] += bool(item["exact"])
        cls = item["cls"]
        if cls and cls[0] == "B":
            key = "B%d" % cls[1]
            out["bk_index"][key] = out["bk_index"].get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# analysis / mesh / cli corpora: germs already in the pre-normal form
#   (u, v^2/2 + sum b_i u^i/i!, a_20 u^2/2 + sum a_ij u^i v^j/(i! j!))
# so the normal-form coefficients a_ij, b_i are known exactly.
# ---------------------------------------------------------------------------

BLOWUP_EXPONENT = {"S": lambda k: k, "B": lambda k: 1, "C": lambda k: k - 1,
                   "F4": lambda k: 2}
ANALYSIS_MIX = [("S", 1), ("S", 2), ("S", 3), ("B", 2), ("B", 3), ("C", 3),
                ("C", 4), ("F4", None)] * 3


class PreNormal:
    """Exact normal-form coefficients with the germ document they come from."""

    def __init__(self, tag, k, a, b):
        self.tag, self.k = tag, k
        self.a = {key: c for key, c in a.items() if c}   # a_ij (factorial-scaled)
        self.b = {i: c for i, c in b.items() if c}
        self.n = BLOWUP_EXPONENT[tag](k)

    def A(self, i, j):
        return self.a.get((i, j), Q(0))

    def B(self, i):
        return self.b.get(i, Q(0))

    def components(self):
        y = {(0, 2): Q(1, 2)}
        y.update({(i, 0): c / math.factorial(i) for i, c in self.b.items()})
        z = {(i, j): c / (math.factorial(i) * math.factorial(j))
             for (i, j), c in self.a.items()}
        return ["u", pformat(y), pformat(z)]

    def doc(self, probes=(), pairs=()):
        return {"variables": ["u", "v"], "components": self.components(), "order": 6,
                "mode": "exact", "probes": [[str(c) for c in p] for p in probes],
                "theta_lambda": [list(p) for p in pairs]}

    def label(self):
        """criterion_label reads zero patterns and signs, which the factorial
        scaling of a_ij keeps."""
        return criterion_label(self.a)

    # closed-form data used to place probes (from germforge's distance docstring)
    def c4(self, y0, z0):
        a20, b2 = self.A(2, 0), self.B(2)
        return (self.B(4) * y0 * y0 + self.A(4, 0) * y0 * z0
                - 3 * self.A(2, 1) ** 2 * z0 * z0 - 3 * (a20 * a20 + b2 * b2) * y0)

    def nr(self, z0):
        a04, a20, a12 = self.A(0, 4), self.A(2, 0), self.A(1, 2)
        return (a04 * a20 - 3 * a12 * a12) * z0 * z0 - (a04 + 3 * a20) * z0 + 3

    # float data of the blow-up (BlowupContext.a_lead, fact, ma, k10, normal)
    def k10(self, theta):
        a, m = float(self.A(self.n + 1, 1)), float(math.factorial(self.n + 1))
        c, s = math.cos(theta), math.sin(theta)
        ma = math.hypot(a * c, m * s)
        return (-a * float(self.B(2)) * c + m * float(self.A(2, 0)) * s) / ma

    def ridge_theta(self):
        a, m = float(self.A(self.n + 1, 1)), float(math.factorial(self.n + 1))
        return math.atan(a * float(self.B(3)) / (m * float(self.A(3, 0))))


def prenormal_germ(rng, tag, k, tune_a4):
    """Random pre-normal form of class (tag, k) whose probes reach every
    distance type: a_20, a_30, b_3 != 0 so the focal line, the cubic line and
    their intersection exist; with tune_a4 the quartic witnesses are solved
    to vanish there (A4+ in place of A3)."""
    while True:
        z = base_third_component(rng, tag, k, free=0)
        z.pop((2, 0), None)
        a = {(i, j): c * math.factorial(i) * math.factorial(j) for (i, j), c in z.items()}
        for key in ((2, 0), (3, 0)):
            a[key] = small_rational(rng)
        a[(4, 0)] = small_rational(rng, nonzero=False)
        a[(1, 2)] = small_rational(rng, nonzero=False)
        a[(0, 4)] = small_rational(rng, nonzero=False)
        b = {2: small_rational(rng, nonzero=False), 3: small_rational(rng),
             4: small_rational(rng, nonzero=False)}
        g = PreNormal(tag, k, a, b)
        det = g.B(2) * g.A(3, 0) - g.A(2, 0) * g.B(3)
        if not det:
            continue
        y3, z3 = g.A(3, 0) / det, -g.B(3) / det       # focal line meets cubic line
        zp = 2 / g.A(2, 0)                             # principal-normal probe
        if tune_a4:
            g.b[4] = (3 * g.A(2, 1) ** 2 * z3 * z3 + 3 * (g.A(2, 0) ** 2 + g.B(2) ** 2) * y3
                      - g.A(4, 0) * y3 * z3) / (y3 * y3)
            if not g.A(0, 3):
                g.a[(0, 4)] = (3 * g.A(1, 2) ** 2 * zp * zp + 3 * g.A(2, 0) * zp - 3) / (
                    g.A(2, 0) * zp * zp - zp)
            g = PreNormal(tag, k, g.a, g.b)
        elif not g.c4(y3, z3) or (not g.A(0, 3) and not g.nr(zp)):
            continue
        theta_r = g.ridge_theta()
        theta_g = theta_r - 0.6 if theta_r > 0 else theta_r + 0.6
        if min(abs(g.k10(theta_r)), abs(g.k10(theta_g))) < 1e-2:
            continue
        return g, (y3, z3), zp, theta_r, theta_g


def _analysis_bank():
    """The seed-independent germs, probes and pairs of the analysis workload.

    Oracle and rank-test costs grow with the Fraction sizes of the probes,
    which depend on every coefficient's sign; so the bank is fixed and the
    seed only reflects it (see ``reflect``), which keeps each germ's cost.
    """
    rng = fixed_draw("analysis")
    bank = []
    for idx, (tag, k) in enumerate(ANALYSIS_MIX):
        tune = idx % 2 == 1
        g, (y3, z3), zp, theta_r, theta_g = prenormal_germ(rng, tag, k, tune)
        a20, b2 = g.A(2, 0), g.B(2)
        while True:
            t = small_rational(rng)
            y1, z1 = small_rational(rng), small_rational(rng)
            z2 = (1 - b2 * t) / a20
            if b2 * y1 + a20 * z1 - 1 and g.B(3) * t + g.A(3, 0) * z2:
                break
        typ3 = "A4plus" if tune else "A3"
        principal = "A2" if g.A(0, 3) else ("A4plus" if tune else "A3")
        probes = [
            ((small_rational(rng), small_rational(rng), small_rational(rng)), "Regular"),
            ((Q(0), y1, z1), "A1"),
            ((Q(0), t, z2), "A2"),
            ((Q(0), y3, z3), typ3),
            ((Q(0), Q(0), 1 / a20), "D4plus"),
            ((Q(0), Q(0), zp), principal),
        ]
        k_g, k_r = g.k10(theta_g), g.k10(theta_r)
        pairs = [
            ((theta_g, 0.5 / k_g), "A1"),
            ((theta_g, 1.0 / k_g), "A2"),
            ((theta_r, 1.0 / k_r), typ3),
        ]
        principal_pairs = [(1 / a20, "D4plus"), (zp, principal)]
        bank.append((g, probes, pairs, principal_pairs, [theta_g, theta_r]))
    return bank


def reflect(g, eu, ev, ez):
    """The germ under u -> eu*u (with x -> eu*x), v -> ev*v and z -> ez*z.

    These isometries keep every class label and sign (the sign products pick
    up even powers), every distance-squared type and every Fraction size.
    """
    a = {(i, j): c * eu ** i * ev ** j * ez for (i, j), c in g.a.items()}
    b = {i: c * eu ** i for i, c in g.b.items()}
    return PreNormal(g.tag, g.k, a, b)


def analysis_corpus(seed):
    """Exact pre-normal forms with rational probes and theta-lambda pairs, each
    with the distance-squared type it was placed to produce.  The seed picks
    a reflection of every germ of the fixed bank and the item order."""
    flips = random.Random("germforge-bench:%d:analysis" % seed)
    items = []
    for idx, (g, probes, pairs, principal_pairs, thetas) in enumerate(_analysis_bank()):
        eu, ev, ez = (flips.choice((-1, 1)) for _ in range(3))
        h = reflect(g, eu, ev, ez)
        # the normal n(0, theta) has y-part -a c / ma and z-part m s / ma with
        # a = a_{n+1,1}, which picks up ea below: theta -> ea*ez*theta, lam -> ea*lam
        ea = eu ** (h.n + 1) * ev * ez
        probes = [((eu * x, y, ez * z), typ) for (x, y, z), typ in probes]
        pairs = [((ea * ez * th, ea * lam), typ) for (th, lam), typ in pairs]
        pairs += [((math.pi / 2, float(ez * z0)), typ) for z0, typ in principal_pairs]
        items.append({
            "id": "a%02d" % idx,
            "label": h.label()[0],
            "doc": h.doc([p for p, _ in probes], [p for p, _ in pairs]),
            "probe_types": [t for _, t in probes],
            "pair_types": [t for _, t in pairs],
            "front_thetas": [ea * ez * th for th in thetas],
        })
    flips.shuffle(items)
    return items


MESH_MIX = [("S", 1), ("B", 2), ("C", 3)]


def mesh_corpus(seed):
    """A fixed bank of geometry germs, each reflected by the seed."""
    rng = fixed_draw("mesh")
    flips = random.Random("germforge-bench:%d:mesh" % seed)
    items = []
    for idx, (tag, k) in enumerate(MESH_MIX):
        g = reflect(prenormal_germ(rng, tag, k, False)[0],
                    *(flips.choice((-1, 1)) for _ in range(3)))
        items.append({"id": "m%d" % idx, "label": g.label()[0], "doc": g.doc()})
    return items


MALFORMED = (
    ("syntax", {"components": ["u", "v^2 +", "u*v"]}),
    ("schema", {"components": ["u", "v^2"]}),
    ("mode", {"mode": "complex"}),
    ("constant", {"components": ["u + 1", "v^2", "u^2*v + v^3"]}),
)


def cli_corpus(seed):
    """One geometry germ (with probes and pairs) and one malformed document."""
    ident = "a%02d" % ANALYSIS_MIX.index(("S", 2))
    item = next(entry for entry in analysis_corpus(seed) if entry["id"] == ident)
    name, patch = MALFORMED[seed % len(MALFORMED)]
    bad = dict(item["doc"], **patch)
    return {"good": item, "bad": bad, "bad_kind": name}
