"""Reference values for the series coefficients the pipeline cross-checks.

The series pipeline in blowup.py is the authoritative computation; the
trigonometric-polynomial expressions below for the depth-1/2 coefficients
were transcribed from an independently stated coefficient table and are
kept purely as a validation corpus.  The r^0 columns K0 and k20 are held to
ridge_reports' k10 k20 and k20 over the same thetas.
``crosscheck_closed_forms`` evaluates both sides and reports the
differences, and every entry is expected to agree to rounding.  L1 equals
k11 identically, and one expression, ref_k11, is the reference for both:
the table prints L1's correction term with a plus sign, where k11's display
carries the minus sign used here.  Two more expressions differ from the
printed table, where the table is wrong: M1 (see its function) and the
n = 1 term of N2, re-derived from the series expansion of the unit normal.
"""

import math

from .blowup import ridge_reports, series_columns
from .records import Record


def _shorthands(ctx, thetas):
    """The symbols the reference forms read, one dict per theta: the
    theta-independent ones are evaluated once, cos and sin once per theta,
    and ma, k10 and k20 are ridge_reports'."""
    nf = ctx.nf
    n = ctx.n
    fixed = {
        "n": n,
        "eps": ctx.epsilon,
        "a": ctx.a_lead,            # a_{n+1,1}
        "m": ctx.fact,              # (n+1)!
        "m2f": float(math.factorial(n + 2)),
        "an2": nf.a_(n + 2, 1),
        "an3": nf.a_(n + 3, 1),
        "a20": nf.a_(2, 0),
        "a30": nf.a_(3, 0),
        "a12": nf.a_(1, 2),
        "a22": nf.a_(2, 2),
        "a03": nf.a_(0, 3),
        "b2": nf.b_(2),
        "b3": nf.b_(3),
    }
    for rr in ridge_reports(ctx, thetas):
        c, s = math.cos(rr.theta), math.sin(rr.theta)
        yield dict(fixed, c=c, s=s, ma=rr.ma, k10=rr.k10, k20=rr.k20)


def ref_n21(h):
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    return (
        -h["m"] ** 2
        * (h["an2"] * c + h["m2f"] * h["a12"] * s)
        * c
        * s**2
        / ((n + 2) * ma**3)
    )


def ref_n31(h):
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    return (
        -h["m"]
        * h["a"]
        * (h["an2"] * c + h["m2f"] * h["a12"] * s)
        * c**2
        * s
        / ((n + 2) * ma**3)
    )


def ref_M1(h):
    # The table drops the cos^n sin factor of the leading term and prints
    # cos^(n+1) in the correction term.
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    return (h["an2"] * c + h["m"] * h["a12"] * s) * c**n * s / ma - (
        (n + 1)
        * h["a"] ** 2
        * (h["an2"] * c + h["m2f"] * h["a12"] * s)
        * c ** (n + 2)
        * s
        / ((n + 2) * ma**3)
    )


def ref_N1(h):
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    return h["m"] * h["a12"] * c * s / ma - (
        h["m"] ** 2
        * (h["an2"] * c + h["m2f"] * h["a12"] * s)
        * c
        * s**2
        / ((n + 2) * ma**3)
    )


def ref_N2(h):
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    a, m = h["a"], h["m"]
    an2, an3 = h["an2"], h["an3"]
    a20, b2, a12, a22 = h["a20"], h["b2"], h["a12"], h["a22"]
    first = m * a22 * c**2 * s / (2 * ma)
    second = (
        m * a * a12
        * (an2 * c / (n + 2) + m * a12 * s)
        * c**3 * s / ma**3
    )
    bracket = (
        a**5 * b2**2 * c**5 / 2
        - m * a**4 * a20 * b2 * c**4 * s
        + m**2 * a
        * (-an3 * a / ((n + 3) * (n + 2)) + 3 * an2**2 / (2 * (n + 2) ** 2)
           + a**2 * a20**2 / 2 + a**2 * b2**2 / 2)
        * c**3 * s**2
        + m**3 * a
        * (3 * an2 * a12 / (n + 2) - a * a22 / 2 - a * a20 * b2)
        * c**2 * s**3
        - m**4
        * (an3 / ((n + 3) * (n + 2)) - 3 * a * a12**2 / 2 - a * a20**2 / 2)
        * c * s**4
        - m**5 * a22 * s**5 / 2
    )
    # n = 1 only: a_03 v^3/6 reaches N at r^2 through g_vv and through the
    # r^2 term of the normal; the table prints a different term here
    eps_part = h["eps"] * 2 * h["a03"] * c * s**2 * (1 / ma - 2 * s**2 / ma**3)
    return first - second + bracket * c**2 / ma**5 + eps_part


def ref_K0(h):
    return h["k10"] * h["k20"]


def ref_k20(h):
    return h["k20"]


def ref_k11(h):
    c, s, ma, n = h["c"], h["s"], h["ma"], h["n"]
    a, m = h["a"], h["m"]
    lead = (-a * h["b3"] * c + m * h["a30"] * s) * c / ma
    inner = (
        h["an2"] * a * h["a20"] * c**2 / (n + 2)
        + m * (a * h["a12"] * h["a20"] + h["an2"] * h["b2"] / (n + 2)) * c * s
        + m**2 * h["a12"] * h["b2"] * s**2
    )
    return lead - m * inner * c * s / ma**3


_REFERENCE = {
    "n21": ref_n21,
    "n31": ref_n31,
    "L1": ref_k11,  # L1 equals k11 identically
    "M1": ref_M1,
    "N1": ref_N1,
    "N2": ref_N2,
    "K0": ref_K0,
    "k11": ref_k11,
    "k20": ref_k20,
}

CROSSCHECK_SYMBOLS = tuple(_REFERENCE)


class CrosscheckEntry(Record):
    __slots__ = _fields = ("symbol", "theta", "pipeline", "reference", "delta", "suspected_typo")

    def __init__(self, symbol, theta, pipeline, reference, delta, suspected_typo=False):
        self.symbol = symbol
        self.theta = theta
        self.pipeline = pipeline
        self.reference = reference
        self.delta = delta
        # always False: every entry is expected to match.  Only the benchmark's
        # analysis check (perfbench/workloads.py, Analysis.check) reads it
        self.suspected_typo = suspected_typo


def pipeline_values(ctx, thetas):
    """Series-pipeline values of every cross-checked coefficient, each a list
    over thetas from one pipeline run.  A symbol names its series, then the
    power of r (n21 is n2[1], N2 is N[2], K0 is K[0])."""
    cols = series_columns(ctx, thetas)
    return {symbol: cols[symbol[:-1]][int(symbol[-1])] for symbol in _REFERENCE}


def crosscheck_closed_forms(ctx, theta_samples):
    """Delta table: series pipeline vs reference closed forms.

    Mismatches are reported, never raised; the caller decides what a hard
    failure is.
    """
    thetas = list(theta_samples)
    pipe = pipeline_values(ctx, thetas)
    entries = []
    for idx, (theta, h) in enumerate(zip(thetas, _shorthands(ctx, thetas))):
        for symbol, reference in _REFERENCE.items():
            value, ref = pipe[symbol][idx], reference(h)
            entries.append(CrosscheckEntry(symbol, theta, value, ref, value - ref))
    return entries
