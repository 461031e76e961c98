"""Batch command-line front-end.

Subcommands: classify | geometry | distance | focal | mesh | verify.
Reports go to stdout or --output; diagnostics go to stderr as one
machine-readable {"error": ...} object.  Exit codes: 0 success, 1 usage
error, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import islice

from . import germ_io, pipeline
from .blowup import uniform_thetas
from .distance import (
    ProbePoint,
    agrees_with_oracle,
    classify_distance,
    distance_jet,
    versality_rank_test,
)
from .errors import GermforgeError, InternalConsistencyError, UsageError
from .germ_io import emit_mesh, emit_report, read_germ_spec, write_json
from .jets import EXACT
from .normal_form import NormalFormCoeffs
from .oracle import K_EQUIV, R_PLUS, split_and_type

CROSSCHECK_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="germforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="germ JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument(
            "--order", type=int,
            help="replace the germ file's order; classification expands the germ "
            "at max(ORDER, min(2*KMAX + 1, 20)), so a smaller ORDER changes only "
            "the report's germ order and the mesh of a germ with no normal form",
        )
        p.add_argument("--kmax", type=int, default=8, help="largest class index probed")
        p.add_argument(
            "--mode",
            choices=["exact", "float"],
            help="override the germ file's scalar mode",
        )

    p = sub.add_parser("classify", help="normal form + class + singular point type")
    common(p)

    p = sub.add_parser("geometry", help="theta sweep of the blow-up geometry")
    common(p)
    p.add_argument("--theta-samples", type=int, default=64)

    p = sub.add_parser("distance", help="distance-function verdicts for probes")
    common(p)

    p = sub.add_parser("focal", help="focal locus in the normal plane")
    common(p)

    p = sub.add_parser("mesh", help="surface / wavefront / focal sheet meshes")
    common(p)
    p.add_argument(
        "--kind", choices=["surface", "wavefront", "focal"], default="surface"
    )
    p.add_argument("--t0", type=float, default=0.0, help="offset distance")
    p.add_argument("--grid", default="64x64", help="grid sizes, e.g. 64x64")
    p.add_argument("--chart", choices=["direct", "blowup"], default="direct")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["obj", "csv"], default="obj")
    p.add_argument("--extent", type=float, default=1.0)
    p.add_argument("--rmax", type=float, default=0.5)

    p = sub.add_parser("verify", help="closed-form crosscheck + oracle sampling")
    common(p)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument(
        "--theta-samples", type=int, default=3,
        help="closed-form check angles: the first N of pi/6, pi/4, pi/3, "
        "or for N > 3 the N-point theta grid without pi/2",
    )
    return parser


def _load(args):
    if args.order is not None and args.order < 1:
        raise UsageError("--order must be >= 1")
    if args.order is not None and args.order > germ_io.MAX_ORDER:
        raise UsageError("--order must be <= %d" % germ_io.MAX_ORDER)
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    spec = read_germ_spec(args.input)
    if args.order is not None:
        spec = germ_io.GermSpec(
            spec.variables, spec.components, args.order, spec.mode,
            spec.probes, spec.theta_lambda,
        )
    outcome = pipeline.classify_spec(spec, k_max=args.kmax, mode=args.mode)
    return spec, outcome


def _cmd_classify(args):
    spec, outcome = _load(args)
    emit_report(pipeline.base_report(spec, outcome), args.output or sys.stdout)
    return 0


def _cmd_geometry(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["geometry"] = pipeline.geometry_section(outcome, args.theta_samples)
    emit_report(report, args.output or sys.stdout)
    return 0


def _cmd_distance(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["distance"] = pipeline.distance_section(outcome, spec)
    emit_report(report, args.output or sys.stdout)
    return 0


def _cmd_focal(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["focal_locus"] = pipeline.focal_section(outcome)
    emit_report(report, args.output or sys.stdout)
    return 0


def _parse_grid(text):
    try:
        a, b = text.lower().split("x")
        grid = (int(a), int(b))
    except ValueError:
        raise UsageError("--grid expects WIDTHxHEIGHT, e.g. 64x64")
    if min(grid) < 2:
        raise UsageError("--grid sizes must be >= 2")
    return grid


def _cmd_mesh(args):
    # front loads numpy, which no other subcommand needs
    from .front import WavefrontSpec, focal_sheet_mesh, surface_mesh, wavefront_mesh

    spec, outcome = _load(args)
    if not args.output:
        raise UsageError("mesh output requires --output")
    grid = _parse_grid(args.grid)
    sign = 1 if args.sign == "+" else -1
    germ = (
        outcome.nf.reconstruct()
        if outcome.nf is not None
        else germ_io.expand_germ(spec, mode=args.mode)
    )
    if args.kind == "surface":
        mesh = surface_mesh(germ, grid, args.extent)
    elif args.kind == "wavefront":
        ctx = pipeline.blowup_context(outcome) if args.chart == "blowup" else None
        wf = WavefrontSpec(
            t0=args.t0, grid=grid, chart=args.chart, extent=args.extent,
            r_max=args.rmax, context=ctx,
        )
        mesh = wavefront_mesh(germ, wf, sign)
    else:
        ctx = pipeline.blowup_context(outcome)
        mesh = focal_sheet_mesh(ctx, grid, args.rmax)
    emit_mesh(mesh, args.output, args.format)
    summary = dict(mesh.metadata)
    summary.update(
        vertices=len(mesh.vertices), faces=len(mesh.faces), skipped=mesh.skipped,
        output=args.output, format=args.format,
    )
    write_json({"mesh": summary}, sys.stdout)
    return 0


FOCAL_KINDS = ("focal", "principal", "umbilic", "cubic", "quartic")


def _random_rational(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if f or not nonzero:
            return f


def focal_probes(rng):
    """(kind, normal form, probe) for a probe on each focal kind: the second
    focal line, the principal normal line, their intersection (umbilic), the
    intersection of the second line with the cubic line, and that point on a
    form whose b_4 makes the quartic witness vanish too."""
    while True:
        a = {(i, d - i): _random_rational(rng) for d in range(3, 7) for i in range(d + 1)
             if rng.random() < 0.6}
        a[(2, 0)] = _random_rational(rng, nonzero=True)
        a[(3, 0)] = _random_rational(rng, nonzero=True)
        a.setdefault((2, 1), _random_rational(rng))
        b = {i: _random_rational(rng) for i in range(2, 7) if rng.random() < 0.6}
        a20, a30, b2, b3 = a[(2, 0)], a[(3, 0)], b.get(2, 0), b.get(3, 0)
        det = a20 * b3 - b2 * a30
        if det:
            break
    nf = NormalFormCoeffs(6, EXACT, a, b)
    y0 = _random_rational(rng, nonzero=True)
    points = {"focal": (y0, (1 - b2 * y0) / a20), "principal": (0, _random_rational(rng)),
              "umbilic": (0, 1 / a20), "cubic": (-a30 / det, b3 / det)}
    y0, z0 = points["cubic"]
    c4 = a.get((4, 0), 0) * y0 * z0 - 3 * a[(2, 1)] ** 2 * z0 * z0 - 3 * (a20 ** 2 + b2 ** 2) * y0
    quartic = NormalFormCoeffs(6, EXACT, a, {**b, 4: -c4 / (y0 * y0)})
    out = [(kind, nf, ProbePoint(0, *points[kind])) for kind in FOCAL_KINDS[:4]]
    return out + [("quartic", quartic, ProbePoint(0, y0, z0))]


def verify_probes(rng):
    """verify's probe stream of (normal form, probe) pairs.  Each round
    draws ``focal_probes`` and adds four probes on its form: first a generic
    one (random y0 and z0, case 1 of the distance tree); then, with no
    draw, a case-4b one at z0 = 2/a20 on the principal normal of the form
    with a03 = 0 and the a04 that makes NR vanish; last, at a random z0,
    one on the line y = 1/b2 of the form made an inflection (a20 = 0,
    b2 = a20 where b2 was 0) and one on the principal normal of the form
    made a degenerate inflection (a20 = b2 = 0)."""
    while True:
        probes = focal_probes(rng)
        nf = probes[0][1]
        yield nf, ProbePoint(0, _random_rational(rng), _random_rational(rng))
        for _, form, p in probes:
            yield form, p
        # a20 z0 = 2 turns NR = 0 into a04 z0 = 3 (a12^2 z0^2 + 1)
        z0, a12 = 2 / nf.a_(2, 0), nf.a_(1, 2)
        a04 = 3 * (a12 * a12 * z0 * z0 + 1) / z0
        form = NormalFormCoeffs(6, EXACT, {**nf.a, (0, 3): Fraction(0), (0, 4): a04}, nf.b)
        yield form, ProbePoint(0, 0, z0)
        a, b2 = {**nf.a, (2, 0): Fraction(0)}, nf.b_(2) or nf.a_(2, 0)
        yield (NormalFormCoeffs(6, EXACT, a, {**nf.b, 2: b2}),
               ProbePoint(0, 1 / b2, _random_rational(rng)))
        yield (NormalFormCoeffs(6, EXACT, a, {**nf.b, 2: Fraction(0)}),
               ProbePoint(0, 0, _random_rational(rng)))


def _dual_checks(probes):
    """The one sampling loop: each probe is typed by the decision tree once,
    then by the splitting oracle and by both rank tests.  Returns the
    verify sections of the splitting route and of the rank route."""
    n, split, rank = 0, [], []
    for n, (nf, p) in enumerate(probes, 1):
        verdict = classify_distance(nf, p)
        typ = split_and_type(distance_jet(nf, p, 6), 6)
        if not agrees_with_oracle(verdict.sing_type, typ):
            split.append({"closed_form": verdict.sing_type.value, "oracle": typ.label})
        for flavor, closed in ((R_PLUS, verdict.r_plus_versal), (K_EQUIV, verdict.k_versal)):
            answer = versality_rank_test(nf, p, flavor)
            if answer != closed:
                rank.append({"flavor": flavor, "closed_form": closed, "rank": answer,
                             "sing_type": verdict.sing_type.value})
    return ({"agreements": n - len(split), "mismatches": split},
            {"agreements": 2 * n - len(rank), "mismatches": rank})


def _verify_thetas(samples):
    """Cross-check angles: up to three fixed ones, or a uniform grid.

    The grid is theta_grid's without its endpoint pi/2, the principal normal
    direction, where the curvature series are undefined.
    """
    if samples < 0:
        raise UsageError("--theta-samples must not be negative")
    if samples <= 3:
        return [math.pi / 6, math.pi / 4, math.pi / 3][:samples]
    return uniform_thetas(samples)[:-1]


def _cmd_verify(args):
    # only verify samples at random and runs the closed-form corpus
    import random

    from .closed_forms import crosscheck_closed_forms

    if args.samples < 0:
        raise UsageError("--samples must not be negative")
    spec, outcome = _load(args)
    rng = random.Random(args.seed)
    result = {"seed": args.seed, "samples": args.samples}
    hard_failure = False

    if outcome.has_geometry:
        ctx = pipeline.blowup_context(outcome)
        table = []
        for entry in crosscheck_closed_forms(ctx, _verify_thetas(args.theta_samples)):
            bad = abs(entry.delta) > CROSSCHECK_TOL * max(1.0, abs(entry.pipeline))
            hard_failure = hard_failure or bad
            table.append(
                {
                    "symbol": entry.symbol,
                    "theta": entry.theta,
                    "pipeline": entry.pipeline,
                    "reference": entry.reference,
                    "delta": entry.delta,
                    "hard_mismatch": bad,
                }
            )
        result["crosscheck"] = {"entries": table}
    else:
        result["crosscheck"] = None

    split, rank = _dual_checks(islice(verify_probes(rng), args.samples))
    result["oracle_equivalence"], result["versality_dual"] = split, rank
    hard_failure = hard_failure or bool(split["mismatches"] or rank["mismatches"])

    write_json(result, args.output or sys.stdout)
    return 2 if hard_failure else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "geometry": _cmd_geometry,
    "distance": _cmd_distance,
    "focal": _cmd_focal,
    "mesh": _cmd_mesh,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InternalConsistencyError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (GermforgeError, OSError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
