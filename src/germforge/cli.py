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
import os
import sys
from fractions import Fraction

from . import germ_io, pipeline
from .distance import ProbePoint, classify_distance, distance_jet, versality_rank_test
from .errors import GermforgeError, InternalConsistencyError, UsageError
from .germ_io import emit_mesh, emit_report, format_number, read_germ_spec, write_json
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
        p.add_argument("--order", type=int, help="override the working jet order")
        p.add_argument("--kmax", type=int, default=8, help="largest class index probed")
        p.add_argument(
            "--mode",
            choices=["exact", "float"],
            help="override the germ file's scalar mode",
        )
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")

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
    p.add_argument(
        "--theta-samples", type=int, default=3,
        help="closed-form check angles: the first N of pi/6, pi/4, pi/3, "
        "or for N > 3 the N-point theta grid without pi/2",
    )
    return parser


def _resolve_mode(args):
    if args.mode:
        return args.mode
    return os.environ.get("GERMFORGE_MODE") or None


def _emit(report, args):
    if args.output:
        emit_report(report, args.output)
    else:
        emit_report(report, sys.stdout)


def _load(args):
    if args.order is not None and args.order < 1:
        raise UsageError("--order must be >= 1")
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    spec = read_germ_spec(args.input)
    mode = _resolve_mode(args)
    if args.order is not None:
        spec = germ_io.GermSpec(
            spec.variables, spec.components, args.order, spec.mode,
            spec.probes, spec.theta_lambda,
        )
    outcome = pipeline.classify_spec(spec, k_max=args.kmax, mode=mode)
    return spec, outcome


def _cmd_classify(args):
    spec, outcome = _load(args)
    _emit(pipeline.base_report(spec, outcome), args)
    return 0


def _cmd_geometry(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["geometry"] = pipeline.geometry_section(outcome, args.theta_samples)
    _emit(report, args)
    return 0


def _cmd_distance(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["distance"] = pipeline.distance_section(outcome, spec)
    _emit(report, args)
    return 0


def _cmd_focal(args):
    spec, outcome = _load(args)
    report = pipeline.base_report(spec, outcome)
    report["focal_locus"] = pipeline.focal_section(outcome)
    _emit(report, args)
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
        else germ_io.expand_germ(spec, mode=_resolve_mode(args))
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


def _random_rational(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if f or not nonzero:
            return f


def _random_nf(rng, order=6):
    a = {}
    for (i, j) in [(2, 0), (2, 1), (0, 3), (3, 0), (1, 2), (4, 0), (2, 2), (1, 3), (0, 4)]:
        a[(i, j)] = _random_rational(rng)
    b = {i: _random_rational(rng) for i in (2, 3, 4)}
    a = {k: v for k, v in a.items() if v}
    b = {k: v for k, v in b.items() if v}
    return NormalFormCoeffs(order, EXACT, a, b)


def _verify_oracle_samples(rng, samples):
    """classify_distance vs the splitting oracle on random singular probes."""
    agree = 0
    mismatches = []
    for _ in range(samples):
        nf = _random_nf(rng)
        p = ProbePoint(
            Fraction(0), _random_rational(rng), _random_rational(rng)
        )
        verdict = classify_distance(nf, p)
        typ = split_and_type(distance_jet(nf, p, 6), 6)
        ok = _verdicts_match(verdict.sing_type.value, typ)
        if ok:
            agree += 1
        else:
            mismatches.append(
                {"closed_form": verdict.sing_type.value, "oracle": typ.label}
            )
    return agree, mismatches


def _verdicts_match(closed, typ):
    if closed == "A4plus":
        return (typ.tag == "A" and typ.k >= 4) or (
            typ.tag == "MoreDegenerate" and typ.corank == 1
        )
    if closed == "D4plus":
        return typ.tag == "D4" or (typ.tag == "MoreDegenerate" and typ.corank == 2)
    if closed.startswith("A"):
        return typ.tag == "A" and typ.k == int(closed[1:])
    return False


def _verify_versality_samples(rng, samples):
    agree = 0
    mismatches = []
    for _ in range(samples):
        nf = _random_nf(rng)
        p = ProbePoint(Fraction(0), _random_rational(rng), _random_rational(rng))
        verdict = classify_distance(nf, p)
        for flavor, closed in (
            (R_PLUS, verdict.r_plus_versal),
            (K_EQUIV, verdict.k_versal),
        ):
            rank = versality_rank_test(nf, p, flavor)
            if rank == closed:
                agree += 1
            else:
                mismatches.append(
                    {"flavor": flavor, "closed_form": closed, "rank": rank,
                     "sing_type": verdict.sing_type.value}
                )
    return agree, mismatches


def _verify_thetas(samples):
    """Cross-check angles: up to three fixed ones, or a uniform grid.

    The grid is theta_grid's without its endpoint pi/2, the principal normal
    direction, where the curvature series are undefined.
    """
    if samples < 0:
        raise UsageError("--theta-samples must not be negative")
    if samples <= 3:
        return [math.pi / 6, math.pi / 4, math.pi / 3][:samples]
    step = math.pi / samples
    return [-math.pi / 2 + step * i for i in range(1, samples)]


def _cmd_verify(args):
    # only verify samples at random and runs the closed-form corpus
    import random

    from .closed_forms import crosscheck_closed_forms

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
                    "theta": format_number(entry.theta),
                    "pipeline": format_number(entry.pipeline),
                    "reference": format_number(entry.reference),
                    "delta": format_number(entry.delta),
                    "suspected_typo": entry.suspected_typo,
                    "hard_mismatch": bad,
                }
            )
        result["crosscheck"] = {"entries": table}
    else:
        result["crosscheck"] = None

    agree, mismatches = _verify_oracle_samples(rng, args.samples)
    result["oracle_equivalence"] = {
        "agreements": agree,
        "mismatches": mismatches,
    }
    hard_failure = hard_failure or bool(mismatches)

    agree_v, mismatches_v = _verify_versality_samples(rng, max(args.samples // 2, 10))
    result["versality_dual"] = {
        "agreements": agree_v,
        "mismatches": mismatches_v,
    }
    hard_failure = hard_failure or bool(mismatches_v)

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
