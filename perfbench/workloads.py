"""The four workloads.  Each builds its inputs from the seed during set-up,
then serves items one at a time (closed loop, one caller): ``run`` is the
timed call, ``check`` verifies its output afterwards and returns the list of
failures for that item.

germforge is always called through module attributes (``pipeline.classify_spec``
rather than a name imported once) so that the traced run's wrappers see the
calls.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np

import corpus
from germforge import blowup, closed_forms, distance, front, germ_io, oracle, pipeline
from germforge.cli import CROSSCHECK_TOL
from germforge.errors import GermforgeError
from germforge.normal_form import RotationStep
from germforge.oracle import K_EQUIV, R_PLUS

K0_REL_TOL = 1e-9
OFFSET_TOL = 1e-9


class Item:
    def __init__(self, ident, data, units=1, span=None):
        self.id = ident
        self.data = data
        self.units = units      # items_per_s counts these (grid nodes for meshes)
        self.span = span        # name of the span around the whole call, if any


class Workload:
    name = None
    runs_processes = False  # items are child processes (host speed probed with one)

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.stats = Counter()  # counters kept by check(); read by the traced run
        self.items = []

    def warm_up(self):
        # the same inputs on every seed (ids follow the unshuffled corpus),
        # so that setup_s does not depend on which germs the shuffle put first
        for item in sorted(self.items, key=lambda it: it.id)[: self.warm_items]:
            self.check(item, self.run(item))
        self.stats.clear()


# ---------------------------------------------------------------------------


class ClassifyBatch(Workload):
    """Germ files -> load_germ -> classify_spec -> report sections -> JSON."""

    name = "classify-batch"
    warm_items = 20

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.corpus = corpus.classify_corpus(seed)
        problems = corpus.check_classify_corpus(self.corpus)
        if problems:
            raise RuntimeError("input generator self-check failed: %r" % problems[:5])
        for entry in self.corpus:
            path = os.path.join(tmpdir, entry["id"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry["doc"], fh)
            self.items.append(Item(entry["id"], (entry, path)))

    def run(self, item):
        _, path = item.data
        spec, _ = germ_io.load_germ(path)
        outcome = pipeline.classify_spec(spec)
        report = pipeline.base_report(spec, outcome)
        typed_error = None
        try:
            report["focal_locus"] = pipeline.focal_section(outcome)
            report["distance"] = pipeline.distance_section(outcome, spec)
        except GermforgeError as exc:
            if outcome.nf is not None:
                raise
            typed_error = type(exc).__name__   # no normal form: out of scope by design
        buf = io.StringIO()
        germ_io.emit_report(report, buf)
        return outcome, buf.getvalue(), typed_error

    def check(self, item, result):
        entry, _ = item.data
        outcome, text, typed_error = result
        report = json.loads(text)
        fails = []
        cls = report["class"]
        if (cls["label"], cls["sign"]) != (entry["label"], entry["sign"]):
            fails.append("label %s%s, intended %s" % (
                cls["label"], "" if cls["sign"] is None else " (sign %s)" % cls["sign"],
                entry["label"]))
        if entry["expects_nf"]:
            if report["focal_locus"] is None or report["distance"] is None:
                fails.append("report lacks focal_locus/distance sections")
            elif len(report["distance"]["probes"]) != len(entry["doc"]["probes"]):
                fails.append("distance section has %d probe verdicts for %d probes" % (
                    len(report["distance"]["probes"]), len(entry["doc"]["probes"])))
        elif typed_error is None:
            fails.append("no typed error for a germ without a normal form")
        if outcome.nf is not None:
            self.stats["reduced"] += 1
            self.stats["reduced_exact"] += outcome.nf.mode == "exact"
            self.stats["reduced_rotated"] += any(
                isinstance(step, RotationStep) for step in outcome.log.steps)
        return fails

    def provenance(self):
        return corpus.mix_summary(self.corpus)


# ---------------------------------------------------------------------------


def _oracle_matches(closed, typ):
    """Closed-form verdict vs splitting-oracle type (A4+/D4+ are open classes)."""
    if closed == "Regular":
        return typ is None
    if closed == "A4plus":
        return (typ.tag == "A" and typ.k >= 4) or (typ.tag == "MoreDegenerate"
                                                    and typ.corank == 1)
    if closed == "D4plus":
        return typ.tag == "D4" or (typ.tag == "MoreDegenerate" and typ.corank == 2)
    return typ.tag == "A" and typ.k == int(closed[1:])


class Analysis(Workload):
    """Blow-up geometry, distance verdicts on and off the focal locus, front
    types, the closed-form cross-check and both oracle routes per germ."""

    name = "analysis"
    warm_items = 2
    THETA_SAMPLES = 128
    CROSSCHECK_THETAS = (math.pi / 6, math.pi / 4, math.pi / 3)

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.setup_failures = []
        for entry in corpus.analysis_corpus(seed):
            spec = germ_io.germ_spec_from_dict(entry["doc"])
            outcome = pipeline.classify_spec(spec)
            if outcome.mond.label != entry["label"]:
                self.setup_failures.append((entry["id"], "label %s, intended %s" % (
                    outcome.mond.label, entry["label"])))
                continue
            self.items.append(Item(entry["id"], (entry, spec, outcome)))

    def run(self, item):
        _, spec, outcome = item.data
        geometry = pipeline.geometry_section(outcome, self.THETA_SAMPLES)
        dist = pipeline.distance_section(outcome, spec)
        ctx = pipeline.blowup_context(outcome)
        fronts = [front.front_verdict(ctx, theta) for theta in item.data[0]["front_thetas"]]
        entries = closed_forms.crosscheck_closed_forms(ctx, self.CROSSCHECK_THETAS)
        nf = outcome.nf
        routes = []
        for p in spec.probes:
            probe = distance.ProbePoint(*p)
            typ = None
            if probe.x0 == 0:
                typ = oracle.split_and_type(distance.distance_jet(nf, probe, 6), 6)
            routes.append((typ, distance.versality_rank_test(nf, probe, R_PLUS),
                           distance.versality_rank_test(nf, probe, K_EQUIV)))
        return geometry, dist, ctx, fronts, entries, routes

    def check(self, item, result):
        entry = item.data[0]
        geometry, dist, ctx, fronts, entries, routes = result
        fails = []
        for idx, (rec, want, (typ, r_plus, k_versal)) in enumerate(
                zip(dist["probes"], entry["probe_types"], routes)):
            got = rec["sing_type"]
            if got != want:
                fails.append("probe %d: %s, placed for %s" % (idx, got, want))
            self.stats["oracle_pairs"] += 3
            agree = [_oracle_matches(got, typ), r_plus == rec["r_plus_versal"],
                     k_versal == rec["k_versal"]]
            self.stats["oracle_agree"] += sum(agree)
            if not all(agree):
                fails.append("probe %d: closed form %s (R+ %s, K %s) vs oracle %s (R+ %s, K %s)"
                             % (idx, got, rec["r_plus_versal"], rec["k_versal"],
                                typ.label if typ else None, r_plus, k_versal))
        for idx, (rec, want) in enumerate(zip(dist["normal_directions"], entry["pair_types"])):
            if rec["sing_type"] != want:
                fails.append("theta-lambda pair %d: %s, placed for %s"
                             % (idx, rec["sing_type"], want))
        if len(dist["normal_directions"]) != len(entry["pair_types"]):
            fails.append("%d pair verdicts for %d pairs" % (
                len(dist["normal_directions"]), len(entry["pair_types"])))
        ridge_front = "Swallowtail" if entry["pair_types"][2] == "A3" else "Undetermined"
        got_fronts = [f.wavefront_type.value for f in fronts]
        if got_fronts != ["CuspidalEdge", ridge_front]:
            fails.append("front types %s, expected %s" % (
                got_fronts, ["CuspidalEdge", ridge_front]))
        self.stats["crosscheck_entries"] += len(entries)
        for e in entries:
            if not e.suspected_typo and abs(e.delta) > CROSSCHECK_TOL * max(1.0, abs(e.pipeline)):
                self.stats["hard_mismatches"] += 1
                fails.append("closed form %s at theta %.4f off by %.3g"
                             % (e.symbol, e.theta, e.delta))
        fails.extend(self._check_k0(ctx, geometry))
        return fails

    def _check_k0(self, ctx, geometry):
        """Series K0 against K0_closed, relative to K0's uncancelled size."""
        fails = []
        nf = ctx.nf
        size = max(abs(ctx.a_lead * nf.b_(2)), abs(ctx.fact * nf.a_(2, 0)))
        for rec in geometry["samples"]:
            self.stats["thetas"] += 1
            if rec["K0"] is None:
                continue
            theta = float(rec["theta"])
            ref = blowup.K0_closed(ctx, theta)
            scale = max(abs(ref), abs(blowup.k20_closed(ctx, theta)) * size / ctx.ma(theta))
            if abs(float(rec["K0"]) - ref) > K0_REL_TOL * scale:
                fails.append("K0 at theta %s: series %s, closed %.17g" % (
                    rec["theta"], rec["K0"], ref))
        return fails

    def provenance(self):
        return {"germs": len(self.items), "theta_samples": self.THETA_SAMPLES,
                "probes_per_germ": 6, "pairs_per_germ": 5}


# ---------------------------------------------------------------------------


class Mesh(Workload):
    """Surface, direct and blow-up wavefronts and the focal sheet, written as
    OBJ and CSV.  One item is one mesh request; items_per_s counts grid nodes."""

    name = "mesh"
    warm_items = 1
    T0 = 0.1
    R_MAX = 0.5
    # odd direct grids put a node on the singular point, which t0 > 0 drops
    GRIDS = {"surface": (97, 97), "wavefront_direct": (97, 97),
             "wavefront_blowup": (25, 40), "focal_sheet": (25, 40)}

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.setup_failures = []
        for entry in corpus.mesh_corpus(seed):
            outcome = pipeline.classify_spec(germ_io.germ_spec_from_dict(entry["doc"]))
            if outcome.mond.label != entry["label"]:
                self.setup_failures.append((entry["id"], "label %s, intended %s" % (
                    outcome.mond.label, entry["label"])))
                continue
            # numpy evaluation needs float jets (exact jets give object arrays)
            germ = outcome.nf.to_float().reconstruct()
            ctx = pipeline.blowup_context(outcome)
            for kind, grid in self.GRIDS.items():
                self.items.append(Item("%s-%s" % (entry["id"], kind), (kind, grid, germ, ctx),
                                       units=grid[0] * grid[1]))

    def run(self, item):
        kind, grid, germ, ctx = item.data
        if kind == "surface":
            mesh = front.surface_mesh(germ, grid, 1.0)
        elif kind == "wavefront_direct":
            mesh = front.wavefront_mesh(germ, front.WavefrontSpec(t0=self.T0, grid=grid), 1)
        elif kind == "wavefront_blowup":
            spec = front.WavefrontSpec(t0=self.T0, grid=grid, chart="blowup",
                                       r_max=self.R_MAX, context=ctx)
            mesh = front.wavefront_mesh(germ, spec, 1)
        else:
            mesh = front.focal_sheet_mesh(ctx, grid, self.R_MAX)
        base = os.path.join(self.tmpdir, item.id)
        germ_io.emit_mesh(mesh, base + ".obj", "obj")
        germ_io.emit_mesh(mesh, base + ".csv", "csv")
        return mesh, base

    def check(self, item, result):
        kind, (nu, nv), germ, _ = item.data
        mesh, base = result
        fails = []
        try:
            mesh.validate()
        except GermforgeError as exc:
            fails.append("validate: %s" % exc)
        nv_, nf_ = len(mesh.vertices), len(mesh.faces)
        full = 2 * (nu - 1) * (nv - 1)
        if nv_ + mesh.skipped != nu * nv:
            fails.append("%d vertices + %d skipped != %d nodes" % (nv_, mesh.skipped, nu * nv))
        if nf_ > full or (mesh.skipped == 0 and nf_ != full):
            fails.append("%d faces for %d skipped nodes on a %dx%d grid"
                         % (nf_, mesh.skipped, nu, nv))
        if kind == "wavefront_direct":
            if mesh.skipped == 0:
                fails.append("the singular node was not dropped")
            fails.extend(self._check_offsets(germ, mesh, nu, nv))
        with open(base + ".obj", "rb") as fh:
            obj_lines = fh.read().count(b"\n")
        with open(base + ".csv", "rb") as fh:
            csv_lines = fh.read().count(b"\n")
        if obj_lines != nv_ + nf_:
            fails.append("OBJ has %d lines for V + F = %d" % (obj_lines, nv_ + nf_))
        if csv_lines != nv_ + 1:
            fails.append("CSV has %d lines for %d vertices" % (csv_lines, nv_))
        self.stats["mesh_bytes"] += os.path.getsize(base + ".obj") + os.path.getsize(base + ".csv")
        self.stats["nodes"] += nu * nv
        self.stats["nodes." + kind] += nu * nv
        self.stats["skipped"] += mesh.skipped
        return fails

    def _check_offsets(self, germ, mesh, nu, nv):
        """Each kept vertex lies at distance t0 from its node's surface point;
        the nodes with no vertex are exactly the skipped ones."""
        us = np.linspace(-1.0, 1.0, nu)
        vs = np.linspace(-1.0, 1.0, nv)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        pts = np.stack([np.asarray(c.evaluate(uu, vv), dtype=float) + 0 * uu
                        for c in germ.components()], axis=-1).reshape(-1, 3)
        verts = mesh.vertices
        k = 0
        for node in range(len(pts)):
            if k < len(verts) and abs(np.linalg.norm(verts[k] - pts[node]) - self.T0) <= OFFSET_TOL:
                k += 1
        unmatched = len(pts) - k
        if k != len(verts) or unmatched != mesh.skipped:
            return ["%d of %d vertices at offset t0 = %g, %d nodes without one, %d skipped"
                    % (k, len(verts), self.T0, unmatched, mesh.skipped)]
        return []

    def provenance(self):
        return {"requests_per_pass": len(self.items),
                "grids": {k: list(v) for k, v in self.GRIDS.items()}, "t0": self.T0}


# ---------------------------------------------------------------------------


class CliCalls(Workload):
    """One `python -m germforge.cli` process per item, one at a time."""

    name = "cli-calls"
    warm_items = 1
    runs_processes = True

    def __init__(self, seed, tmpdir, src):
        super().__init__(seed, tmpdir)
        data = corpus.cli_corpus(seed)
        self.good = data["good"]
        good = os.path.join(tmpdir, "germ.json")
        bad = os.path.join(tmpdir, "malformed-%s.json" % data["bad_kind"])
        for path, doc in ((good, self.good["doc"]), (bad, data["bad"])):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.env = {k: v for k, v in os.environ.items() if k != "GERMFORGE_MODE"}
        self.env["PYTHONPATH"] = src
        self.cwd = os.path.dirname(src)
        obj = os.path.join(tmpdir, "cli-mesh.obj")
        calls = [
            ("classify", ["classify", "--input", good], 0),
            ("geometry", ["geometry", "--input", good, "--theta-samples", "16"], 0),
            ("distance", ["distance", "--input", good], 0),
            ("focal", ["focal", "--input", good], 0),
            # two verify calls make a quarter of the pass, so p90 falls inside
            # the slowest subcommand rather than on its edge; their sampling
            # seeds are fixed because the sampled normal forms set their cost
            ("verify", ["verify", "--input", good, "--samples", "4", "--seed", "0"], 0),
            ("verify", ["verify", "--input", good, "--samples", "4", "--seed", "1"], 0),
            ("mesh", ["mesh", "--input", good, "--output", obj, "--kind", "surface",
                      "--grid", "17x17"], 0),
            ("error", ["classify", "--input", bad], 1),
        ]
        self.items = [Item("%s-%d" % (name, idx), (argv, rc), span="cli." + name)
                      for idx, (name, argv, rc) in enumerate(calls)]
        self.out = os.path.join(tmpdir, "stdout.txt")
        self.err = os.path.join(tmpdir, "stderr.txt")

    def run(self, item):
        argv, _ = item.data
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "germforge.cli"] + argv,
                                    stdout=out, stderr=err, env=self.env, cwd=self.cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out, "rb") as fh:
            stdout = fh.read().decode("utf-8", "replace")
        with open(self.err, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        self.stats["child_maxrss_kb"] = max(self.stats["child_maxrss_kb"], usage.ru_maxrss)
        return proc.returncode, stdout, stderr

    def check(self, item, result):
        _, want = item.data
        rc, stdout, stderr = result
        fails = []
        if rc != want:
            fails.append("exit code %d, expected %d; stderr %r" % (rc, want, stderr[-300:]))
            return fails
        if "Traceback" in stderr:
            fails.append("traceback on stderr")
        try:
            doc = json.loads(stdout if want == 0 else stderr)
        except ValueError:
            return fails + ["output is not JSON: %r" % (stdout or stderr)[:200]]
        if want == 1:
            if set(doc) != {"error"}:
                fails.append("stderr object is not {\"error\": ...}: %r" % doc)
        elif item.span in ("cli.classify", "cli.geometry", "cli.distance", "cli.focal"):
            if doc["class"]["label"] != self.good["label"]:
                fails.append("label %s, intended %s" % (doc["class"]["label"],
                                                        self.good["label"]))
        elif item.span == "cli.verify":
            if doc["oracle_equivalence"]["mismatches"] or doc["versality_dual"]["mismatches"]:
                fails.append("verify reports oracle mismatches")
        elif item.span == "cli.mesh":
            if doc["mesh"]["vertices"] != 17 * 17:
                fails.append("mesh summary has %r vertices" % doc["mesh"]["vertices"])
        return fails

    def provenance(self):
        return {"germ_class": self.good["label"], "calls_per_pass": len(self.items)}


def build(name, seed, tmpdir, src):
    if name == "classify-batch":
        return ClassifyBatch(seed, tmpdir)
    if name == "analysis":
        return Analysis(seed, tmpdir)
    if name == "mesh":
        return Mesh(seed, tmpdir)
    if name == "cli-calls":
        return CliCalls(seed, tmpdir, src)
    raise ValueError("unknown workload %r" % name)
