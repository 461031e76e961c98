"""Span recorder for the traced run.

Wrappers are installed from the benchmark's side around germforge's public
functions, under the names through which the *calling* module refers to
them (``pipeline.reduce_to_normal_form`` is what ``classify_germ`` calls, so
that attribute is the one replaced).  Every call records one span: id, name,
start, end, parent span and the workload item being processed.  Spans stay
in memory until the run ends; self time and counts are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# span name -> the (module, attribute) references that reach the function.
# A reference that no longer exists is reported and skipped.
SPANS = {
    "germ_io.load_germ": [("germ_io", "load_germ")],
    "germ_io.expand_germ": [("germ_io", "expand_germ"), ("pipeline", "expand_germ")],
    "germ_io.emit_report": [("germ_io", "emit_report")],
    "germ_io.emit_mesh": [("germ_io", "emit_mesh")],
    "normal_form.reduce_to_normal_form": [("pipeline", "reduce_to_normal_form")],
    "mond.classify": [("pipeline", "classify")],
    "mond.bk_recursion": [("mond", "bk_recursion")],
    "pipeline.classify_spec": [("pipeline", "classify_spec")],
    "pipeline.base_report": [("pipeline", "base_report")],
    "pipeline.focal_section": [("pipeline", "focal_section")],
    "pipeline.distance_section": [("pipeline", "distance_section")],
    "pipeline.geometry_section": [("pipeline", "geometry_section")],
    "blowup.build_context": [("pipeline", "build_context")],
    "blowup.geometry_samples": [("pipeline", "geometry_samples")],
    "blowup.curvature_series": [("blowup", "curvature_series"),
                                ("closed_forms", "curvature_series")],
    "blowup.fundamental_forms": [("blowup", "fundamental_forms"),
                                 ("closed_forms", "fundamental_forms")],
    "blowup.extended_normal": [("blowup", "extended_normal"),
                               ("closed_forms", "extended_normal")],
    "blowup.ridge_report": [("blowup", "ridge_report"), ("distance", "ridge_report"),
                            ("front", "ridge_report")],
    "closed_forms.crosscheck_closed_forms": [("closed_forms", "crosscheck_closed_forms")],
    "distance.classify_distance": [("pipeline", "classify_distance"),
                                   ("distance", "classify_distance")],
    "distance.versality_rank_test": [("distance", "versality_rank_test")],
    "distance.geometric_verdict": [("pipeline", "geometric_verdict")],
    "distance.distance_jet": [("distance", "distance_jet")],
    "oracle.split_and_type": [("oracle", "split_and_type")],
    "oracle.versality_rank_oracle": [("oracle", "versality_rank_oracle")],
    "oracle.rank_of_rows": [("oracle", "rank_of_rows")],
    "front.surface_mesh": [("front", "surface_mesh")],
    "front.wavefront_mesh": [("front", "wavefront_mesh")],
    "front.focal_sheet_mesh": [("front", "focal_sheet_mesh")],
    "front.front_verdict": [("front", "front_verdict")],
}
# Jet2 methods whose calls are counted (no spans: there are millions).
COUNTED = {"jets.Jet2.mul": "__mul__", "jets.Jet2.substitute": "substitute"}
SING_TYPES = ("Regular", "A1", "A2", "A3", "A4plus", "D4plus")
MESH_KINDS = ("surface", "wavefront_direct", "wavefront_blowup", "focal_sheet")
CLI_COMMANDS = ("classify", "geometry", "distance", "focal", "verify", "mesh", "error")


def _span_name(name, args, kwargs):
    if name == "front.wavefront_mesh":
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        return "front.wavefront_mesh." + getattr(spec, "chart", "direct")
    return name


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, item id)
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.results = Counter()
        self.missing = []
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span named name."""
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.item))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(_span_name(name, args, kwargs), fn, *args, **kwargs)
            if name == "distance.classify_distance":
                tracer.results["verdict." + result.sing_type.value] += 1
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        originals = {}
        for name, refs in SPANS.items():
            for module_name, attr in refs:
                try:
                    module = importlib.import_module("germforge." + module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append("%s (germforge.%s.%s)" % (name, module_name, attr))
                    continue
                wrapped = originals.setdefault(id(fn), self._wrap(name, fn))
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrapped)
        try:
            jet2 = importlib.import_module("germforge.jets").Jet2
        except (ImportError, AttributeError):
            jet2 = None
        for name, attr in COUNTED.items():
            fn = getattr(jet2, attr, None)
            if fn is None:
                self.missing.append("%s (germforge.jets.Jet2.%s)" % (name, attr))
                continue
            self._patched.append((jet2, attr, fn))
            setattr(jet2, attr, self._count(name, fn))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def span_stats(self):
        """name -> {"calls", "total", "self"} with self = duration minus the
        time covered by direct child spans (children never overlap: one thread)."""
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        for sid, name, start, end, _, _ in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["total"] += end - start
            st["self"] += end - start - child[sid]
            st["durations"].append(end - start)
        return stats

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\n")
            for sid, name, start, end, parent, item in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n"
                         % (sid, name, start, end, "" if parent is None else parent, item))


def layer_metrics(tracer, stats, passes, import_s):
    """Per-layer metrics of the traced passes, per pass over the corpus.

    ``stats`` holds the counters the workload's checks kept during the traced
    passes.  Returns (metrics, unavailable) where unavailable maps a metric
    name to the reason it reads 0.
    """
    spans = tracer.span_stats()
    out = {}
    unavailable = {}

    def per_pass(x):
        return x / passes

    def put(name, value, unit, reason=None):
        out[name] = (value, unit)
        if reason:
            unavailable[name] = reason

    def span_metric(name, field, unit, span=None):
        st = spans.get(span or name.rsplit(".", 1)[0])
        key = span or name.rsplit(".", 1)[0]
        if st is None:
            put(name, 0, unit, "no %s span in this workload" % key)
        else:
            put(name, per_pass(st[field]), unit)

    put("cli.import_s", import_s, "s")
    for cmd in CLI_COMMANDS:
        st = spans.get("cli." + cmd)
        put("cli.%s.p50_ms" % cmd,
            statistics.median(st["durations"]) * 1e3 if st else 0, "ms",
            None if st else "no CLI calls in this workload")

    for name in ("germ_io.load_germ", "germ_io.expand_germ", "germ_io.emit_report",
                 "germ_io.emit_mesh", "normal_form.reduce_to_normal_form", "mond.classify",
                 "mond.bk_recursion", "pipeline.classify_spec", "pipeline.base_report",
                 "pipeline.focal_section", "pipeline.distance_section",
                 "pipeline.geometry_section", "blowup.build_context",
                 "blowup.geometry_samples", "blowup.curvature_series",
                 "blowup.fundamental_forms", "blowup.extended_normal", "blowup.ridge_report",
                 "closed_forms.crosscheck_closed_forms", "distance.classify_distance",
                 "distance.versality_rank_test", "distance.geometric_verdict",
                 "distance.distance_jet", "oracle.split_and_type",
                 "oracle.versality_rank_oracle", "oracle.rank_of_rows",
                 "front.surface_mesh", "front.wavefront_mesh.direct",
                 "front.wavefront_mesh.blowup", "front.focal_sheet_mesh",
                 "front.front_verdict"):
        span_metric(name + ".self_s", "self", "s", name)
    for name in ("normal_form.reduce_to_normal_form", "mond.bk_recursion",
                 "blowup.curvature_series", "blowup.ridge_report",
                 "distance.classify_distance", "distance.versality_rank_test",
                 "oracle.split_and_type", "oracle.versality_rank_oracle"):
        span_metric(name + ".calls", "calls", "count", name)

    put("germ_io.emit_mesh.bytes", per_pass(stats["mesh_bytes"]), "bytes",
        None if stats["mesh_bytes"] else "no meshes written in this workload")

    reduced = stats["reduced"]
    reason = None if reduced else "no normal-form reductions in this workload"
    put("normal_form.exact_share", stats["reduced_exact"] / reduced if reduced else 0,
        "ratio", reason)
    put("normal_form.rotated_share", stats["reduced_rotated"] / reduced if reduced else 0,
        "ratio", reason)
    put("normal_form.share_base", per_pass(reduced), "count", reason)

    geo = spans.get("blowup.geometry_samples")
    put("blowup.theta_per_s", stats["thetas"] / geo["total"] if geo and geo["total"] else 0,
        "1/s", None if geo else "no geometry sweeps in this workload")

    entries = stats["crosscheck_entries"]
    reason = None if entries else "no closed-form cross-checks in this workload"
    put("closed_forms.entries", per_pass(entries), "count", reason)
    put("closed_forms.hard_mismatches", per_pass(stats["hard_mismatches"]), "count", reason)

    for typ in SING_TYPES:
        put("distance.verdict_count." + typ, per_pass(tracer.results["verdict." + typ]),
            "count")

    pairs = stats["oracle_pairs"]
    put("oracle.agree_ratio", stats["oracle_agree"] / pairs if pairs else 0, "ratio",
        None if pairs else "no oracle comparisons in this workload")
    put("oracle.agree_base", per_pass(pairs), "count",
        None if pairs else "no oracle comparisons in this workload")

    nodes = stats["nodes"]
    reason = None if nodes else "no meshes in this workload"
    put("front.nodes", per_pass(nodes), "count", reason)
    put("front.skipped_share", stats["skipped"] / nodes if nodes else 0, "ratio", reason)
    for kind in MESH_KINDS:
        span = {"surface": "front.surface_mesh",
                "wavefront_direct": "front.wavefront_mesh.direct",
                "wavefront_blowup": "front.wavefront_mesh.blowup",
                "focal_sheet": "front.focal_sheet_mesh"}[kind]
        st, n = spans.get(span), stats["nodes." + kind]
        put("front.us_per_node." + kind, st["total"] / n * 1e6 if st and n else 0, "us",
            None if st and n else "no %s meshes in this workload" % kind)

    for name in COUNTED:
        put(name + ".calls", per_pass(tracer.counts[name]), "count")
    put("trace.spans", per_pass(len(tracer.spans)), "count")
    return out, unavailable
