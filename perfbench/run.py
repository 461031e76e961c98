#!/usr/bin/env python3
"""germforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (classify-batch, analysis, mesh, cli-calls) in this
process on inputs generated from the seed, for S seconds, checking every
output.  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over the workload's corpus and reports
per-layer metrics (per pass) and the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.

The package is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify-batch", "analysis", "mesh", "cli-calls")
SETUP_REPEATS = 7       # fresh processes timed for setup_s (median reported)
IMPORT_REPEATS = 3      # fresh interpreters timed for cli.import_s
REFERENCE_S = 1e-3      # reference-kernel time on the host the metrics are scaled to
REFERENCE_PROCESS_S = 0.05  # `python -c pass` time on that host (workloads of processes)
PROBE_EVERY_S = 0.02    # at most this much item time between host-speed probes


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate the inputs, warm up and exit (times setup_s)")
    return p.parse_args(argv)


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "GERMFORGE_MODE"}
    env["PYTHONPATH"] = SRC
    return env


def _fresh_process_seconds(cmd, repeats, speed=None):
    """Wall times of `repeats` runs of cmd; with a HostSpeed, also the times
    scaled by the host speed probed just before and after each run."""
    times, scaled = [], []
    for _ in range(repeats):
        if speed:
            speed.probe()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("fresh process %s failed (exit %d): %s"
                               % (cmd[1:], proc.returncode, proc.stderr[-2000:]))
        if speed:
            speed.probe()
            scaled.append(times[-1] / speed.factor(2))
    return times, scaled, proc.stdout


def _reference_kernel():
    """Fixed pure-Python work like germforge's (sparse products over Fractions,
    then float arithmetic); it imports nothing from germforge."""
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5 - i)}
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in p.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    f = [float(v) for v in out.values()]
    for _ in range(20):
        f = [(x * 0.75 + 1.0) ** 0.5 for x in f]
    return out, f


class HostSpeed:
    """How slow the host runs right now, from reference work timed between
    items.  A shared host can change speed by 20-40 % for seconds to minutes;
    dividing each item's time by the factor measured next to it removes that
    from the metrics (raw times are printed beside them).  In-process items
    are compared with the reference kernel; items that are child processes
    are compared with a bare `python -c pass`, since the kernel misses their
    start-up and file I/O."""

    def __init__(self, processes=False):
        self.processes = processes
        self.reference = REFERENCE_PROCESS_S if processes else REFERENCE_S
        self.samples = []
        self.last = -math.inf

    def probe(self):
        if self.processes:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_child_env(),
                           check=True)
            self.samples.append(time.perf_counter() - start)
        else:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                _reference_kernel()
                times.append(time.perf_counter() - start)
            self.samples.append(statistics.median(times))
        self.last = time.perf_counter()

    def before_item(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, window=3):
        """Current reference time over its value on the reference host."""
        return statistics.median(self.samples[-window:]) / self.reference


def _provenance():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "germforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


class Pass:
    """Latencies, units and failures of the items run so far.  With a
    HostSpeed, each item's time is later divided by the host speed probed
    just before and just after it (see `scaled`)."""

    def __init__(self, speed=None):
        self.speed = speed
        self.raw = []          # measured seconds of each successful item
        self.ids = []          # its item id
        self.probe_at = []     # index of the last probe before that item
        self.units = []
        self.attempted = 0
        self.failures = []     # (item id, message)
        self.failed = 0

    def run_item(self, wl, item, tracer=None):
        self.attempted += 1
        if self.speed:
            self.speed.before_item()
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.item = item.id
                result = tracer.span(item.span or wl.name + ".item", wl.run, item)
            else:
                result = wl.run(item)
        except Exception:
            self.failed += 1
            self.failures.append((item.id, traceback.format_exc().strip()))
            return
        elapsed = time.perf_counter() - start
        self.raw.append(elapsed)
        self.ids.append(item.id)
        self.probe_at.append(len(self.speed.samples) - 1 if self.speed else None)
        self.units.append(item.units)
        try:
            fails = wl.check(item, result)
        except Exception:
            fails = ["check raised: " + traceback.format_exc().strip()]
        if fails:
            self.failed += 1
            self.failures.extend((item.id, msg) for msg in fails)

    def scaled(self):
        """Item times on the reference host: each divided by the median of the
        probes just before it, before that, and just after it."""
        samples = self.speed.samples
        return [t * self.speed.reference / statistics.median(samples[max(k - 1, 0): k + 2])
                for t, k in zip(self.raw, self.probe_at)]


def _timed_loop(wl, seconds):
    """Closed loop over the corpus for `seconds`, at least one full pass."""
    res = Pass(HostSpeed(wl.runs_processes))
    start = time.perf_counter()
    i = 0
    while i < len(wl.items) or time.perf_counter() - start < seconds:
        res.run_item(wl, wl.items[i % len(wl.items)])
        i += 1
    res.speed.probe()
    return res


def _one_pass(wl, res, tracer=None):
    for item in wl.items:
        res.run_item(wl, item, tracer)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _declared(kind):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    args = _parse(argv)
    os.environ.pop("GERMFORGE_MODE", None)    # it silently switches the arithmetic
    # one CPU for this process and its children: migrating between cores that
    # neighbours load differently is the largest source of run-to-run spread
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "germforge", "__init__.py")):
        print("error: germforge sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import germforge

    if os.path.dirname(os.path.abspath(germforge.__file__)) != os.path.join(SRC, "germforge"):
        print("error: germforge imported from %s, not from src/" % germforge.__file__,
              file=sys.stderr)
        return 2

    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, os.getpid()), dir=tmp_parent)
    try:
        if args.setup_only:
            _build(args, tmpdir)
            return 0
        if args.trace:
            return _traced(args, tmpdir)
        return _untraced(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass


def _build(args, tmpdir):
    import workloads

    wl = workloads.build(args.workload, args.seed, tmpdir, SRC)
    wl.warm_up()
    return wl


def _report(args, wl, res, metrics, extra_lines):
    setup_failures = getattr(wl, "setup_failures", [])
    failed = res.failed + len(setup_failures)
    attempted = res.attempted + len(setup_failures)
    prov = _provenance()
    print("# germforge benchmark: workload %s, seed %d, %s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("# provenance: %s" % json.dumps(prov, sort_keys=True))
    print("# inputs: %s" % json.dumps(wl.provenance(), sort_keys=True))
    for line in extra_lines:
        print("# " + line)
    print("# failed_ratio: %d / %d = %.6g" % (failed, attempted, failed / max(attempted, 1)))
    for ident, msg in setup_failures + res.failures:
        print("# FAILED %s: %s" % (ident, msg.replace("\n", "\n#   ")))
    for name, (value, unit) in metrics.items():
        print("# %-48s %16.6g %s" % (name, value, unit))
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if declared is not None and sorted(declared) != sorted(metrics):
        print("error: metrics %s do not match BENCHMARK.json %s" % (
            sorted(set(metrics) ^ set(declared)), "per_layer" if args.trace else "end_to_end"),
            file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _untraced(args, tmpdir):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    setups_raw, setups, _ = _fresh_process_seconds(cmd, SETUP_REPEATS, HostSpeed())
    wl = _build(args, tmpdir)
    res = _timed_loop(wl, args.seconds)
    if args.workload == "cli-calls":
        peak_kb = wl.stats["child_maxrss_kb"]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # every distinct item enters once, at its median over the run's repeats
    per_item, units = {}, {}
    for ident, t, n in zip(res.ids, res.scaled(), res.units):
        per_item.setdefault(ident, []).append(t)
        units[ident] = n
    lat = [statistics.median(ts) for ts in per_item.values()] or [0.0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (sum(units.values()) / sum(lat) if per_item else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(lat, 90) * 1e3 if len(lat) > 1 else lat[0] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    repeats = [len(ts) for ts in per_item.values()]
    lines = [
        "times are scaled to a host where the reference %s takes %g ms; this host "
        "took %.4g ms (median of %d probes)" % (
            "`python -c pass`" if res.speed.processes else "kernel",
            res.speed.reference * 1e3, statistics.median(res.speed.samples) * 1e3,
            len(res.speed.samples)),
        "raw, unscaled, all repeats pooled: latency p50 %.4g ms, p90 %.4g ms; "
        "setup %s s" % (
            statistics.median(res.raw) * 1e3, _quantile(res.raw, 90) * 1e3,
            ", ".join("%.3f" % x for x in setups_raw)),
        "setup_s: median of %d fresh processes: %s" % (
            len(setups), ", ".join("%.3f" % x for x in setups)),
        "latency percentiles over %d distinct items (%d beyond p90), each the median "
        "of its %d-%d repeats; items_per_s counts %s" % (
            len(lat), len(lat) // 10, min(repeats), max(repeats),
            "grid nodes" if args.workload == "mesh" else
            "CLI processes" if args.workload == "cli-calls" else "germs"),
        "peak_rss_mb: %s" % ("largest CLI child process" if args.workload == "cli-calls"
                             else "this process"),
    ]
    return _report(args, wl, res, metrics, lines)


def _traced(args, tmpdir):
    import tracing

    wl = _build(args, tmpdir)
    code = "import time; t = time.perf_counter(); import germforge.cli; " \
           "print(time.perf_counter() - t)"
    imports = [float(_fresh_process_seconds([sys.executable, "-c", code], 1)[2])
               for _ in range(IMPORT_REPEATS)]

    speed = HostSpeed(wl.runs_processes)
    plain, traced = Pass(speed), Pass(speed)
    tracer = tracing.Tracer()
    layer_stats = Counter()      # check() counters of the traced passes
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        _one_pass(wl, plain)
        wl.stats.clear()
        tracer.install()
        try:
            _one_pass(wl, traced, tracer)
        finally:
            tracer.uninstall()
        layer_stats.update(wl.stats)
        passes += 1
    metrics, unavailable = tracing.layer_metrics(tracer, layer_stats, passes,
                                                 statistics.median(imports))
    speed.probe()
    traced_s, plain_s = sum(traced.scaled()), sum(plain.scaled())
    overhead = traced_s / plain_s - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, "spans-%s-seed%d.tsv" % (args.workload, args.seed))
    tracer.write(span_file)
    res = Pass()
    res.failures = plain.failures + traced.failures
    res.failed = plain.failed + traced.failed
    res.attempted = plain.attempted + traced.attempted
    lines = ["%d untraced + %d traced passes of %d items; per-layer values are per pass"
             % (passes, passes, len(wl.items)),
             "tracing overhead: traced %.3f s vs untraced %.3f s, scaled to the reference "
             "host" % (traced_s, plain_s),
             "spans written to %s" % os.path.relpath(span_file, ROOT)]
    lines += ["wrapper skipped, name no longer exists: %s" % m
              for m in sorted(set(tracer.missing))]
    by_reason = {}
    for name, reason in sorted(unavailable.items()):
        by_reason.setdefault(reason, []).append(name)
    lines += ["reads 0, %s: %s" % (reason, ", ".join(names))
              for reason, names in sorted(by_reason.items())]
    return _report(args, wl, res, metrics, lines)


if __name__ == "__main__":
    sys.exit(main())
