"""Peak memory of germforge CLI runs at the largest inputs.

Each run is one child process, ``python -m germforge.cli ...``: it must exit
0, write nothing to stderr and keep its peak RSS under the bound of its
list; each peak is read from its own child's resource usage.  Run from the
repository root with germforge importable:

    PYTHONPATH=src python3 .github/peak_rss.py theta-cap
    PYTHONPATH=src python3 .github/peak_rss.py node-cap
"""

import json
import os
import subprocess
import sys
import tempfile

S1 = "tests/data/s1_special_directions_germ.json"
C3 = "tests/data/c3_geometry_germ.json"
DENSE = "tests/data/classify_float_s1_germ.json"


def run(name, argv, bound_mb):
    """Run the CLI on ``argv``, print its peak RSS and return its stdout;
    exit with a message naming the run if it fails or passes the bound."""
    cmd = [sys.executable, "-m", "germforge.cli", *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit("%s exited %d: %s" % (name, child.returncode, stderr))
    if stderr:
        sys.exit("%s wrote to stderr: %s" % (name, stderr))
    # this child's peak, in KiB on Linux
    peak = usage.ru_maxrss / 1024
    print("%s: peak RSS %.1f MB" % (name, peak))
    if peak > bound_mb:
        sys.exit("%s passed %d MB" % (name, bound_mb))
    return stdout


def theta_cap():
    """verify's probe stream of 2 000 samples (each normal form keeps a
    one-probe slot for the rank test: nothing may pile up), then geometry
    and verify --samples 0 at the largest theta grid (16 384 directions),
    all on the S1 germ, and verify --samples 0 at that grid on the C3 germ
    too (n = 2: its K0 and k20 grow fastest toward pi/2), each under 160 MB
    (they peaked at about 16, 39, 108 and 105 MB on Python 3.11, the verify
    runs up from 84 and 81 MB when the cross-check table gained K0 and k20)."""
    for germ, args in (
            (S1, ["verify", "--samples", "2000", "--theta-samples", "0"]),
            (S1, ["geometry", "--theta-samples", "16384"]),
            (S1, ["verify", "--samples", "0", "--theta-samples", "16384"]),
            (C3, ["verify", "--samples", "0", "--theta-samples", "16384"])):
        run("%s on %s" % (" ".join(args), os.path.basename(germ)), [*args, "--input", germ], 160)


def node_cap():
    """The four mesh kinds at the largest grid (1024 x 1024 nodes) on the S1
    germ and on a dense order-17 normal form (181 terms, powers of u and v up
    to 17), and the surface written as CSV too, each under 512 MB (surface,
    CSV surface, blow-up wavefront, direct wavefront and focal sheet peaked
    at about 154, 154, 186, 223 and 183 MB on the S1 germ and 154, 154, 190,
    215 and 180 MB on the dense one, on Python 3.11).  Each OBJ must hold one
    line per vertex and face of the child's JSON summary (face indices reach
    1 048 576) and each CSV a header and one line per vertex."""
    with tempfile.TemporaryDirectory() as tmp:
        for germ in (S1, DENSE):
            for args in (["--kind", "surface"],
                         ["--kind", "surface", "--format", "csv"],
                         ["--kind", "wavefront", "--chart", "blowup", "--t0", "0.1"],
                         ["--kind", "wavefront", "--chart", "direct", "--t0", "0.1"],
                         ["--kind", "focal"]):
                fmt = "csv" if "csv" in args else "obj"
                name = "mesh %s on %s" % (" ".join(args), os.path.basename(germ))
                stdout = run(name, ["mesh", *args, "--grid", "1024x1024", "--input", germ,
                                    "--output", os.path.join(tmp, "mesh." + fmt)], 512)
                summary = json.loads(stdout)["mesh"]
                want = summary["vertices"] + (1 if fmt == "csv" else summary["faces"])
                with open(summary["output"], "rb") as fh:
                    lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
                if lines != want:
                    sys.exit("%s wrote %d lines, not %d" % (name, lines, want))


RUN_LISTS = {"theta-cap": theta_cap, "node-cap": node_cap}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in RUN_LISTS:
        sys.exit("usage: peak_rss.py {%s}" % "|".join(RUN_LISTS))
    RUN_LISTS[sys.argv[1]]()
