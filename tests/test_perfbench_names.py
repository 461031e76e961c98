"""The benchmark reaches into germforge by name.  Every name its workloads
read must resolve, or the benchmark fails on its first item.  Every
function its tracer wraps must resolve too, or its span reads nothing; only
the spans of code deleted earlier are left unresolved."""

import ast
import functools
import importlib
from pathlib import Path

from source_scan import modules, named, nodes, parse_file

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
TRACING = PERFBENCH / "tracing.py"

# (module, name) of the traced functions that no longer exist: the closed
# forms replaced the per-theta series, and the tracer skips their wrappers
DEAD_SPANS = {(module, name) for module in ("blowup", "closed_forms")
              for name in ("curvature_series", "fundamental_forms", "extended_normal")}


def _resolve(module, name):
    """The object `from module import name` binds: a submodule or an attribute."""
    try:
        return importlib.import_module("%s.%s" % (module, name))
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def germforge_references(tree):
    """(module, name) for every `from germforge[.x] import name` and for every
    `<alias>.<name>` read through a germforge module imported that way."""
    refs, submodules = [], {}
    for node in nodes(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "germforge":
            for alias in node.names:
                refs.append((node.module, alias.name))
                target = "%s.%s" % (node.module, alias.name)
                try:
                    importlib.import_module(target)
                except ModuleNotFoundError:
                    continue
                submodules[alias.asname or alias.name] = target
    for node in nodes(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in submodules):
            refs.append((submodules[node.value.id], node.attr))
    return refs


def _literal(tree, name):
    """The value of the module-level assignment ``name = <literal>``."""
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and any(named(t) == name for t in node.targets))


def traced_references():
    """(germforge module, dotted name) of every function the tracer wraps:
    the targets of its SPANS, and its COUNTED methods of jets.Jet2."""
    tree = parse_file(TRACING)
    refs = [tuple(ref) for targets in _literal(tree, "SPANS").values() for ref in targets]
    return refs + [("jets", "Jet2." + attr) for attr in _literal(tree, "COUNTED").values()]


def _resolves(module, name):
    try:
        functools.reduce(getattr, name.split("."), importlib.import_module("germforge." + module))
    except (AttributeError, ImportError):
        return False
    return True


def test_every_germforge_name_the_workloads_read_resolves():
    refs = germforge_references(parse_file(WORKLOADS))
    missing = []
    for module, name in sorted(set(refs)):
        try:
            _resolve(module, name)
        except (AttributeError, ImportError):
            missing.append("%s.%s" % (module, name))
    assert missing == []
    # the analysis workload's K0 check reads both closed forms
    assert {("germforge.blowup", "K0_closed"), ("germforge.blowup", "k20_closed")} <= set(refs)


def test_only_the_deleted_spans_fail_to_resolve():
    refs = traced_references()
    assert ("jets", "Jet2.__mul__") in refs and len(refs) > len(DEAD_SPANS)
    assert {ref for ref in refs if not _resolves(*ref)} == DEAD_SPANS


def test_front_imports_for_perfbench_only_what_it_traces():
    # front re-imports front_verdict and ridge_report from blowup and reads
    # neither: the analysis workload calls front.front_verdict, and the
    # tracer wraps both under front
    front = modules()["front"]
    read = {node.id for node in nodes(front)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = {alias.asname or alias.name for node in nodes(front)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    unread = imported - read
    assert unread == {"front_verdict", "ridge_report"}
    assert {("front", name) for name in unread} <= set(traced_references())
    assert ("germforge.front", "front_verdict") in germforge_references(parse_file(WORKLOADS))
