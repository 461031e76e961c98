"""The benchmark's workloads reach into germforge by name; every such name
must resolve, or the benchmark fails on its first item."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _resolve(module, name):
    """The object `from module import name` binds: a submodule or an attribute."""
    try:
        return importlib.import_module("%s.%s" % (module, name))
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def germforge_references(source):
    """(module, name) for every `from germforge[.x] import name` and for every
    `<alias>.<name>` read through a germforge module imported that way."""
    tree = ast.parse(source)
    refs, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "germforge":
            for alias in node.names:
                refs.append((node.module, alias.name))
                target = "%s.%s" % (node.module, alias.name)
                try:
                    importlib.import_module(target)
                except ModuleNotFoundError:
                    continue
                modules[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_every_germforge_name_the_workloads_read_resolves():
    refs = germforge_references(WORKLOADS.read_text(encoding="utf-8"))
    missing = []
    for module, name in sorted(set(refs)):
        try:
            _resolve(module, name)
        except (AttributeError, ImportError):
            missing.append("%s.%s" % (module, name))
    assert missing == []
    # the analysis workload's K0 check reads both closed forms
    assert {("germforge.blowup", "K0_closed"), ("germforge.blowup", "k20_closed")} <= set(refs)

