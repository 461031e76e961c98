"""Code with no caller goes: every module-level function and class and every
method of ``src/germforge`` is referenced somewhere in ``src/`` outside its
own body, or ``ALLOWED`` names it with the reason it stays.

A reference is a name read (``f(...)``, ``Cls``) or an attribute read
(``obj.method``), matched by name.  Imports and the package's
``__init__.py`` exports are not references, and neither are strings.
Dunder names are hooks the interpreter calls, and so is a method that
overrides one of a base class from outside the package (argparse calls
``error``); neither needs a reference.
"""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "germforge"

# "module.name" (or "module.Class.method") -> why it stays without a caller
ALLOWED = {
    "germ_io.load_germ": "perfbench's classify-batch workload reads germ files with it",
    "blowup.K0_closed": "perfbench's analysis check reads it",
    "blowup.k20_closed": "perfbench's analysis check reads it",
    "blowup.front_verdict": "perfbench's analysis workload traces and calls it",
    "oracle.rank_of_rows": "perfbench traces it, and the tests hold the integer "
                           "elimination to it",
    "oracle.versality_rank_oracle": "perfbench traces it, and the tests hold the "
                                    "integer kernels to it",
    "jets.Jet2.evaluate": "perfbench's mesh offset check and the tests' scalar "
                          "reference (conftest.raw_geometry) evaluate jets with it",
    "normal_form.TransformLog.replay": "the tests check with it that the log "
                                       "reproduces the normal form",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _overrides_outside(module, cls_node, name):
    """Whether a base class from outside the package defines ``name``."""
    if not cls_node.bases:
        return False
    cls = getattr(importlib.import_module("germforge." + module), cls_node.name)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("germforge"))


def _definitions(module, tree):
    """{qualified name: node} of the module-level functions and classes and
    of the methods of its classes, hooks left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            out["%s.%s" % (module, node.name)] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)
                        and not _overrides_outside(module, node, item.name)):
                    out["%s.%s.%s" % (module, node.name, item.name)] = item
    return out


def _references(tree):
    """[(name, ids of the function and class nodes around the reference)]."""
    refs = []

    def walk(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, around))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((node.attr, around))
        for child in ast.iter_child_nodes(node):
            walk(child, around)

    walk(tree, frozenset())
    return refs


def uncalled(src=SRC):
    """The qualified names defined under ``src`` that nothing there reads."""
    defs, refs = {}, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_definitions(path.stem, tree))
        if path.name != "__init__.py":
            refs += _references(tree)
    by_name = {}
    for name, around in refs:
        by_name.setdefault(name, []).append(around)
    return sorted(
        qual for qual, node in defs.items()
        if not any(id(node) not in around for around in by_name.get(node.name, ()))
    )


def test_every_definition_has_a_caller_or_a_reason():
    assert [name for name in uncalled() if name not in ALLOWED] == []


def test_every_allowed_name_still_lacks_a_caller():
    # a name that gained a caller leaves the list
    assert sorted(set(ALLOWED) - set(uncalled())) == []


def test_scan_sees_a_name_read_only_by_its_own_body(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import exported\n")
    (tmp_path / "m.py").write_text(
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def exported():\n"
        "    return 1\n"
        "def called():\n"
        "    return 2\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = called()\n"
        "    def used(self):\n"
        "        return self.unused_by_others\n"
        "    def unused_by_others(self):\n"
        "        return Box\n"
        "    def lonely(self):\n"
        "        return self.lonely()\n"
        "x = Box().used()\n"
    )
    (tmp_path / "n.py").write_text("from .m import recursive\n")
    assert uncalled(tmp_path) == ["m.Box.lonely", "m.exported", "m.recursive"]
