"""Code with no caller goes: every module-level function and class and every
method of ``src/germforge`` is referenced somewhere in ``src/`` outside its
own body, or ``ALLOWED`` names it with the reason it stays.

A reference is a name read (``f(...)``, ``Cls``) or an attribute read
(``obj.method``), matched by name.  A method (not a ``property`` or
``cached_property``) is stricter, since a local variable or a record field
may share its name: a bare name read never references it, and an attribute
read references it where it calls it (``obj.method(...)``) or where no class
under ``src/`` stores data under that name (a ``_fields`` or ``__slots__``
entry, a ``self.name = ...`` store or a ``_set(self, "name", ...)``).
Imports and the package's ``__init__.py`` exports are not references, and
neither are strings.  Dunder names are hooks the interpreter calls, and so
is a method that overrides one of a base class from outside the package
(argparse calls ``error``); neither needs a reference.
"""

import ast
import importlib

from source_scan import SRC, called, modules, named, nodes, walk

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
    "blowup.BlowupContext.ma": "perfbench's analysis check (Analysis._check_k0) and the "
                               "tests call it; the sweep reads ma off each RidgeReport",
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


def _is_method(item):
    """Whether a function in a class body is a method and not a property."""
    return not any(named(d) in ("property", "cached_property") for d in item.decorator_list)


def _definitions(module, tree):
    """{qualified name: (node, whether it is a method)} of the module-level
    functions and classes and of the methods of its classes, hooks left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            out["%s.%s" % (module, node.name)] = (node, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)
                        and not _overrides_outside(module, node, item.name)):
                    out["%s.%s.%s" % (module, node.name, item.name)] = (item, _is_method(item))
    return out


def _references(tree):
    """[(name, kind, scopes)] of every name and attribute read: kind is
    "name" for a bare name, "call" for an attribute it calls and "attr" for
    any other attribute; scopes are the def and class nodes around it."""
    refs, calls = [], set()
    for node, scopes in walk(tree):
        if isinstance(node, ast.Call):
            calls.add(node.func)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            kind = "name" if isinstance(node, ast.Name) else "call" if node in calls else "attr"
            refs.append((named(node), kind, scopes))
    return refs


def _data_names(tree):
    """Names under which the classes of a module store data: ``_fields`` and
    ``__slots__`` entries, ``self.x = ...`` stores and ``_set(self, "x", ...)``."""
    names = set()
    for node, scopes in walk(tree):
        if (isinstance(node, ast.Assign) and scopes and isinstance(scopes[-1], ast.ClassDef)
                and any(named(t) in ("_fields", "__slots__") for t in node.targets)):
            names |= {x.value for x in nodes(node.value)
                      if isinstance(x, ast.Constant) and isinstance(x.value, str)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
        elif called(node) == "_set" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
    return names


def uncalled(src=SRC):
    """The qualified names defined under ``src`` that nothing there reads."""
    defs, refs, data = {}, [], set()
    for module, tree in modules(src).items():
        defs.update(_definitions(module, tree))
        data |= _data_names(tree)
        if module != "__init__":
            refs += _references(tree)
    by_name = {}
    for name, kind, scopes in refs:
        by_name.setdefault(name, []).append((kind, scopes))

    def referenced(node, method):
        return any(node not in scopes and (
            not method or kind == "call" or (kind == "attr" and node.name not in data))
            for kind, scopes in by_name.get(node.name, ()))

    return sorted(qual for qual, (node, method) in defs.items() if not referenced(node, method))


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


def test_scan_sees_a_method_read_only_as_a_variable_or_a_field(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Context:\n"
        "    def ma(self, theta):\n"
        "        return theta\n"
        "    def depth(self):\n"
        "        return 0\n"
        "    def width(self):\n"
        "        return 1\n"
        "    def total(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "class Report:\n"
        "    __slots__ = _fields = ('ma', 'size')\n"
        "    def __init__(self, total):\n"
        "        self.total = total\n"
        "        _set(self, 'depth', 0)\n"
        "def report(ctx, rr):\n"
        "    ma = rr.ma\n"
        "    return ma, rr.depth, rr.size, ctx.width, ctx.total(), Report(0)\n"
        "ENTRIES = report, Context\n"
    )
    assert uncalled(tmp_path) == ["m.Context.depth", "m.Context.ma"]
