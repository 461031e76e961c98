"""Germforge's source, parsed once, for the structure guards.

The structure guards hold each route and each concept of ``src/germforge``
to one implementation by reading its source: ``test_callers``, and the
``TestOne*`` classes of ``test_jets``, ``test_mond``, ``test_normal_form``,
``test_germ_io`` and ``test_records``.  They all read it through this
module, which defines no tests; ``test_perfbench_names`` and
``test_germ_source`` read the benchmark's files and the tests' own through
it too:

* ``SRC`` is the package directory, and ``modules()`` its files parsed
  once a session, by module stem; another directory (a test's synthetic
  package) is parsed on its own;
* ``parse`` reads a synthetic source and ``parse_file`` any other file;
* ``walk`` is the one walk: every node of a tree with the ``def`` and
  ``class`` nodes around it, whose dotted names ``qualname`` and
  ``functions`` give;
* ``named`` and ``called`` are the two predicates: the name a node names
  (a ``Name``, an ``Attribute`` or an import alias) and the name a call
  calls.
"""

import ast
import functools
import pathlib
import types

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "germforge"

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(source):
    """The tree of a source text."""
    return ast.parse(source)


@functools.lru_cache(maxsize=None)
def parse_file(path):
    """The tree of a Python file, parsed once a session."""
    return ast.parse(pathlib.Path(path).read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def modules(directory=SRC):
    """{module stem: tree} of the ``*.py`` files of ``directory``, in name
    order, ``__init__`` included; every caller shares it, read-only."""
    return types.MappingProxyType(
        {path.stem: parse_file(path) for path in sorted(pathlib.Path(directory).glob("*.py"))})


def walk(tree):
    """(node, scopes) of every node of ``tree``, itself included, in source
    order: ``scopes`` is the tuple of ``def`` and ``class`` nodes around the
    node, outermost first.  A ``def`` or ``class`` is not among its own
    scopes, but its decorators, defaults and body are inside it.  A whole
    module is walked once a session."""
    return _walk_module(tree) if isinstance(tree, ast.Module) else _walk(tree)


@functools.lru_cache(maxsize=None)
def _walk_module(tree):
    return tuple(_walk(tree))


def _walk(tree):
    stack = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        yield node, scopes
        if isinstance(node, SCOPES):
            scopes += (node,)
        stack.extend((child, scopes) for child in reversed(list(ast.iter_child_nodes(node))))


def nodes(tree):
    """Every node of ``tree``, in the order ``walk`` gives."""
    return (node for node, _ in walk(tree))


def qualname(scopes):
    """The dotted name of the innermost scope (``Class.method``), or None at
    module level."""
    return ".".join(scope.name for scope in scopes) or None


def functions(scopes):
    """The dotted names of every function among ``scopes``, outermost first."""
    return [qualname(scopes[:i + 1]) for i, scope in enumerate(scopes)
            if isinstance(scope, FUNCTIONS)]


def named(node):
    """The name a ``Name``, an ``Attribute`` or an import alias names, else
    None; an alias names what it imports, not its ``as`` name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def called(node):
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``; None
    for a node that is no call or calls no name."""
    return named(node.func) if isinstance(node, ast.Call) else None
