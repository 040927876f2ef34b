"""``mdlasso.__all__`` names exactly the package's public namespace, and
every name in it has a caller.

A function deleted from a module but still exported fails here, not only
at ``from mdlasso import *``. So does an exported name that only its own
unit tests call.
"""

import ast
import pathlib
import types

import mdlasso

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdlasso"


def test_all_is_the_public_namespace():
    assert len(mdlasso.__all__) == len(set(mdlasso.__all__))
    public = {name for name, value in vars(mdlasso).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(mdlasso.__all__) == public
    namespace = {}
    exec("from mdlasso import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def _loads(tree, modules):
    """Names loaded as ``name`` or ``<module>.name``, each outside the body
    of a def or class of that same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    """Each name in ``__all__`` is loaded in a package module other than
    ``__init__.py``, or in the benchmark's ``perfbench/*.py``."""
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"mdlasso"}
    loaded = set()
    for path in sources:
        loaded |= _loads(ast.parse(path.read_text(), str(path)), modules)
    uncalled = sorted(set(mdlasso.__all__) - loaded)
    assert uncalled == [], f"exported with no caller: {uncalled}"
