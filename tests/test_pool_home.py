"""The package's process pool has one home.

``mdlasso.pool.map_indices`` is the one place that starts processes; a
second module importing ``multiprocessing`` or calling ``os.fork`` fails
here, not only in review.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mdlasso"


def starts_processes(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "multiprocessing"
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "multiprocessing" or (
                    root == "os" and any(a.name == "fork" for a in node.names)):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
    return False


def test_only_the_pool_module_starts_processes():
    found = {path.name for path in SRC.glob("*.py")
             if starts_processes(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"pool.py"}
