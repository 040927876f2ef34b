"""Each parameter rule that several modules apply has one home.

The rules for counts, the open unit interval and positive finite values
live in ``errors``, the rule for seeds and stream ids in ``seeding``, and
every other module calls them. A module that spells a rule's message
holds a copy of the rule, which can drift from it, so it fails here.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a fragment of each rule's message: the module that spells it
HOMES = {" must be >= ": "errors.py",
         " must lie in (0, 1), got ": "errors.py",
         " must be positive and finite, got ": "errors.py",
         " must lie in [0, 2**64), got ": "seeding.py"}
# DivergenceOrder checks its lambda itself: it raises InvalidOrderError
OWN_CHECKS = {"divergence order lambda must lie in (0, 1), got "}


def raised_strings(tree):
    """The string constants in the module's ``raise`` statements, the
    literal parts of f-strings among them."""
    return {node.value for stmt in ast.walk(tree)
            if isinstance(stmt, ast.Raise) for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


@pytest.mark.parametrize("fragment", sorted(HOMES))
def test_only_the_home_of_a_rule_spells_its_message(fragment):
    spelled = {path.name for path in (ROOT / "src" / "mdlasso").glob("*.py")
               if any(fragment in text for text in raised_strings(
                   ast.parse(path.read_text(encoding="utf-8"))) - OWN_CHECKS)}
    assert spelled == {HOMES[fragment]}
