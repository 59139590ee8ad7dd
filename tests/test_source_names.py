"""No function or method in ``src/`` exists only for the tests.

A name-occurrence heuristic: every top-level function defined in
``src/acadsearch`` must be referenced, as a name or an attribute, somewhere
in ``src/`` outside its own ``def``, and every method as an attribute (a
local variable that shares a method's name does not count). Imports do not
count as references. Two methods sharing a name pass if either is used,
and a function referenced only by another unused function passes too, so
a clean result does not prove every definition reachable; a failure does
show one that nothing in ``src/`` reaches. Helpers the tests need belong in
``tests/oracles.py`` or the test file that uses them.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "acadsearch"

# name -> why it stays although nothing in src/ references it
ALLOWED = {
    "kg_user_score": "perfbench/spans.py traces it by name",
    "read_run": "perfbench/workloads.py reads the eval runs with it",
    "ranking_ids": "perfbench/workloads.py reads the eval runs' doc ids with it",
}


def _definitions_and_references():
    """(module, name, is_method) per definition; name and attribute counts."""
    definitions = []
    names, attributes = Counter(), Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((path.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                definitions += [(path.name, item.name, True) for item in node.body
                                if isinstance(item, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
    return definitions, names, attributes


def test_every_source_definition_is_used_in_src():
    definitions, names, attributes = _definitions_and_references()
    assert len(definitions) > 100
    unused = [f"{module}: {name}" for module, name, is_method in definitions
              if not (name.startswith("__") and name.endswith("__"))
              and name not in ALLOWED
              and attributes[name] + (0 if is_method else names[name]) == 0]
    assert unused == []


def test_allowed_names_are_still_defined():
    defined = {name for _, name, _ in _definitions_and_references()[0]}
    assert set(ALLOWED) <= defined
