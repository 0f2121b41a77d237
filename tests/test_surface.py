"""Every function and method in ``src/promptseg`` is one the program uses.

A top-level function or non-dunder method must be referenced by name somewhere
in the package outside its own ``def``.  The check matches names only, so it
cannot see a method that shares its name with one the package calls on
something else, such as a ``Tensor.sum`` next to the ``ndarray.sum`` calls.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import promptseg

SRC = Path(promptseg.__file__).parent

# nothing in the package calls these
ALLOWED = {
    "Backbone.save": "acceptance criterion 2 compares the checkpoints it writes",
    "Backbone.load": "the read side of the checkpoint format Backbone.save writes",
    "sweep.compare_tpe_random": "acceptance criterion 7 runs the TPE-vs-random check",
}


def _names(node) -> Counter:
    """Every name and attribute name used within ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module: str, tree: ast.Module):
    """(qualified name, def node) for each top-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_only_the_allow_list_is_unused():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [qualified for module, tree in trees.items()
              for qualified, node in _definitions(module, tree)
              if everywhere[node.name] == _names(node)[node.name]]
    assert sorted(unused) == sorted(ALLOWED)
