"""Every function, method and default-valued parameter in ``src/promptseg``
is one the program uses.

A top-level function or non-dunder method must be referenced by name somewhere
in the package outside its own ``def``, and a parameter with a default must be
passed, by keyword or by position, by some call in the package.  The checks
match names only, so they cannot see a method that shares its name with one
the package calls on something else, such as a ``Tensor.sum`` next to the
``ndarray.sum`` calls.
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
    "sweep.compare_tpe_random": "acceptance criterion 7 runs the TPE-vs-random check",
}

# defaults that no call in the package overrides
ALLOWED_PARAMS = {
    "Backbone.encode_text.record_trace": "acceptance criterion 4 reads the slot trace",
    "Backbone.encode_image.record_trace": "acceptance criterion 4 reads the slot trace",
    "runner.build_backbone.use_upsampler": "acceptance criterion 8 builds both arms",
    "tensor.layer_norm.eps": "the layer-norm gradient check runs at a larger eps",
    "training.train.on_step": "the freeze-violation tests inject a corrupting step hook",
    "cli.main.argv": "the CLI tests pass their argument lists",
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


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in the package by the name it calls: ``f(...)`` and
    ``x.f(...)`` both file under ``f``."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` gives the parameter at ``position`` (self not
    counted) or named ``name``; a ``*`` or ``**`` argument may give any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _defaulted(module: str, tree: ast.Module):
    """(function, parameter, position, qualified name) for each parameter with
    a default; a class's ``__init__`` is called by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _params(node, node.name, f"{module}.{node.name}", method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    called = node.name if item.name == "__init__" else item.name
                    yield from _params(item, called, f"{node.name}.{item.name}",
                                       method=True)


def _params(fn: ast.FunctionDef, called: str, qualified: str, method: bool):
    positional = fn.args.posonlyargs + fn.args.args
    offset = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[offset:], start=offset):
        yield called, arg.arg, i - method, qualified
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield called, arg.arg, None, qualified


def test_every_default_is_overridden_somewhere():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    calls = _calls(trees)
    unpassed = [f"{qualified}.{param}" for module, tree in trees.items()
                for called, param, position, qualified in _defaulted(module, tree)
                if qualified not in ALLOWED
                and not any(_passes(c, position, param) for c in calls.get(called, []))]
    assert sorted(unpassed) == sorted(ALLOWED_PARAMS)
