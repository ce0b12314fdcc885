"""Every function and method defined under src/ has a caller.

A name counts as called when it is read anywhere in src/ or scripts/ other
than where it is defined: as a name, or as an attribute. Names listed in an
``__all__``, ``main`` and dunder methods are exempt, because they are called
from outside or by Python itself.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parsed_modules(folder):
    for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, ROOT), ast.parse(handle.read(), path)


def test_every_function_under_src_has_a_caller():
    defined, read, exported = {}, set(), set()
    for folder in ("src", "scripts"):
        for path, tree in parsed_modules(folder):
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if folder == "src":
                        defined.setdefault(node.name, path)
                elif isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets
                ):
                    exported.update(ast.literal_eval(node.value))
    assert defined and exported
    uncalled = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in read
        and name not in exported
        and name != "main"
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert uncalled == []
