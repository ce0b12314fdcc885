#!/usr/bin/env python3
"""Print every src/ statement that no tier-1 test executes.

    python3 scripts/reach.py

Runs the whole tier-1 suite in this process through pytest.main, under the
standard library's trace.Trace line counter, and keeps each line that ran in
a file under src/. It then prints, as ``path:line: text``, each statement of
each src/ file that no recorded line belongs to. A statement spanning
several lines counts as executed when any of them ran; a compound statement
(if, for, def, ...) is judged by its header alone. Docstrings, the bodies
of ``if TYPE_CHECKING:`` blocks and ``global``/``nonlocal`` lines produce
no line events and are left out. Code that only a subprocess runs is not
seen. The script puts the repo's src/ on the import path itself; it exits
with pytest's status when the suite fails, else 0.

It is not part of tier-1: tracing slows the suite down about six times over.
"""

from __future__ import annotations

import ast
import os
import sys
import trace
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _header(node: ast.stmt) -> Tuple[int, int]:
    """First and last line of a statement, header only when it is compound."""
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return first, max(node.lineno, body[0].lineno - 1)
    return first, node.end_lineno or node.lineno


def statements(body: List[ast.stmt], scope: bool = False) -> Iterator[ast.stmt]:
    """Every statement in body, nested ones included, that runs code when
    reached. scope marks the body of a module, class or function, whose
    first statement may be a docstring."""
    for index, node in enumerate(body):
        if scope and index == 0 and _is_docstring(node):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        yield node
        if not (isinstance(node, ast.If) and _is_type_checking(node.test)):
            yield from statements(getattr(node, "body", []), isinstance(node, _SCOPES))
        yield from statements(getattr(node, "orelse", []))
        yield from statements(getattr(node, "finalbody", []))
        for handler in getattr(node, "handlers", []) + getattr(node, "cases", []):
            yield from statements(handler.body)


def unreached(path: str, ran: Set[int]) -> List[Tuple[int, str]]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    missed = []
    for node in statements(ast.parse(source, filename=path).body, scope=True):
        first, last = _header(node)
        if not ran.intersection(range(first, last + 1)):
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(missed)


def src_files() -> List[str]:
    found = []
    for directory, _, names in os.walk(SRC):
        found.extend(os.path.join(directory, n) for n in names if n.endswith(".py"))
    return sorted(found)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # subprocesses the tests start find the package the same way
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    # no ignoredirs: trace.Trace caches its ignore verdict by module basename,
    # so src/'s __init__.py, types.py or trace.py would share the verdict of a
    # stdlib or site-packages file of the same name
    tracer = trace.Trace(count=1, trace=0)
    scope = {"pytest": pytest}
    tracer.runctx(
        'status = pytest.main(["-q", "--continue-on-collection-errors"])', scope, scope
    )
    ran: Dict[str, Set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(os.path.abspath(filename), set()).add(line)
    count = 0
    for path in src_files():
        for line, text in unreached(path, ran.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
            count += 1
    print(f"{count} src/ statements never ran", file=sys.stderr)
    return int(scope["status"])


if __name__ == "__main__":
    sys.exit(main())
