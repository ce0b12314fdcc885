"""Every function and method defined under src/ has a caller, and every
dataclass field and instance attribute there has a reader. A package's
__init__.py imports only the names listed in ``PACKAGE_IMPORTS``, and every
relative import under src/ reads a name off the module that defines it.

A name counts as called when it is read anywhere in src/ or scripts/ other
than where it is defined: as a name, or as an attribute. ``main``, dunder
methods and the names in ``CALLED_FROM_OUTSIDE`` are exempt, because they
are called by Python itself or only from outside src/ and scripts/; an
exempt name that gains a reader there must lose its exemption.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each name with why nothing under src/ or scripts/ calls it. Being imported
# by a package's __init__.py is not a reason.
CALLED_FROM_OUTSIDE = {
    "allocate": "perfbench's hook resolution test relies on it shadowing its module;"
    " the coordination tests call it",
    "enumerate_joint_space": "a perfbench hook wraps it; the allocator tests use it as their oracle",
    "score_joint": "a perfbench hook wraps it; the allocator tests use it as their oracle",
    "slice_history": "a perfbench hook wraps it; the summary tests use it as the reference"
    " for the episode loop's running window",
    "_put_conn": "urllib3's reply hands the keep-alive adapter its connection back through it",
}


# The names a package's __init__.py may import, each with the code outside
# src/ that reads the name off the package. Every other name is imported from
# the module that defines it, and every other __init__.py is its docstring.
PACKAGE_IMPORTS = {
    "homecrew.coordination": (
        {"allocate"},
        "perfbench's test_hook_modules_resolve_through_sys_modules asserts that"
        " this function shadows its module",
    ),
    "homecrew.harness": (
        {"EpisodeConfig", "RemoteConfig", "replay_trace", "run_episode"},
        "perfbench/run.py's Bench reads these off the package",
    ),
    "homecrew.world": (
        {"init_world"},
        "perfbench/run.py's setup_probe imports it from the package",
    ),
}


def parsed_modules(folder):
    for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, ROOT), ast.parse(handle.read(), path)


def names_read():
    """Every name read under src/ or scripts/: as a name, or as an attribute."""
    read = set()
    for folder in ("src", "scripts"):
        for _, tree in parsed_modules(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_function_under_src_has_a_caller():
    defined = {}
    for path, tree in parsed_modules("src"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, path)
    assert defined
    read = names_read()
    uncalled = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in read
        and name not in CALLED_FROM_OUTSIDE
        and name != "main"
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert uncalled == []


def test_names_called_from_outside_have_no_caller_inside():
    """An exemption lasts only while nothing under src/ or scripts/ reads
    the name: a caller there makes it stale."""
    assert sorted(names_read() & set(CALLED_FROM_OUTSIDE)) == []


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_under_src_is_read():
    """Every field of a dataclass defined under src/ is read: its name is
    loaded as an attribute (``.name``) somewhere in src/ or scripts/. A
    local variable or parameter of the same name reads no field, so it
    cannot hide a dead one. A field of one class can still be hidden by a
    read of another class's field of the same name."""
    defined, loaded = {}, set()
    for folder in ("src", "scripts"):
        for path, tree in parsed_modules(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and folder == "src" and _is_dataclass(node):
                    for statement in node.body:
                        if isinstance(statement, ast.AnnAssign) and isinstance(
                            statement.target, ast.Name
                        ):
                            defined.setdefault(
                                statement.target.id, f"{path}: {node.name}"
                            )
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    assert defined
    unread = sorted(
        f"{where}.{name}" for name, where in defined.items() if name not in loaded
    )
    assert unread == []


def test_every_instance_attribute_under_src_is_read():
    """Every ``self.X = ...`` under src/ is loaded as ``.X`` somewhere in src/
    or scripts/. Only attribute loads count: a local variable of the same
    name reads nothing stored on an instance."""
    assigned, loaded = {}, set()
    for folder in ("src", "scripts"):
        for path, tree in parsed_modules(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif folder == "src" and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for part in (part for target in targets for part in ast.walk(target)):
                        if (
                            isinstance(part, ast.Attribute)
                            and isinstance(part.value, ast.Name)
                            and part.value.id == "self"
                        ):
                            assigned.setdefault(part.attr, path)
    assert assigned
    unread = sorted(
        f"{path}: self.{name}" for name, path in assigned.items() if name not in loaded
    )
    assert unread == []


def test_package_inits_hold_only_their_listed_imports():
    found = {}
    for path, tree in parsed_modules("src"):
        if os.path.basename(path) != "__init__.py":
            continue
        package = os.path.dirname(os.path.relpath(path, "src")).replace(os.sep, ".")
        body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
        for node in body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [ast.unparse(alias) for alias in node.names]
            else:
                names = [f"line {node.lineno}: {ast.unparse(node).splitlines()[0]}"]
            found.setdefault(package, set()).update(names)
    assert found == {package: names for package, (names, _) in PACKAGE_IMPORTS.items()}



def top_level_definitions(tree):
    """The names a module binds itself at top level: defs, classes and
    assignment targets, never the names it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                part.id
                for target in targets
                for part in ast.walk(target)
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store)
            )
    return names


def test_each_relative_import_names_its_defining_module():
    """A ``from .x import name`` under src/ reads name off the module that
    defines it (see top_level_definitions), or name is a submodule of the
    package x. Reading a name off a module that only imports it fails."""
    modules = {}
    for path, tree in parsed_modules("src"):
        parts = os.path.splitext(os.path.relpath(path, "src"))[0].split(os.sep)
        module = parts[:-1] if parts[-1] == "__init__" else parts
        modules[".".join(module)] = (path, tree, ".".join(parts[:-1]))
    defined = {module: top_level_definitions(tree) for module, (_, tree, _) in modules.items()}
    wrong = []
    for path, tree, package in modules.values():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base = package.rsplit(".", node.level - 1)[0]
            source = f"{base}.{node.module}" if node.module else base
            wrong.extend(
                f"{path}:{node.lineno}: {alias.name} from {source}"
                for alias in node.names
                if alias.name not in defined.get(source, ())
                and f"{source}.{alias.name}" not in modules
            )
    assert defined and wrong == []
