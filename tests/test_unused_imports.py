"""Every name a module under ``src/repro`` imports is read somewhere in
that module, or listed in its ``__all__``.

No linter runs here, so this is the check: the stdlib ``ast`` module,
one parse per file. A name counts as read when it appears as a loaded
name, including inside a string annotation.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _string_annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [node.returns] + [
                arg.annotation for arg in (
                    args.posonlyargs + args.args + args.kwonlyargs
                    + [args.vararg, args.kwarg]) if arg is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    yield sub.value


def unused_imports(source):
    """``(line, name)`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for text in _string_annotations(tree):
        read |= {node.id for node in ast.walk(ast.parse(text, mode="eval"))
                 if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, json\n"
              "from typing import Dict, List\n"
              "from a import b as c, d\n"
              "__all__ = ['d']\n"
              "def f(x: 'Dict[str, int]') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(2, "json"), (3, "List"), (4, "c")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
