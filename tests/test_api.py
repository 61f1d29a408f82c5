"""The public surface: what ``lict`` exports, and where the oracles stay.

``lict/__init__.py`` exports only the library API the README documents, and
the reference oracles in ``lict.reference`` are kept out of every production
module, so the command line never loads them.  One of them is the
character-by-character lexer that ``lict.parsing``'s regex lexer is checked
against.  A production module holds only what production code reaches or
the library exports; the rest lives in ``lict.reference``.
"""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "lict")


def _tree(name: str) -> ast.Module:
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _library_section() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_every_exported_name_is_documented():
    exported = [
        alias.asname or alias.name
        for node in ast.walk(_tree("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert exported
    section = _library_section()
    missing = [name for name in exported if not re.search(rf"\b{re.escape(name)}\b", section)]
    assert missing == []


def test_cli_import_leaves_reference_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    check = "import lict.cli, sys; assert 'lict.reference' not in sys.modules"
    completed = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr


def test_cli_import_leaves_dataclasses_unloaded():
    # the node and value classes are plain slotted classes, so no import pays for dataclasses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    check = "import sys, lict.cli; sys.exit('dataclasses' in sys.modules)"
    completed = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "lict.reference" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return node.module == "lict.reference" or (
                node.module == "lict" and any(alias.name == "reference" for alias in node.names)
            )
        if node.module is None:
            return any(alias.name == "reference" for alias in node.names)
        return node.module == "reference"
    return False


def test_only_reference_holds_the_oracles():
    offenders = [
        name
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py") and name != "reference.py"
        and any(_imports_reference(node) for node in ast.walk(_tree(name)))
    ]
    assert offenders == []
    # The regex lexer and its character-by-character oracle are two functions.
    lexers = [
        name
        for name in ("parsing.py", "reference.py")
        if any(isinstance(node, ast.FunctionDef) and node.name == "tokenize" for node in _tree(name).body)
    ]
    assert lexers == ["parsing.py", "reference.py"]


def test_every_production_function_is_reached():
    # A function or method that no command reaches belongs in lict.reference
    # (or nowhere).  A top-level function counts as reached when production
    # code names it or lict exports it; a method, when production code reads
    # it as an attribute or the README's Library section calls it.
    modules = [name for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py") and name != "reference.py"]
    names, attributes, defined = set(), set(), []
    for module in modules:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}:{node.name}", node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}:{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    exported = {
        alias.asname or alias.name
        for node in ast.walk(_tree("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    library = _library_section()

    def reached(name: str, method: bool) -> bool:
        if method:
            return name in attributes or re.search(rf"\.{name}\(", library) is not None
        return name in names or name in attributes or name in exported

    assert [where for where, name, method in defined if not reached(name, method)] == []
