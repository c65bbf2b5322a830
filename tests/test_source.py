"""Properties of the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # certificate checks must survive python -O, which strips asserts
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_imported_across_modules():
    # a private helper another module needs belongs in a shared module
    # under a public name, not behind a leading underscore
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hyperrank")):
                for alias in node.names:
                    imported.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append(f"{where}:{node.lineno} {alias.name}")
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names
                                if alias.name.startswith("hyperrank"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in imported and _private(node.attr)):
                found.append(f"{where}:{node.lineno} "
                             f"{node.value.id}.{node.attr}")
    assert not found, f"private names used across modules: {found}"


def test_only_the_cli_parses_json():
    # every config value passes the CLI's one input layer; a second JSON
    # reader elsewhere would grow a second set of checks
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        if where == Path("hyperrank/cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                found.append(f"{where}:{node.lineno}")
    assert not found, f"json parsed outside cli.py: {found}"
