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


def test_no_unused_imports_in_src():
    # a name a module imports and never uses is a leftover of some change;
    # a package's __init__.py imports to re-export, so it is exempt
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}          # bound name -> line of its import
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(SRC)}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, f"unused imports in src: {found}"


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


# Reached by no command yet; ROADMAP item 9 wires them into `analyze`.
# Public members of public classes are listed as "Class.member".
NOT_YET_WIRED = {
    "derived_series",           # ROADMAP item 9
    "automorphism_action",      # ROADMAP item 9
    "bracket_inclusion_check",  # ROADMAP item 9
    "BracketReport",            # ROADMAP item 9
    "SplittingNotDirect",       # ROADMAP item 9
    "NilStructure.bracket",     # ROADMAP item 9
}


def _imported_from_hyperrank(tree):
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("hyperrank")
            for alias in node.names}


def _names_used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _public_and_reached():
    """(module path, name) of every public function and class in src/ and
    of every public member ("Class.member") of a public class, and the
    names reached from main, the acceptance tests and the README examples.

    A module-level name is reached when a root imports it or a reached
    body uses it.  A reached class's body counts without its non-dunder
    methods; such a method is reached, as "Class.method", only when a
    reached body, the acceptance tests or a README example uses its
    name."""
    units = []                 # (name, owning class or None, names used)
    public = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_"):
                    public.append((where, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.decorator_list + node.bases
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef) or _dunder(m.name):
                        parts.append(m)
                        continue
                    units.append((m.name, node.name, _names_used(m)))
                    if not (node.name.startswith("_")
                            or m.name.startswith("_")):
                        public.append((where, f"{node.name}.{m.name}"))
            used = set().union(*map(_names_used, parts))
            units += [(name, None, used) for name in names]
    root = SRC.parent
    acceptance = ast.parse(
        (root / "tests" / "test_acceptance.py").read_text())
    examples = [ast.parse(block.split("```")[0]) for block in
                (root / "README.md").read_text().split("```python\n")[1:]]
    reached = {"main"} | _imported_from_hyperrank(acceptance)
    members = _names_used(acceptance)
    for tree in examples:
        reached |= _imported_from_hyperrank(tree)
        members |= _names_used(tree)
    done = set()
    while True:
        todo = [i for i, (name, owner, _) in enumerate(units)
                if i not in done and (
                    name in reached if owner is None else
                    owner in reached and (name in reached or name in members))]
        if not todo:
            break
        for i in todo:
            name, owner, used = units[i]
            done.add(i)
            reached |= used
            if owner is not None:
                reached.add(f"{owner}.{name}")
    return public, reached


def test_every_public_name_is_reached():
    # a public function or class that no command, no acceptance criterion
    # and no documented example reaches is dead weight in the library
    public, reached = _public_and_reached()
    # a member of an excused class is excused with it
    dead = [f"{where}:{name}" for where, name in public
            if name not in reached
            and not {name, name.split(".")[0]} & NOT_YET_WIRED]
    assert not dead, f"public names nothing reaches: {dead}"


def test_not_yet_wired_has_no_stale_entry():
    # an entry whose name is gone, or is reached now, excuses nothing
    public, reached = _public_and_reached()
    unreached = {name for _, name in public} - reached
    assert NOT_YET_WIRED <= unreached, "stale allowlist entries: " \
        f"{sorted(NOT_YET_WIRED - unreached)}"


# functools caches in src/, as "path:function".  A cache outlives the call
# that fills it, so one keyed on input values would let a repeated input
# run faster than a new one, in every benchmark pass after the first.
CACHE_ALLOWLIST = {
    "hyperrank/exact/poly.py:cyclotomic",   # keyed by the index m
}
_CACHES = ("lru_cache", "cache")


def _is_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr in _CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools")


def test_every_functools_cache_is_allowlisted():
    found, cached = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC).as_posix()
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if _is_cache(target):
                        decorators.add(target)
                        cached.add(f"{where}:{node.name}")
        for node in ast.walk(tree):
            if _is_cache(node) and node not in decorators:
                found.append(f"{where}:{node.lineno} used outside a "
                             "decorator")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "functools" and \
                    any(a.name in _CACHES for a in node.names):
                found.append(f"{where}:{node.lineno} imported by name")
    found += sorted(cached - CACHE_ALLOWLIST)
    assert not found, f"functools caches off the allowlist: {found}"
    assert cached == CACHE_ALLOWLIST, "stale allowlist entries: " \
        f"{sorted(CACHE_ALLOWLIST - cached)}"
