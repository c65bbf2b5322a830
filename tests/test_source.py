"""Properties of the source tree itself."""

import ast
import json
import sys
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


def test_qpoly_is_named_only_where_it_is_defined():
    # inside src/ a polynomial is a coefficient tuple; QPoly is the value
    # type of acceptance criterion 3, defined in poly.py and re-exported
    allowed = {Path("hyperrank/exact/poly.py"),
               Path("hyperrank/exact/__init__.py")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        if where in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ((isinstance(node, ast.Name) and node.id == "QPoly")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "QPoly")
                    or (isinstance(node, ast.alias)
                        and "QPoly" in (node.name, node.asname))):
                found.append(f"{where}:{getattr(node, 'lineno', '?')}")
    assert not found, f"QPoly named outside poly.py: {found}"


def test_qmat_storage_is_read_only_in_intmat():
    # a QMat is int rows _num over one denominator _den; every other module
    # goes through its methods or the rational view rows, so the format
    # can change in one place
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        if where == Path("hyperrank/exact/intmat.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_num",
                                                                 "_den"):
                found.append(f"{where}:{node.lineno} .{node.attr}")
    assert not found, f"QMat storage read outside intmat.py: {found}"


def test_complex_exponentials_only_in_the_phase_kernel():
    # every character value comes from an exact phase rounded once, through
    # solenoid._cis; an np.exp or a cmath elsewhere would form a phase in
    # floating point
    found, kernel = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if (where == Path("hyperrank/solenoid.py")
                    and isinstance(node, ast.FunctionDef)
                    and node.name == "_cis"):
                kernel.update(ast.walk(node))
        for node in ast.walk(tree):
            if node in kernel:
                continue
            if ((isinstance(node, ast.Attribute) and node.attr == "exp"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
                    or (isinstance(node, ast.Name) and node.id == "cmath")
                    or (isinstance(node, ast.alias)
                        and node.name.split(".")[0] == "cmath")):
                found.append(f"{where}:{getattr(node, 'lineno', '?')}")
    assert kernel, "solenoid._cis is gone"
    assert not found, f"complex exponential outside solenoid._cis: {found}"


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


# Functions and classes of src/ that no run of test_every_def_is_entered
# enters, as "module.qualified name", listed under their reason.
UNENTERED_ALLOWLIST = {
    "an error path no run takes": [
        "cli._Parser.error", "errors.CommutativityViolated.__init__",
        "errors.NoConvergence.__init__", "exact.padic._pollard_brent"],
    "__sub__'s partner, used by the reference oracles": [
        "exact.intmat.QMat.__add__"],
    "resolved by name in hyperbench/layers.py": [
        "exact.intmat.QMat.adjugate"],
    "the helper of __add__ and adjugate": ["exact.intmat.QMat.scalar"],
    "criterion 3": ["exact.newton.NewtonPolygon.valuations",
                    "exact.poly.QPoly.__init__", "exact.poly.QPoly.monomial",
                    "exact.poly.QPoly.__mul__"],
    "criterion 4": ["solenoid.TrigFunction.conjugate"],
    "criterion 7": ["nilpotent.heisenberg"],
    "criterion 8": [
        "solenoid.SolenoidPoint.dim", "solenoid.SolenoidPoint.primes",
        "solenoid.SolenoidPoint.xi_at", "solenoid.apply",
        "solenoid.apply_inverse", "solenoid._affine_step",
        "solenoid.inverse_levels", "solenoid._denominator_levels"],
    "criterion 10": [
        "solenoid.clt_check", "solenoid._orbit_sampler_bits",
        "solenoid.CltReport"],
    "ROADMAP item 9": [
        "nilpotent.derived_series", "nilpotent.automorphism_action",
        "nilpotent.bracket_inclusion_check", "nilpotent.NilStructure.bracket",
        "nilpotent._in_span", "nilpotent.BracketReport",
        "errors.SplittingNotDirect", "errors.NotAnAutomorphism"],
}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _units():
    """{(path, first line, name): (qualified name, names its body uses
    but for nested defs)} of every def in src/, the first line counting
    decorators as its code object's does; {qualified name: name} of every
    class."""
    defs, classes = {}, {}
    todo = [(ast.parse(p.read_text(), str(p)), p, ".".join(
        p.relative_to(SRC / "hyperrank").with_suffix("").parts) + ".")
        for p in sorted(SRC.rglob("*.py"))]
    while todo:
        node, path, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                classes[prefix + child.name] = child.name
            elif isinstance(child, _DEFS):
                first = min(d.lineno for d in [child, *child.decorator_list])
                defs[str(path), first, child.name] = (
                    prefix + child.name, _own_names(list(child.body)))
            else:
                todo.append((child, path, prefix))
                continue
            todo.append((child, path, f"{prefix}{child.name}."))
    return defs, classes


def _own_names(todo):
    out = set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif not isinstance(node, (*_DEFS, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return out


def _imported(tree):
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("hyperrank")
            for alias in node.names}


def test_every_def_is_entered(tmp_path, monkeypatch):
    # a def counts when a command run or a README example enters its code,
    # not when a name is spelt the same; a class, when an entered body names
    # it or the acceptance tests or an example import it.  No time judged.
    from hyperrank import cli
    from hyperrank.exact import cyclotomic
    cyclotomic.cache_clear()       # so an earlier test cannot hide a call
    monkeypatch.setattr(cli, "_parser", None)     # nor build_parser
    fixtures = SRC.parent / "fixtures"
    configs = {str(p): json.loads(p.read_text())
               for p in sorted(fixtures.glob("*.json"))}
    summary = ["--summary", str(tmp_path / "summary.json")]
    runs = [["analyze", path] for path, c in configs.items()
            if "generators" in c]
    runs += [["mixing", path, "--mc", "50", *summary]
             for path, c in configs.items() if "f" in c]
    runs += [["conjugate", path, *summary]
             for path, c in configs.items() if "perturbation" in c]
    runs.append(["crt", str(fixtures / "heisenberg_structure.json"),
                 str(fixtures / "heisenberg_targets.json")])
    examples = [block.split("```")[0] for block in (
        SRC.parent / "README.md").read_text().split("```python\n")[1:]]
    codes = set()

    def probe(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(probe)
    try:
        for argv in runs:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        for code in examples:
            exec(compile(code, "README.md", "exec"), {})
    finally:
        sys.setprofile(None)
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno,
                c.co_name) for c in codes}
    defs, classes = _units()
    named = _imported(ast.parse(
        (SRC.parent / "tests" / "test_acceptance.py").read_text())).union(
        *map(_imported, map(ast.parse, examples)),
        *(used for key, (_, used) in defs.items() if key in entered))
    unentered = {qual for key, (qual, _) in defs.items() if key not in entered}
    unentered |= {qual for qual, name in classes.items() if name not in named}
    allowed = {name for names in UNENTERED_ALLOWLIST.values()
               for name in names}
    assert unentered == allowed, "entered by no run and not allowlisted: " \
        f"{sorted(unentered - allowed)}; allowlisted but entered or gone: " \
        f"{sorted(allowed - unentered)}"
