"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pathcycle").glob("*.py"))


def test_runtime_checks_are_explicit_raises():
    # python -O strips assert statements, and with them the check
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _called_name(call: ast.Call) -> str | None:
    return _name(call.func)


def test_every_keyword_only_parameter_is_set_by_a_caller():
    # a knob that no caller in the package or the benchmark sets is a
    # constant in disguise
    root = Path(__file__).resolve().parents[1]
    knobs = {
        (node.name, arg.arg)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
    }
    assert knobs
    set_by_callers = {
        (_called_name(node), kw.arg)
        for path in SOURCES + sorted((root / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        for kw in node.keywords
    }
    unset = sorted(f"{fn}({arg}=)" for fn, arg in knobs - set_by_callers)
    assert not unset, f"keyword-only parameters no caller sets: {unset}"


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathcycle"


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _named(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name written inside ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update({sub.name, sub.asname} - {None})
    return names


def test_no_route_calls_another():
    # the solver, the brute-force oracle and the exhaustive scan decide
    # feasibility independently.  Only direct references are checked: a
    # route that reached another through a helper would pass unnoticed.
    package_imports = [
        ast.unparse(node)
        for node in ast.walk(_tree("_certkernel"))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "pathcycle")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "pathcycle" for alias in node.names)
    ]
    assert not package_imports, f"_certkernel imports the package: {package_imports}"
    solver = {"solve", "find_f_factor", "maximum_matching", "build_gadget"}
    oracle = {"brute_force_f_factor"}
    scan = {"search_certificate", "least_violation"}
    forbidden = {
        ("factor", "brute_force_f_factor"): solver | scan,
        ("tutte", "search_certificate"): solver | oracle,
        ("factor", "find_f_factor"): oracle | scan,
        ("factor", "solve"): oracle | scan,
    }
    crossed = {}
    for (module, name), names in forbidden.items():
        (func,) = [
            node for node in _tree(module).body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        crossed[f"{module}.{name}"] = sorted(_named(func) & names)
    assert not any(crossed.values()), f"routes that name another route: {crossed}"


def test_no_function_carries_a_hidden_cache():
    # a cache must show in the bench that it pays for itself.  Only the one
    # argument parser per process did: in BENCH_14.json it took cli.run_s's
    # self time on a counterexamples pass from 0.0200 s to 0.0033 s, so
    # cli.build_parser keeps its functools.cache
    caches = {"cache", "lru_cache", "cached_property"}
    cached = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            _name(d.func if isinstance(d, ast.Call) else d) in caches
            for d in node.decorator_list
        )
    )
    assert cached == ["cli.build_parser"], f"cached functions: {cached}"


def test_every_public_definition_is_named_outside_the_tests():
    # a function or class that only tests name is a test oracle kept in the
    # package; it belongs in the tests.  The package's re-exports in
    # __init__.py name everything, so they do not count either, while a
    # string naming a definition (perfbench's table of traced spans) does
    root = PACKAGE.parents[1]
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in modules
        for node in _tree(path.stem).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert defined
    named = set()
    for path in modules + sorted((root / "demos").glob("*.py")) + sorted(
        path for path in (root / "perfbench").glob("*.py") if not path.name.startswith("test_")
    ):
        tree = ast.parse(path.read_text(), filename=str(path))
        named |= _named(tree)
        named |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    unnamed = sorted(qual for qual, name in defined.items() if name not in named)
    assert not unnamed, f"public definitions that only tests name: {unnamed}"
