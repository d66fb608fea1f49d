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


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


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
