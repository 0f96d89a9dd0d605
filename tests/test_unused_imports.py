"""Lint: no unused import anywhere in the package. An import counts as used
when its bound name appears in the scope that imports it (the module, or the
function and everything nested in it), including names inside quoted
annotations. A line marked ``# noqa`` (re-exports, side-effect imports) and
imports under ``if TYPE_CHECKING:`` are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _names(scope: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(scope):
        if isinstance(n, ast.Name):
            out.add(n.id)
        for ann in (getattr(n, "annotation", None), getattr(n, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                expr = ast.parse(ann.value, mode="eval")
                out |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return out


def _unused(path: Path) -> list[str]:
    src = path.read_text()
    lines = src.splitlines()
    tree = ast.parse(src, filename=str(path))
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    type_checking = {id(m) for n in ast.walk(tree)
                     if isinstance(n, ast.If) and "TYPE_CHECKING" in ast.unparse(n.test)
                     for m in ast.walk(n)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in type_checking:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        scope = parent[node]
        while not isinstance(scope, SCOPES):
            scope = parent[scope]
        used = _names(scope)
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                out.append(f"{path.relative_to(PKG.parent)}:{node.lineno} {bound}")
    return out


def test_no_unused_imports_in_package():
    unused = [s for p in sorted(PKG.rglob("*.py")) for s in _unused(p)]
    assert unused == [], f"unused imports: {unused}"
