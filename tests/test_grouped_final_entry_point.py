"""stages/agg.py picks every grouped final from the partial-row count
(``_grouped_final``), with partial_groupby and grouped_top_k as its only
entry points. This walks the package source and fails on the three ways
around them: a ``partial_groupby(..., final=...)`` call, a
``.groupby(...).aggregate(...)`` chain outside stages/agg.py, and a
hand-written ``final_topk`` merge."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"


def _name(func: ast.expr) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _bypasses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    site = f"{path.relative_to(PKG.parent)}"
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name == "partial_groupby" and any(kw.arg == "final" for kw in node.keywords):
                out.append(f"{site}:{node.lineno} partial_groupby(final=)")
            if (name == "aggregate" and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Call)
                    and _name(node.func.value.func) == "groupby"
                    and path != PKG / "stages" / "agg.py"):
                out.append(f"{site}:{node.lineno} groupby().aggregate")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "final_topk":
            out.append(f"{site}:{node.lineno} def final_topk")
    return out


def test_grouped_finals_go_through_agg():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _bypasses(p)]
    assert sites == [], f"call stages.agg.partial_groupby / grouped_top_k instead: {sites}"
