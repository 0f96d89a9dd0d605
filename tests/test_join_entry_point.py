"""stages/join.py:spatial_join is the one engine entry point for equi-joins:
it picks broadcast or shuffle and sizes the shuffle's partitions. A direct
``Dataset.join`` elsewhere would bypass both, so this walks the package
source and fails on any ``.join(...)`` call that passes a Ray join argument
(``join_type``, ``num_partitions`` or ``on``) outside spatial_join's body."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"
RAY_JOIN_ARGS = {"join_type", "num_partitions", "on"}


def _direct_joins(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    entry = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef) and f.name == "spatial_join"]
    if path != PKG / "stages" / "join.py":
        entry = []
    return [f"{path.relative_to(PKG.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and RAY_JOIN_ARGS & {kw.arg for kw in node.keywords}
            and not any(node.lineno in r for r in entry)]


def test_dataset_join_only_in_spatial_join():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _direct_joins(p)]
    assert sites == [], f"call stages.join.spatial_join instead of Dataset.join at {sites}"
