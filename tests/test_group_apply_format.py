"""Every ``groupby(...).map_groups(...)`` in the package hands its groups
over as Arrow tables: a pandas group apply boxes every group into a
DataFrame (4-5x the wall of the same apply on ``pa.Table`` groups). This
walks the package source and fails on a ``.map_groups(`` call that does
not pass ``batch_format="pyarrow"``."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"


def _non_arrow_group_applies(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(PKG.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_groups"
            and not any(kw.arg == "batch_format" and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "pyarrow" for kw in node.keywords)]


def test_map_groups_run_on_arrow():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _non_arrow_group_applies(p)]
    assert sites == [], f'pass batch_format="pyarrow" to map_groups at {sites}'
