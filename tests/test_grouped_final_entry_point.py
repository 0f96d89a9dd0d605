"""stages/agg.py picks every grouped final from the partial-row count
(``_grouped_final``), with partial_groupby and grouped_top_k as its only
entry points. This walks the package source and fails on the ways around
them: a ``partial_groupby(..., final=...)`` call, a
``.groupby(...).aggregate(...)`` chain outside stages/agg.py, a
hand-written ``final_topk`` merge, a ``global_top_k`` copy of keyless
grouped_top_k, and a ``.sort(`` in stages/agg.py or stages/window.py
outside ``_range_sort`` (the null-safe sort) other than the unique-id sorts
of the token packers and exact_quantiles' sort of one null-free column.
It also fails on a dataset built from driver tables in stages/agg.py
outside ``_answer``, which hands it back materialized: a bare
``rd.from_arrow(...)`` answer runs a remote metadata task and starts a
second execution when it is read."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"
AGG = PKG / "stages" / "agg.py"
WINDOW = PKG / "stages" / "window.py"
SORTS_ALLOWED = {"_range_sort", "pack_token_shards", "pack_token_spans", "exact_quantiles"}
DRIVER_SOURCES = {"from_arrow", "from_arrow_refs", "from_blocks", "from_pandas", "from_items"}


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
                    and path != AGG):
                out.append(f"{site}:{node.lineno} groupby().aggregate")
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ("final_topk", "global_top_k")):
            out.append(f"{site}:{node.lineno} def {node.name}")
    return out


def _raw_sorts(path: Path) -> list[str]:
    """``.sort(`` calls of ``path`` outside the top-level functions allowed one."""
    out = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in SORTS_ALLOWED:
            continue
        out += [f"{path.name}:{node.lineno} .sort(" for node in ast.walk(fn)
                if isinstance(node, ast.Call) and _name(node.func) == "sort"
                and isinstance(node.func, ast.Attribute)]
    return out


def test_grouped_finals_go_through_agg():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _bypasses(p)]
    assert sites == [], f"call stages.agg.partial_groupby / grouped_top_k instead: {sites}"


def test_agg_sorts_go_through_range_sort():
    assert _raw_sorts(AGG) + _raw_sorts(WINDOW) == [], \
        "sort through agg._range_sort (null- and NaN-safe)"


def test_agg_driver_answers_go_through_answer():
    tree = ast.parse(AGG.read_text(), filename=str(AGG))
    sites = [f"agg.py:{node.lineno} {_name(node.func)}("
             for fn in tree.body if not (isinstance(fn, ast.FunctionDef) and fn.name == "_answer")
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _name(node.func) in DRIVER_SOURCES]
    assert sites == [], "build a driver-side answer with agg._answer (materialized)"
