"""stages/agg.py picks every grouped final from the partial-row count
(``_grouped_final``), with partial_groupby and grouped_top_k as its only
entry points. This walks the package source and fails on the ways around
them: a ``partial_groupby(..., final=...)`` call, a
``.groupby(...).aggregate(...)`` chain outside stages/agg.py, a
hand-written ``final_topk`` merge, a ``global_top_k`` copy of keyless
grouped_top_k, and a Dataset ``.sort(`` or ``.map_groups(`` anywhere in the
package outside ``agg.group_map`` (the one null- and NaN-safe grouping
sort) other than the allow-listed sorts in ``SORTS_ALLOWED``, each with
its reason.
It also fails on a dataset built from driver tables in stages/agg.py
outside ``_answer``, which hands it back materialized: a bare
``rd.from_arrow(...)`` answer runs a remote metadata task and starts a
second execution when it is read."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"
AGG = PKG / "stages" / "agg.py"
# (module, top-level function) -> why its raw Dataset.sort needs no null or
# NaN handling and no group_map
SORTS_ALLOWED = {
    ("stages/agg.py", "group_map"): "the grouping sort itself, on filled keys",
    ("sources/layer.py", "write_layer"): "whole-layer write order on the engine-built, non-null sfc",
    ("sources/layer.py", "update_layer"): "whole-layer write order on the engine-built, non-null sfc",
    ("stages/agg.py", "pack_token_shards"): "global order on a unique id",
    ("stages/agg.py", "pack_token_spans"): "global order on a unique id",
    ("stages/agg.py", "exact_quantiles"): "one column, nulls dropped first",
}
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


def _dataset_sort(node: ast.Call) -> bool:
    """A ``.sort(`` call that sorts a Dataset: not numpy's, and with a sort
    key (a ``list.sort(key=<lambda>)`` or an in-place ``ndarray.sort()``
    has none)."""
    if not (isinstance(node.func, ast.Attribute) and node.func.attr == "sort"):
        return False
    if isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy"):
        return False
    return bool(node.args) or any(kw.arg == "key" and not isinstance(kw.value, ast.Lambda)
                                  for kw in node.keywords)


def _raw_sorts(path: Path) -> list[str]:
    """Dataset ``.sort(`` and ``.map_groups(`` calls of ``path`` outside the
    top-level functions allowed one."""
    site = path.relative_to(PKG).as_posix()
    out = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(fn, ast.FunctionDef) and (site, fn.name) in SORTS_ALLOWED:
            continue
        out += [f"{site}:{node.lineno} .{node.func.attr}(" for node in ast.walk(fn)
                if isinstance(node, ast.Call) and (
                    _dataset_sort(node) or (isinstance(node.func, ast.Attribute)
                                            and node.func.attr == "map_groups"))]
    return out


def test_grouped_finals_go_through_agg():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _bypasses(p)]
    assert sites == [], f"call stages.agg.partial_groupby / grouped_top_k instead: {sites}"


def test_sorts_go_through_group_map():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _raw_sorts(p)]
    assert sites == [], f"group with agg.group_map (null- and NaN-safe): {sites}"


def test_agg_driver_answers_go_through_answer():
    tree = ast.parse(AGG.read_text(), filename=str(AGG))
    sites = [f"agg.py:{node.lineno} {_name(node.func)}("
             for fn in tree.body if not (isinstance(fn, ast.FunctionDef) and fn.name == "_answer")
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _name(node.func) in DRIVER_SOURCES]
    assert sites == [], "build a driver-side answer with agg._answer (materialized)"
