"""state/pool.py is the one actor-pool rule: ``cluster_cpus`` is the package's
only read of the cluster's CPU count and ``actor_pool_size`` sizes every
stateful stage, so the guard below walks the package source and fails on a
second CPU read, a ``concurrency`` parameter, a ``concurrency=`` value that is
not an ``actor_pool_size(...)`` call, or a PipJoiner pool built outside
``stages.pip_join.pip_join``. None of these tests starts Ray."""

from __future__ import annotations

import ast
from pathlib import Path

import pyarrow as pa
import pytest

from geotrellis_ray.state import pool

PKG = Path(__file__).resolve().parent.parent / "geotrellis_ray"


@pytest.mark.parametrize("cpus, pip_share, scorer_share", [
    (1, 1, 1), (2, 1, 1), (4, 2, 2), (32, 8, 16)])
def test_actor_pool_size_shares(monkeypatch, cpus, pip_share, scorer_share):
    monkeypatch.setattr(pool, "cluster_cpus", lambda: cpus)
    assert pool.actor_pool_size() == pip_share
    assert pool.actor_pool_size(2) == scorer_share


def test_cluster_cpus_without_ray(monkeypatch):
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert pool.cluster_cpus() == 8


def _body_lines(tree, name: str) -> range:
    f = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == name)
    return range(f.lineno, f.end_lineno + 1)


def _pool_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(PKG.parent)
    pip_body = _body_lines(tree, "pip_join") if path == PKG / "stages" / "pip_join.py" else range(0)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg == "concurrency" or arg.arg.endswith("_concurrency"):
                    out.append(f"{rel}:{node.lineno} parameter {arg.arg}")
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        if name == "cluster_resources" and path != PKG / "state" / "pool.py":
            out.append(f"{rel}:{node.lineno} cluster_resources() outside state/pool.py")
        for kw in node.keywords:
            v = kw.value
            if kw.arg == "concurrency" and not (
                    isinstance(v, ast.Call) and getattr(v.func, "id", "") == "actor_pool_size"):
                out.append(f"{rel}:{node.lineno} concurrency={ast.unparse(v)}")
        udf = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "fn"]
        if (name == "map_batches" and any(getattr(u, "id", "") == "PipJoiner" for u in udf)
                and node.lineno not in pip_body):
            out.append(f"{rel}:{node.lineno} PipJoiner pool outside pip_join")
    return out


def test_every_actor_pool_sized_by_one_rule():
    sites = [s for p in sorted(PKG.rglob("*.py")) for s in _pool_violations(p)]
    assert sites == [], f"size actor pools with state.pool.actor_pool_size and build PIP pools with stages.pip_join.pip_join: {sites}"


def test_spec_rejects_concurrency_at_plan_time():
    from geotrellis_ray.pipelines.spec import run_spec

    sites = pa.table({"site_id": pa.array([1, 2, 3], pa.int64()),
                      "x": pa.array([-5.0, 5.0, 0.0]), "y": pa.array([-5.0, -5.0, 5.0])})
    for stage in ({"op": "join.pip", "polygons": pa.table({"polygon_id": [1]})},
                  {"op": "join.voronoi", "sites": sites, "extent": [-10, -10, 10, 10]},
                  {"op": "transform.quality_score"}):
        with pytest.raises(TypeError, match="concurrency"):
            run_spec([{**stage, "concurrency": 2}])
