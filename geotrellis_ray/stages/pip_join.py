"""Point-in-polygon spatial join — THE central stateful actor-pool stage
(BASELINE.json north_star).

Broadcast-small-side design (SURVEY.md §2.4 VectorJoin): the polygon table is
``ray.put`` once on the driver; each actor builds a
:class:`~geotrellis_ray.state.polygon_index.PolygonIndex` (STRtree + decoded
rings) in ``__init__`` — ONCE per actor, never per batch — and probes each
Arrow batch vectorized. :func:`pip_join` is the one place that builds the
pool (sized by ``state.pool.actor_pool_size``)::

    joined = pip_join(ds, polygons_table_or_ref, mode="inner")

Modes:
- ``mode="annotate"`` (default): per-page primary hit -> adds ``polygon_id``
  (-1 when no hit) + ``n_hits``; row count preserved (left-outer semantics).
- ``mode="inner"``: explode to one row per (page, polygon) hit pair.
- ``mode="semi"`` / ``"anti"``: keep only pages with >=1 / 0 hits.

Re-expresses ref:spark/src/main/scala/geotrellis/spark/join/VectorJoin.scala
(bbox prefilter then exact predicate; L:unverified — /root/reference empty at
survey time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.broadcast import get
from ..state.polygon_index import PolygonIndex
from ..state.pool import actor_pool_size


class PipJoiner:
    def __init__(self, polygons, mode: str = "annotate", lat_col: str = "lat", lon_col: str = "lon"):
        table = get(polygons)
        self.index = PolygonIndex(table)
        self.mode = mode
        self.lat_col = lat_col
        self.lon_col = lon_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        xs = batch[self.lon_col].to_numpy(zero_copy_only=False)
        ys = batch[self.lat_col].to_numpy(zero_copy_only=False)
        if self.mode == "annotate":
            pid, nhits = self.index.best_hit(xs, ys)
            return batch.append_column("polygon_id", pa.array(pid, pa.int64())).append_column(
                "n_hits", pa.array(nhits, pa.int64())
            )
        pi, bi = self.index.probe(xs, ys)
        if self.mode == "inner":
            out = batch.take(pa.array(pi, pa.int64()))
            return out.append_column("polygon_id", pa.array(self.index.ids[bi], pa.int64()))
        hit = np.zeros(len(xs), dtype=bool)
        hit[pi] = True
        keep = hit if self.mode == "semi" else ~hit
        return batch.filter(pa.array(keep))


def pip_join(ds, polygons, mode: str = "annotate", batch_size: int = 8192,
             lat_col: str = "lat", lon_col: str = "lon"):
    """Join a point Dataset against a polygon table (or an ObjectRef to one)
    through a :class:`PipJoiner` actor pool. A table is ``ray.put`` once
    here, so every actor reads the same object-store copy."""
    import ray

    ref = polygons if isinstance(polygons, ray.ObjectRef) else ray.put(polygons)
    return ds.map_batches(
        PipJoiner,
        fn_constructor_kwargs={"polygons": ref, "mode": mode,
                               "lat_col": lat_col, "lon_col": lon_col},
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=actor_pool_size(),
    )
