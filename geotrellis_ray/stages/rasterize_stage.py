"""RasterizeRDD equivalent: burn a geometry table into a keyed tile layer.

Shape (SURVEY.md §2.5): ClipToGrid-style explode (map_batches, no shuffle)
-> ``agg.group_map`` on the key, one ``paint`` per tile group, where paint is the numpy cell-center
scanline fill in deterministic z-index/value priority order (z tie -> larger
value wins — OUR spec, FIXTURES.md §4). Salting applies per (key, salt) with
an associative tile ``merge`` afterwards when a key is hot — paint order
independence is guaranteed by the priority rule, proven by tests.

Re-expresses ref:spark/src/main/scala/geotrellis/spark/rasterize/RasterizeRDD.scala
(fromGeometry / fromFeatureWithZIndex, L:unverified — /root/reference empty
at survey time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb
from ..core.layout import LayoutDefinition
from ..core.raster import encode_tile, rasterize_value
from ..core.sfc import zorder
from ._arrow_groups import ints, one_tile, tile_table, views
from .agg import each_group, group_map
from .clip import clip_to_grid_batch

_KEYS = ["key_col", "key_row"]


def _group_geoms(g: pa.Table) -> list[tuple[dict, int, float]]:
    """(geometry, zindex, value) triples of one group — clipped_wkb decoded
    straight off zero-copy Arrow buffer views."""
    zs = ints(g, "zindex")
    vals = ints(g, "value")
    return [(wkb.decode(v), int(zs[i]), float(vals[i]))
            for i, v in enumerate(views(g, "clipped_wkb"))]


def paint_group(g: pa.Table, layout: LayoutDefinition) -> pa.Table:
    """Paint all clipped geometries of ONE SpatialKey into one tile."""
    c = int(g["key_col"][0].as_py())
    r = int(g["key_row"][0].as_py())
    cell = layout.key_to_extent(c, r)
    geoms = _group_geoms(g)
    tile = rasterize_value(geoms, cell, layout.tile_layout.tile_cols, layout.tile_layout.tile_rows)
    if np.isnan(tile).all():
        # bbox/clip candidate but no cell CENTER inside — emit no tile
        # (all-NoData tiles are not part of the layer)
        return tile_table(None)
    cells, cols, rows, ct = encode_tile(tile)
    return one_tile(c, r, cells, cols, rows, ct)


def paint_group_salted(g: pa.Table, layout: LayoutDefinition) -> pa.Table:
    """Paint ONE (key, salt) shard; keeps the per-cell z plane so shards
    merge associatively (core.raster.zmerge)."""
    from ..core.raster import rasterize_value as rv

    c = int(g["key_col"][0].as_py())
    r = int(g["key_row"][0].as_py())
    cell = layout.key_to_extent(c, r)
    geoms = _group_geoms(g)
    tile, zbuf = rv(geoms, cell, layout.tile_layout.tile_cols, layout.tile_layout.tile_rows,
                    return_zbuf=True)
    cells, cols, rows, ct = encode_tile(tile)
    zcells, _, _, _ = encode_tile(zbuf)
    return pa.table(
        {"key_col": pa.array([c], pa.int64()), "key_row": pa.array([r], pa.int64()),
         "cells": pa.array([cells], pa.binary()), "zcells": pa.array([zcells], pa.binary()),
         "cols": pa.array([cols], pa.int64()), "rows": pa.array([rows], pa.int64()),
         "cell_type": pa.array([ct], pa.string())}
    )


def rasterize_features(ds, layout: LayoutDefinition, wkb_col: str = "wkb",
                       salt_k: int = 0, hot_threshold: float = 4.0, salt_sample: float = 0.2):
    """Geometry Dataset (wkb, zindex, value, ...) -> tile layer Dataset
    (key_col, key_row, sfc, cells, cols, rows, cell_type).

    ``salt_k > 0`` enables salt-and-split for hot keys (dense urban cells,
    SURVEY.md §4): geometry counts per key are measured on a sample, hot keys
    paint per (key, salt=hash(geometry) % k) with a z-buffer, and an
    associative per-cell zmerge collapses the shards — the non-mergeable-op
    salting pattern the north_rule mandates."""
    exploded = ds.map_batches(
        lambda b: clip_to_grid_batch(b, layout, wkb_col=wkb_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if salt_k <= 0:
        return group_map(exploded, _KEYS, each_group(_KEYS, lambda g: paint_group(g, layout)))

    from ..core.raster import decode_tile, zmerge
    from .tile_agg import measure_hot_keys

    exploded = exploded.map_batches(
        lambda b: b.append_column(
            "kz", pa.array(zorder(b["key_col"].to_numpy(zero_copy_only=False).astype(np.uint64),
                                  b["key_row"].to_numpy(zero_copy_only=False).astype(np.uint64)), pa.uint64())
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    hot = measure_hot_keys(exploded, "kz", threshold_factor=hot_threshold, sample=salt_sample)
    hot_arr = np.fromiter(hot, dtype=np.uint64, count=len(hot)) if hot else np.empty(0, np.uint64)

    def salt_batch(b: pa.Table) -> pa.Table:
        kz = b["kz"].to_numpy(zero_copy_only=False)
        # deterministic geometry-content hash (crc32 — process-independent,
        # unlike hash()) so a hot key's geoms spread over k shards
        import zlib

        gh = np.fromiter((zlib.crc32(v) for v in b["clipped_wkb"].to_pylist()),
                         dtype=np.int64, count=b.num_rows)
        salt = np.where(np.isin(kz, hot_arr), gh % salt_k, 0).astype(np.int32)
        return b.append_column("salt", pa.array(salt, pa.int32()))

    salted = exploded.map_batches(salt_batch, batch_format="pyarrow", zero_copy_batch=True)
    shard_keys = _KEYS + ["salt"]
    shards = group_map(salted, shard_keys,
                       each_group(shard_keys, lambda g: paint_group_salted(g, layout)))

    def zmerge_group(g: pa.Table) -> pa.Table:
        cols = int(g["cols"][0].as_py()); rows = int(g["rows"][0].as_py())
        ct = g["cell_type"][0].as_py()
        cv, zv = views(g, "cells"), views(g, "zcells")
        out = decode_tile(cv[0], cols, rows, ct)
        zb = decode_tile(zv[0], cols, rows, ct)
        for i in range(1, g.num_rows):
            out, zb = zmerge(out, zb, decode_tile(cv[i], cols, rows, ct),
                             decode_tile(zv[i], cols, rows, ct))
        if np.isnan(out).all():
            return tile_table(None)
        c = int(g["key_col"][0].as_py()); r = int(g["key_row"][0].as_py())
        cells, cc, rr, ct2 = encode_tile(out)
        return one_tile(c, r, cells, cc, rr, ct2)

    return group_map(shards, _KEYS, each_group(_KEYS, zmerge_group))
