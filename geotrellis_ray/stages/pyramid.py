"""Pyramid: zoom z -> z-1 by parent-key grouping, merging 2x2 children with a
decimating resample. Loop per level, one small shuffle per level keyed by the
parent sfc (SURVEY.md §2.5).

Re-expresses ref:spark/src/main/scala/geotrellis/spark/pyramid/Pyramid.scala
(up / upLevels, L:unverified — /root/reference empty at survey time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.raster import decode_tile, downsample_average_2x, encode_tile, is_nodata
from ..core.sfc import zorder
from ._arrow_groups import ints, one_tile, views
from .agg import each_group, group_map


def parent_keys_batch(batch: pa.Table) -> pa.Table:
    """Add parent_col/parent_row/parent_sfc (= key >> 1 on the 2^z pyramid)."""
    pc_ = batch["key_col"].to_numpy(zero_copy_only=False) >> 1
    pr = batch["key_row"].to_numpy(zero_copy_only=False) >> 1
    out = batch.append_column("parent_col", pa.array(pc_.astype(np.int32), pa.int32()))
    out = out.append_column("parent_row", pa.array(pr.astype(np.int32), pa.int32()))
    return out.append_column("parent_sfc", pa.array(zorder(pc_, pr), pa.uint64()))


def merge_children_group(g: pa.Table) -> pa.Table:
    """Merge the <=4 child tiles of one parent key: each child downsamples 2x
    into its quadrant (decimating average, NoData-aware). Arrow-native group
    assembly: cells read through zero-copy buffer views, never boxed."""
    kc, kr = ints(g, "key_col"), ints(g, "key_row")
    tcs, trs = ints(g, "cols"), ints(g, "rows")
    cts = g["cell_type"].to_pylist()
    cells_v = views(g, "cells")
    pcol, prow = int(kc[0]) >> 1, int(kr[0]) >> 1
    tc, tr = int(tcs[0]), int(trs[0])
    out = np.full((tr, tc), np.nan)
    hc, hr = tc // 2, tr // 2
    for i in range(g.num_rows):
        child = decode_tile(cells_v[i], int(tcs[i]), int(trs[i]), cts[i]).astype(np.float64)
        down = downsample_average_2x(child)
        qx = (int(kc[i]) & 1) * hc
        qy = (int(kr[i]) & 1) * hr
        dst = out[qy : qy + hr, qx : qx + hc]
        out[qy : qy + hr, qx : qx + hc] = np.where(is_nodata(dst), down, dst)
    cells, cols, rows, ct = encode_tile(out)
    return one_tile(pcol, prow, cells, cols, rows, ct)


def pyramid_up(tiles_ds):
    """One pyramid level up: tile layer at zoom z -> layer at z-1."""
    withp = tiles_ds.map_batches(parent_keys_batch, batch_format="pyarrow", zero_copy_batch=True)
    keys = ["parent_col", "parent_row"]
    return group_map(withp, keys, each_group(keys, merge_children_group))


def pyramid_up_counts(tiles_ds, count_cols=("n_docs",)):
    """Pyramid for AGGREGATE layers (no cells — per-tile counts): parent key
    + sum via partial_groupby. Parent-key cardinality is 1/4 of the child
    layer's, so its final merge is a driver or whole-block one
    (stages/agg.py picks it from the partial stream's size)."""
    from .agg import partial_groupby

    withp = tiles_ds.map_batches(parent_keys_batch, batch_format="pyarrow", zero_copy_batch=True)
    out = partial_groupby(withp, ["parent_col", "parent_row"],
                          [(c, "sum", c) for c in count_cols])
    return out.map_batches(
        lambda b: b.rename_columns(
            ["key_col" if n == "parent_col" else "key_row" if n == "parent_row" else n for n in b.column_names]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def pyramid_up_levels(tiles_ds, catalog: str, name: str, zoom: int, down_to: int = 0):
    """Pyramid.upLevels equivalent: write zoom, then iterate z -> z-1 writing
    each level to ``{catalog}/{name}/{z}/`` (SFC-sorted, bucketed) down to
    ``down_to``. One small parent-key shuffle per level; each written level
    seeds the next, so nothing is recomputed. Returns {zoom: layer_path}."""
    from ..sources.layer import read_layer, write_layer

    paths = {zoom: write_layer(tiles_ds, catalog, name, zoom)}
    cur = read_layer(catalog, name, zoom)
    for z in range(zoom - 1, down_to - 1, -1):
        cur = pyramid_up(cur)
        paths[z] = write_layer(cur, catalog, name, z)
        cur = read_layer(catalog, name, z)
    return paths
