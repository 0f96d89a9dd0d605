"""Raster ingest: binary grid / GeoTiff files -> (ProjectedExtent, Tile)
rows -> tileToLayout — the canonical GeoTrellis ingest flow (SURVEY.md §3.1)
from RASTER input.

Two on-disk formats:
- "GRD1" (our minimal grid: magic | 4x float64 extent | int32 cols,rows |
  float64 cells, NaN = NoData) via ``read_raster_files``;
- real GeoTiff (strip/tile, none/Deflate, predictor 1/2 — core/geotiff.py)
  via ``read_geotiffs``.
Both stream through ``ray.data.read_binary_files`` (one parse task per
file) and everything downstream is format-agnostic.

``tile_to_layout`` re-expresses CutTiles + TilerMethods.tileToLayout
(ref:spark/src/main/scala/geotrellis/spark/tiling/CutTiles.scala,
TilerMethods.scala — L:unverified, /root/reference empty at survey time):
explode each input raster into its covering layout tiles (vectorized cell
resample per tile, nearest neighbor), then ``groupby(key)`` merges
overlapping contributions first-non-NoData-wins.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..core.layout import Extent, LayoutDefinition
from ..core.raster import decode_tile, encode_tile, merge as tile_merge
from ..core.sfc import zorder
from ..stages._arrow_groups import one_tile, views
from ..stages.agg import each_group, group_map

MAGIC = b"GRD1"


def encode_grid(extent: Extent, arr: np.ndarray) -> bytes:
    rows, cols = arr.shape
    return (
        MAGIC
        + struct.pack("<4d", extent.xmin, extent.ymin, extent.xmax, extent.ymax)
        + struct.pack("<ii", cols, rows)
        + arr.astype("<f8").tobytes()
    )


def decode_grid(buf: bytes) -> tuple[Extent, np.ndarray]:
    if buf[:4] != MAGIC:
        raise ValueError("not a GRD1 grid")
    xmin, ymin, xmax, ymax = struct.unpack_from("<4d", buf, 4)
    cols, rows = struct.unpack_from("<ii", buf, 36)
    arr = np.frombuffer(buf, dtype="<f8", count=cols * rows, offset=44).reshape(rows, cols)
    return Extent(xmin, ymin, xmax, ymax), arr


def read_raster_files(path: str):
    """Directory of .grd files -> Dataset (xmin, ymin, xmax, ymax, cells,
    cols, rows, cell_type) — the RDD[(ProjectedExtent, Tile)] equivalent."""
    import ray.data

    ds = ray.data.read_binary_files(path, file_extensions=["grd"], include_paths=True)

    def parse(batch: pa.Table) -> pa.Table:
        xs0, ys0, xs1, ys1, cells, cc, rr = [], [], [], [], [], [], []
        for buf in batch["bytes"].to_pylist():
            ext, arr = decode_grid(buf)
            e, c, r, _ct = encode_tile(arr)
            xs0.append(ext.xmin); ys0.append(ext.ymin); xs1.append(ext.xmax); ys1.append(ext.ymax)
            cells.append(e); cc.append(c); rr.append(r)
        return pa.table(
            {"src": batch["path"],
             "xmin": pa.array(xs0, pa.float64()), "ymin": pa.array(ys0, pa.float64()),
             "xmax": pa.array(xs1, pa.float64()), "ymax": pa.array(ys1, pa.float64()),
             "cells": pa.array(cells, pa.binary()), "cols": pa.array(cc, pa.int32()),
             "rows": pa.array(rr, pa.int32()),
             "cell_type": pa.array(["float64"] * len(cells), pa.string())}
        )

    return ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)


def _cut_one(ext: Extent, arr: np.ndarray, layout: LayoutDefinition):
    """Yield (key_col, key_row, tile) pieces of one raster resampled onto the
    layout grid (nearest neighbor on cell centers)."""
    c0, r0, c1, r1 = layout.extent_to_bounds(ext)
    tc = layout.tile_layout.tile_cols
    tr = layout.tile_layout.tile_rows
    for kc in range(c0, c1 + 1):
        for kr in range(r0, r1 + 1):
            cell_ext = layout.key_to_extent(kc, kr)
            xs = cell_ext.xmin + (np.arange(tc) + 0.5) * (cell_ext.xmax - cell_ext.xmin) / tc
            ys = cell_ext.ymax - (np.arange(tr) + 0.5) * (cell_ext.ymax - cell_ext.ymin) / tr
            ic = np.floor((xs - ext.xmin) / (ext.xmax - ext.xmin) * arr.shape[1]).astype(np.int64)
            ir = np.floor((ext.ymax - ys) / (ext.ymax - ext.ymin) * arr.shape[0]).astype(np.int64)
            okc = (ic >= 0) & (ic < arr.shape[1])
            okr = (ir >= 0) & (ir < arr.shape[0])
            tile = np.full((tr, tc), np.nan)
            if okc.any() and okr.any():
                sub = arr[np.ix_(ir[okr], ic[okc])]
                tile[np.ix_(okr, okc)] = sub
            if np.isnan(tile).all():
                continue
            yield kc, kr, tile


def read_geotiffs(path: str):
    """Directory of .tif/.tiff files -> Dataset (src, xmin..ymax, cells,
    cols, rows, cell_type, epsg) — same row shape as ``read_raster_files``
    (plus epsg), so ``tile_to_layout`` composes directly."""
    import ray.data

    from ..core.geotiff import decode_geotiff

    ds = ray.data.read_binary_files(path, file_extensions=["tif", "tiff"], include_paths=True)

    def parse(batch: pa.Table) -> pa.Table:
        out = {"src": [], "xmin": [], "ymin": [], "xmax": [], "ymax": [],
               "cells": [], "cols": [], "rows": [], "cell_type": [], "epsg": []}
        for p, buf in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            ext, arr, meta = decode_geotiff(buf)
            e, c, r, _ct = encode_tile(arr)
            out["src"].append(p)
            out["xmin"].append(ext.xmin); out["ymin"].append(ext.ymin)
            out["xmax"].append(ext.xmax); out["ymax"].append(ext.ymax)
            out["cells"].append(e); out["cols"].append(c); out["rows"].append(r)
            out["cell_type"].append("float64")
            out["epsg"].append(meta["epsg"] if meta["epsg"] is not None else -1)
        return pa.table(
            {"src": pa.array(out["src"], pa.string()),
             "xmin": pa.array(out["xmin"], pa.float64()), "ymin": pa.array(out["ymin"], pa.float64()),
             "xmax": pa.array(out["xmax"], pa.float64()), "ymax": pa.array(out["ymax"], pa.float64()),
             "cells": pa.array(out["cells"], pa.binary()), "cols": pa.array(out["cols"], pa.int32()),
             "rows": pa.array(out["rows"], pa.int32()),
             "cell_type": pa.array(out["cell_type"], pa.string()),
             "epsg": pa.array(out["epsg"], pa.int32())}
        )

    return ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)


def write_geotiffs(ds, out_dir: str, layout: LayoutDefinition, epsg: int = 4326,
                   compression: str = "deflate", cog: bool = False,
                   cog_min_size: int = 64):
    """Tile-layer Dataset -> one GeoTiff per tile under ``out_dir``
    (``z{key_col}_{key_row}.tif``) — a resumable partitioned sink (re-running
    overwrites per-tile files idempotently; no single giant file). Returns
    the count of written tiles. ``cog=True`` writes each file as a
    Cloud-Optimized GeoTiff (core/geotiff.encode_cog): headers-first
    multi-IFD layout with a 2x-average overview chain down to
    ``cog_min_size`` (GeoTrellis COGLayerWriter parity —
    ref:spark/.../store/cog/COGLayerWriter.scala, L:unverified)."""
    import os

    from ..core.geotiff import encode_cog, encode_geotiff

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        n = 0
        for row in batch.to_pylist():
            arr = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            ext = layout.key_to_extent(int(row["key_col"]), int(row["key_row"]))
            if cog:
                buf = encode_cog(ext, arr, epsg=epsg, compression=compression,
                                 tile_size=min(256, int(row["cols"])),
                                 min_size=cog_min_size)
            else:
                buf = encode_geotiff(ext, arr, epsg=epsg, compression=compression,
                                     tile_size=min(256, int(row["cols"])))
            path = os.path.join(out_dir, f"z{row['key_col']}_{row['key_row']}.tif")
            with open(path + ".tmp", "wb") as f:
                f.write(buf)
            os.replace(path + ".tmp", path)
            n += 1
        return pa.table({"written": pa.array([n], pa.int64())})

    out = ds.map_batches(write_batch, batch_format="pyarrow", zero_copy_batch=True)
    return int(sum(r["written"] for r in out.take_all()))


def tile_to_layout(rasters_ds, layout: LayoutDefinition):
    """(ProjectedExtent, Tile) Dataset -> tile layer Dataset. Explode
    (flat map_batches, no state) then groupby(key) merge — shuffle key is
    the SpatialKey, merge = first-non-NoData-wins (CutTiles semantics)."""

    def explode(batch: pa.Table) -> pa.Table:
        out = {"src": [], "key_col": [], "key_row": [], "cells": [], "cols": [], "rows": [], "cell_type": []}
        for row in batch.to_pylist():
            ext = Extent(row["xmin"], row["ymin"], row["xmax"], row["ymax"])
            arr = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            for kc, kr, tile in _cut_one(ext, arr, layout):
                cells, c, r, ct = encode_tile(tile)
                out["src"].append(row.get("src", ""))
                out["key_col"].append(kc); out["key_row"].append(kr)
                out["cells"].append(cells); out["cols"].append(c)
                out["rows"].append(r); out["cell_type"].append(ct)
        return pa.table(
            {"src": pa.array(out["src"], pa.string()),
             "key_col": pa.array(out["key_col"], pa.int32()),
             "key_row": pa.array(out["key_row"], pa.int32()),
             "cells": pa.array(out["cells"], pa.binary()),
             "cols": pa.array(out["cols"], pa.int32()),
             "rows": pa.array(out["rows"], pa.int32()),
             "cell_type": pa.array(out["cell_type"], pa.string())}
        )

    exploded = rasters_ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def merge_group(g: pa.Table) -> pa.Table:
        # deterministic merge order regardless of shuffle arrival: by source
        if "src" in g.column_names:
            g = g.sort_by("src")
        cols = int(g["cols"][0].as_py()); rows = int(g["rows"][0].as_py())
        ct = g["cell_type"][0].as_py()
        cv = views(g, "cells")
        out = decode_tile(cv[0], cols, rows, ct)
        for i in range(1, g.num_rows):
            out = tile_merge(out, decode_tile(cv[i], cols, rows, ct))
        c = int(g["key_col"][0].as_py()); r = int(g["key_row"][0].as_py())
        cells, cc, rr, ct2 = encode_tile(out)
        return one_tile(c, r, cells, cc, rr, ct2)

    keys = ["key_col", "key_row"]
    return group_map(exploded, keys, each_group(keys, merge_group))
