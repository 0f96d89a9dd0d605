"""Reproject operators: vector coordinate transform and tile-layer warp
between the two corpus CRSs (latlng EPSG:4326 <-> webmercator EPSG:3857).

Vector reproject is pure column math in map_batches
(ref:vector/src/main/scala/geotrellis/vector/reproject/Reproject.scala,
L:unverified — /root/reference empty at survey time).

Layer reproject re-expresses ref:spark/.../reproject/TileRDDReproject.scala
as a Ray-native explode+merge: each source tile finds the destination keys
its extent covers, produces a PARTIAL destination tile by nearest-neighbor
sampling (dst cell centers inverse-projected into the source tile), and a
groupby(dst key) merges partials (non-NoData wins). No driver-side state;
the shuffle key is the destination SpatialKey.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.layout import Extent, LayoutDefinition
from ..core.mercator import latlng_to_webmercator, webmercator_to_latlng
from ..core.raster import INT_NODATA, decode_tile, encode_tile, merge as tile_merge
from ._arrow_groups import one_tile, views
from .agg import each_group, group_map


def _to_latlng(crs: str, xs, ys):
    """(x, y) in `crs` -> (lat, lon). Supported: latlng, webmercator,
    utm:<zone><n|s> (core/utm.py Krüger series)."""
    if crs == "latlng":
        return ys, xs
    if crs == "webmercator":
        return webmercator_to_latlng(xs, ys)
    if crs.lstrip().startswith("+"):
        from ..core.proj4 import parse_proj4

        return parse_proj4(crs.strip()).to_latlng(xs, ys)
    if crs.startswith("utm:"):
        from ..core.utm import parse_utm_crs, utm_to_latlng

        zone, south = parse_utm_crs(crs)
        return utm_to_latlng(xs, ys, zone, south)
    if crs == "epsg:27700":
        from ..core.utm import osgb_to_latlng

        return osgb_to_latlng(xs, ys)
    if crs.startswith("tmerc:"):
        from ..core.utm import parse_tmerc_crs

        return parse_tmerc_crs(crs).inverse(xs, ys)
    if crs in _conic_named() or crs.split(":")[0] in ("lcc", "aea", "stere"):
        lat, lon = _conic(crs).inverse(xs, ys)
        return lat, lon
    raise ValueError(f"unsupported crs {crs!r}")


def _conic_named():
    from ..core.conic import NAMED

    return NAMED


def _conic(crs: str):
    """Conic/polar projections (core/conic.py): named EPSG grids or generic
    lcc:/aea:/stere: parameter strings."""
    from ..core.conic import NAMED, parse_conic_crs

    if crs in NAMED:
        return NAMED[crs]()
    return parse_conic_crs(crs)


def _from_latlng(crs: str, lat, lon):
    """(lat, lon) -> (x, y) in `crs`."""
    if crs == "latlng":
        return lon, lat
    if crs == "webmercator":
        return latlng_to_webmercator(lat, lon)
    if crs.lstrip().startswith("+"):
        from ..core.proj4 import parse_proj4

        return parse_proj4(crs.strip()).from_latlng(lat, lon)
    if crs.startswith("utm:"):
        from ..core.utm import latlng_to_utm, parse_utm_crs

        zone, south = parse_utm_crs(crs)
        return latlng_to_utm(lat, lon, zone, south)
    if crs == "epsg:27700":
        from ..core.utm import latlng_to_osgb

        return latlng_to_osgb(lat, lon)
    if crs.startswith("tmerc:"):
        from ..core.utm import parse_tmerc_crs

        tm = parse_tmerc_crs(crs)
        return tm.forward(lat, lon)
    if crs in _conic_named() or crs.split(":")[0] in ("lcc", "aea", "stere"):
        return _conic(crs).forward(lat, lon)
    raise ValueError(f"unsupported crs {crs!r}")


def reproject_points_batch(batch: pa.Table, src: str, dst: str,
                           x_col: str = "lon", y_col: str = "lat",
                           out_x: str = "x", out_y: str = "y") -> pa.Table:
    """Vectorized point reproject between any two supported CRSs (latlng,
    webmercator, utm:<zone><n|s>), pivoting through latlng."""
    xs = batch[x_col].to_numpy(zero_copy_only=False)
    ys = batch[y_col].to_numpy(zero_copy_only=False)
    if src == dst:
        ox, oy = xs, ys
    else:
        lat, lon = _to_latlng(src, xs, ys)
        ox, oy = _from_latlng(dst, lat, lon)
    return batch.append_column(out_x, pa.array(np.asarray(ox, np.float64), pa.float64())) \
                .append_column(out_y, pa.array(np.asarray(oy, np.float64), pa.float64()))


def _fwd(src: str, dst: str, xs, ys):
    if (src, dst) == ("latlng", "webmercator"):
        return latlng_to_webmercator(ys, xs)
    if (src, dst) == ("webmercator", "latlng"):
        lat, lon = webmercator_to_latlng(xs, ys)
        return lon, lat
    return xs, ys


_REPROJECT_KERNEL_MARGIN = {"bilinear": 1, "cubic": 2, "cubic-spline": 2,
                            "lanczos": 3}


def reproject_layer(ds, src_layout: LayoutDefinition, dst_layout: LayoutDefinition,
                    src_crs: str, dst_crs: str, method: str = "nearest"):
    """Warp a tile layer into another CRS/layout.

    explode: src tile -> per-covered-dst-key partial tile (vectorized
    inverse sampling); shuffle: groupby dst key; merge: non-NoData wins.

    ``method`` picks the sampling kernel (GeoTrellis TileRDDReproject's
    ResampleMethod, ref:spark/.../reproject/TileRDDReproject.scala,
    L:unverified — dir empty): "nearest" (default, containing-cell gather,
    no buffering) or an interpolating kernel from core.raster.sample_points
    ("bilinear" / "cubic" / "cubic-spline" / "lanczos"). Kernel modes run
    buffer_tiles(margin=kernel radius) first so a sample near a tile seam
    sees its full support from the neighbor collar — each src tile then
    owns exactly the dst samples whose containing src cell is in its CORE,
    so overlapping producers compute identical values from the same global
    cells and the non-NoData-wins merge is deterministic. Cost: one extra
    bounded shuffle (<=9 collar pieces per tile), kernel modes only."""
    margin = 0
    if method != "nearest":
        if method not in _REPROJECT_KERNEL_MARGIN:
            raise ValueError(
                f"unknown reproject method {method!r}; have "
                f"{['nearest'] + sorted(_REPROJECT_KERNEL_MARGIN)}")
        from .layer_ops import buffer_tiles

        margin = _REPROJECT_KERNEL_MARGIN[method]
        ds = buffer_tiles(ds, margin=margin)

    def explode(batch: pa.Table) -> pa.Table:
        from ..core.raster import sample_points

        out = {"key_col": [], "key_row": [], "cells": [], "cols": [], "rows": [], "cell_type": []}
        for row in batch.to_pylist():
            a = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            if not np.issubdtype(a.dtype, np.floating):
                # int layers mark NoData with INT_NODATA; the warp output is
                # float64 and everything downstream keys NoData off NaN.
                # (Kernel modes arrive pre-converted by buffer_tiles, which
                # applies the same mapping before the collar exchange.)
                nd = a == INT_NODATA
                a = a.astype(np.float64)
                a[nd] = np.nan
            # kernel modes: ``a`` is the buffered tile; geometry (extent,
            # ownership) is the CORE region inside the margin collar
            core_rows = a.shape[0] - 2 * margin
            core_cols = a.shape[1] - 2 * margin
            src_ext = src_layout.key_to_extent(row["key_col"], row["key_row"])
            # forward-project the src extent corners to find covered dst keys
            cx = np.array([src_ext.xmin, src_ext.xmax, src_ext.xmin, src_ext.xmax])
            cy = np.array([src_ext.ymin, src_ext.ymin, src_ext.ymax, src_ext.ymax])
            fx, fy = _fwd(src_crs, dst_crs, cx, cy)
            dst_ext = Extent(float(fx.min()), float(fy.min()), float(fx.max()), float(fy.max()))
            c0, r0, c1, r1 = dst_layout.extent_to_bounds(dst_ext)
            tc, tr = dst_layout.tile_layout.tile_cols, dst_layout.tile_layout.tile_rows
            for dc in range(c0, c1 + 1):
                for drr in range(r0, r1 + 1):
                    d_ext = dst_layout.key_to_extent(dc, drr)
                    # dst cell centers -> src coords (inverse = fwd dst->src)
                    xs = d_ext.xmin + (np.arange(tc) + 0.5) * (d_ext.xmax - d_ext.xmin) / tc
                    ys = d_ext.ymax - (np.arange(tr) + 0.5) * (d_ext.ymax - d_ext.ymin) / tr
                    gx, gy = np.meshgrid(xs, ys)
                    sx, sy = _fwd(dst_crs, src_crs, gx.ravel(), gy.ravel())
                    # ownership: the containing CORE cell (both modes)
                    ic = np.floor((sx - src_ext.xmin) / (src_ext.xmax - src_ext.xmin) * core_cols).astype(np.int64)
                    ir = np.floor((src_ext.ymax - sy) / (src_ext.ymax - src_ext.ymin) * core_rows).astype(np.int64)
                    ok = (ic >= 0) & (ic < core_cols) & (ir >= 0) & (ir < core_rows)
                    tile = np.full(tr * tc, np.nan)
                    if method == "nearest":
                        tile[ok] = a[ir[ok], ic[ok]]
                    elif ok.any():
                        # fractional pixel-center coords in the BUFFERED frame
                        cellw = (src_ext.xmax - src_ext.xmin) / core_cols
                        cellh = (src_ext.ymax - src_ext.ymin) / core_rows
                        fc = (sx[ok] - src_ext.xmin) / cellw - 0.5 + margin
                        fr = (src_ext.ymax - sy[ok]) / cellh - 0.5 + margin
                        tile[ok] = sample_points(a, fr, fc, method)
                    tile = tile.reshape(tr, tc)
                    if np.isnan(tile).all():
                        continue
                    cells, cc, rr2, ct = encode_tile(tile)
                    out["key_col"].append(dc); out["key_row"].append(drr)
                    out["cells"].append(cells); out["cols"].append(cc)
                    out["rows"].append(rr2); out["cell_type"].append(ct)
        return pa.table(
            {"key_col": pa.array(out["key_col"], pa.int32()),
             "key_row": pa.array(out["key_row"], pa.int32()),
             "cells": pa.array(out["cells"], pa.binary()),
             "cols": pa.array(out["cols"], pa.int32()),
             "rows": pa.array(out["rows"], pa.int32()),
             "cell_type": pa.array(out["cell_type"], pa.string())}
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def merge_group(g: pa.Table) -> pa.Table:
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
