"""GeoParquet 1.0.0 vector sink/source (public spec:
github.com/opengeospatial/geoparquet) — WKB geometry columns in ordinary
Parquet plus the ``geo`` file-metadata key. This is the engine's NATIVE
vector interchange format (north_rule: Parquet is the only store), the
counterpart of GeoTrellis's GeoTools-mediated vector IO
(ref:geotools/src/main/scala/geotrellis/geotools/, L:unverified — dir
empty; GeoTrellis itself predates GeoParquet).

The sink attaches the ``geo`` metadata to every block's Arrow schema —
Ray's write_parquet carries schema metadata into each file footer
(verified on ray 2.49) — and computes ``geometry_types`` + ``bbox`` with
one cheap pre-pass over the WKB type words / coords. The source validates
the footer metadata and returns the ordinary streaming Dataset.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import struct

import numpy as np
import pyarrow as pa

_WKB_TYPE_NAMES = {1: "Point", 2: "LineString", 3: "Polygon",
                   4: "MultiPoint", 5: "MultiLineString", 6: "MultiPolygon",
                   7: "GeometryCollection"}


def _batch_geo_stats(b: pa.Table, wkb_col: str) -> pa.Table:
    """Per-batch partial: distinct WKB type names + bbox; no rows for a
    batch with no rows (its bounds would be +-inf, which JSON cannot hold)."""
    from . import wkb as wkb_mod

    if b.num_rows == 0:
        return pa.table({"types": pa.array([], pa.string()),
                         **{c: pa.array([], pa.float64()) for c in ("xmin", "ymin", "xmax", "ymax")}})
    types: set[str] = set()
    xmin = ymin = np.inf
    xmax = ymax = -np.inf
    for v in b[wkb_col].to_pylist():
        t, = struct.unpack_from("<I", v, 1)
        types.add(_WKB_TYPE_NAMES.get(t & 0xFF, f"Unknown({t})"))
        g = wkb_mod.decode(v)
        coords = (g["coords"].reshape(-1, 2) if "coords" in g
                  else np.concatenate([r for r in g["rings"]]) if "rings" in g
                  else np.concatenate([r for p in g["parts"]
                                       for r in (p["rings"] if "rings" in p
                                                 else [p["coords"].reshape(-1, 2)])]))
        xmin = min(xmin, coords[:, 0].min()); xmax = max(xmax, coords[:, 0].max())
        ymin = min(ymin, coords[:, 1].min()); ymax = max(ymax, coords[:, 1].max())
    return pa.table({"types": pa.array([json.dumps(sorted(types))], pa.string()),
                     "xmin": pa.array([float(xmin)]), "ymin": pa.array([float(ymin)]),
                     "xmax": pa.array([float(xmax)]), "ymax": pa.array([float(ymax)])})


def geo_metadata(wkb_col: str, geometry_types: list[str],
                 bbox: list[float] | None) -> dict:
    col: dict = {"encoding": "WKB", "geometry_types": geometry_types}
    if bbox is not None:
        col["bbox"] = bbox
    # crs omitted = OGC:CRS84 (lon/lat) per the GeoParquet spec
    return {"version": "1.0.0", "primary_column": wkb_col,
            "columns": {wkb_col: col}}


def write_geoparquet(ds, path: str, wkb_col: str = "wkb") -> dict:
    """Write a Dataset with a WKB geometry column as GeoParquet. Two passes:
    a cheap stats pass (type words + bbox partials, one tiny row per block)
    and the write itself with the ``geo`` metadata stamped on every block's
    schema. Returns the metadata dict."""
    stats = ds.map_batches(lambda b: _batch_geo_stats(b, wkb_col),
                           batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if len(stats):
        types = sorted({t for row in stats["types"] for t in json.loads(row)})
        bbox = [float(stats["xmin"].min()), float(stats["ymin"].min()),
                float(stats["xmax"].max()), float(stats["ymax"].max())]
    else:
        types, bbox = [], None
    meta = geo_metadata(wkb_col, types, bbox)
    blob = json.dumps(meta, sort_keys=True).encode()

    def stamp(b: pa.Table) -> pa.Table:
        md = dict(b.schema.metadata or {})
        md[b"geo"] = blob
        return b.replace_schema_metadata(md)

    os.makedirs(path, exist_ok=True)
    ds.map_batches(stamp, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(path)
    return meta


def read_geoparquet_metadata(path: str) -> dict:
    """The ``geo`` metadata from the first file footer under ``path``."""
    import pyarrow.parquet as pq

    files = sorted(_glob.glob(os.path.join(path, "*.parquet"))) \
        if os.path.isdir(path) else [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    md = pq.read_schema(files[0]).metadata or {}
    if b"geo" not in md:
        raise ValueError(f"{files[0]} has no GeoParquet 'geo' metadata")
    return json.loads(md[b"geo"])


def read_geoparquet(path: str, columns: list[str] | None = None):
    """Validate the GeoParquet footer metadata, then stream the files as an
    ordinary ``read_parquet`` Dataset (column pruning and row-group
    pushdown unchanged)."""
    import ray.data

    meta = read_geoparquet_metadata(path)
    prim = meta["primary_column"]
    if meta["columns"][prim]["encoding"] != "WKB":
        raise ValueError(f"unsupported geometry encoding "
                         f"{meta['columns'][prim]['encoding']!r} (WKB only)")
    return ray.data.read_parquet(path, columns=columns)
