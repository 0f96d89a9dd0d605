"""Per-batch enrichment stages: HTML->text extraction, deterministic
geocoding, spatial-key / SFC / cell-id assignment.

All stages are Arrow-in/Arrow-out ``map_batches`` functions
(``batch_format="pyarrow"``, zero-copy from the object store), vectorized via
pyarrow.compute / numpy. The ``html`` column is dropped as soon as both text
and geotag are extracted (memory discipline — SURVEY.md §4 "project early").

Replaces the reference ingest maps (SURVEY.md §3.1): CutTiles-style key
assignment re-expressed as column math, no row pairs
(ref:layer/.../MapKeyTransform.scala, ref:spark/.../tiling/ — L:unverified,
/root/reference empty at survey time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.cellid import cell_hexlike, cell_s2like
from ..core.geocode import hash_coords, url_hash64_column
from ..core.layout import LayoutDefinition, ZoomedLayoutScheme, latlng_to_key
from ..core.sfc import sfc_key
from ..core.text import extract_text_arrow

HOUR_US = 3_600_000_000


def enrich_batch(batch: pa.Table, keep_html: bool = False, verify_text: bool = False) -> pa.Table:
    """Extract text + geocode in ONE pass over the html column, then drop it.

    Adds: text (re-extracted; replaces the stored column), lat, lon,
    h (uint64 url hash). ``verify_text=True`` additionally asserts the
    byte-identity invariant against the incoming ``text`` column.
    """
    html_col = batch["html"].combine_chunks() if batch["html"].num_chunks > 1 else batch["html"]
    text = extract_text_arrow(html_col.chunk(0) if isinstance(html_col, pa.ChunkedArray) else html_col)
    if verify_text and "text" in batch.column_names:
        import pyarrow.compute as pc

        stored = pa.chunked_array([batch["text"].combine_chunks()]).cast(pa.large_string())
        eq = pc.all(pc.equal(pa.chunked_array([text]), stored))
        if not (eq.as_py() if eq.is_valid else False):
            raise AssertionError("byte-identity violation: extracted text != stored text")
    # geotag override: vectorized binary scan finds the ~10% of rows with a
    # tag; only those are materialized to Python (was: full-column to_pylist)
    import pyarrow.compute as pc

    h = url_hash64_column(batch["url"])
    lat, lon = hash_coords(h)
    arr = html_col.chunk(0) if isinstance(html_col, pa.ChunkedArray) else html_col
    mask = pc.fill_null(pc.match_substring(arr, "geo.position"), False)
    hits = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
    if len(hits):
        # vectorized override: extract both numbers with Arrow's RE2 kernel
        # over only the ~10% matching rows, then one float cast per column
        sub = arr.take(pa.array(hits, pa.int64()))
        ext = pc.extract_regex(
            sub, rb'<meta name="geo\.position" content="(?P<la>-?\d+\.\d+);(?P<lo>-?\d+\.\d+)">'
        )
        la = pc.struct_field(ext, "la").cast(pa.string()).cast(pa.float64()).to_numpy(zero_copy_only=False)
        lo = pc.struct_field(ext, "lo").cast(pa.string()).cast(pa.float64()).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(la)
        lat[hits[ok]] = la[ok]
        lon[hits[ok]] = lo[ok]
    cols = {n: batch[n] for n in batch.column_names if n not in ("text", "html")}
    cols["text"] = text
    if keep_html:
        cols["html"] = batch["html"]
    cols["lat"] = pa.array(lat, pa.float64())
    cols["lon"] = pa.array(lon, pa.float64())
    cols["h"] = pa.array(h, pa.uint64())
    return pa.table(cols)


def assign_keys_batch(
    batch: pa.Table,
    zoom: int,
    scheme: ZoomedLayoutScheme | None = None,
    layout: LayoutDefinition | None = None,
    sfc_kind: str = "zorder",
    s2_level: int | None = None,
    hex_res: int | None = None,
    ts_col: str | None = "warc_ts",
    time_bin_us: int = HOUR_US,
) -> pa.Table:
    """Add key_col, key_row (SpatialKey), sfc (shuffle/sort key) and optional
    S2-like / hex cell ids + time_bin. Pure column math — THE hot path."""
    scheme = scheme or ZoomedLayoutScheme("webmercator", 256)
    lo = layout or scheme.layout_for_zoom(zoom)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    cols_, rows_ = latlng_to_key(lat, lon, lo, scheme.crs)
    out = batch.append_column("key_col", pa.array(cols_, pa.int32()))
    out = out.append_column("key_row", pa.array(rows_, pa.int32()))
    out = out.append_column("sfc", pa.array(sfc_key(cols_, rows_, zoom, sfc_kind), pa.uint64()))
    if s2_level is not None:
        out = out.append_column("cell_s2like", pa.array(cell_s2like(lat, lon, s2_level), pa.uint64()))
    if hex_res is not None:
        out = out.append_column("cell_hexlike", pa.array(cell_hexlike(lat, lon, hex_res), pa.uint64()))
    if ts_col and ts_col in batch.column_names:
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = out.append_column("time_bin", pa.array(ts // time_bin_us, pa.int64()))
    return out
