"""ClipToGrid: explode each feature to its covering SpatialKeys, clipping the
geometry to every cell extent.

Semantics (locked by the reference's ClipToGridSpec pattern, re-encoded as
our own fixtures — FIXTURES.md §4):
- Point  -> the single containing key, geometry passes through un-clipped.
- LineString -> every key whose cell the line enters; clipped sub-lines.
- Polygon -> every covering key; Sutherland–Hodgman rectangle clip; when the
  cell is FULLY covered the clip degenerates to the cell rectangle (the
  reference's predicate hook "keep whole geom when fully contained" is
  represented by the ``full`` flag so consumers can skip exact work).
- Empty clips (bbox candidate but no actual intersection) emit nothing.

Ray mapping: a flat-map-style ``map_batches`` (1 row in -> >=0 rows out), no
shuffle (SURVEY.md §2.2). Re-expresses
ref:spark/src/main/scala/geotrellis/spark/clip/ClipToGrid.scala
(L:unverified — /root/reference empty at survey time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb
from ..core.geom import (
    clip_linestring_rect,
    clip_polygon_rect,
    geom_bbox,
)
from ..core.layout import Extent, LayoutDefinition


def clip_geom_to_grid(geom: dict, layout: LayoutDefinition) -> list[tuple[int, int, dict, bool]]:
    """One geometry -> [(key_col, key_row, clipped_geom, fully_covered)]."""
    out: list[tuple[int, int, dict, bool]] = []
    t = geom["type"]
    if t == "Point":
        x, y = geom["coords"][:2]
        c, r = layout.xy_to_key(x, y)
        return [(int(c), int(r), geom, False)]
    if t.startswith("Multi"):
        for part in geom["parts"]:
            out.extend(clip_geom_to_grid(part, layout))
        return out
    bbox = geom_bbox(geom)
    c0, r0, c1, r1 = layout.extent_to_bounds(Extent(*bbox))
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            cell = layout.key_to_extent(c, r)
            if t == "LineString":
                parts = clip_linestring_rect(geom["coords"], cell.xmin, cell.ymin, cell.xmax, cell.ymax)
                if len(parts) == 1:
                    out.append((c, r, {"type": "LineString", "coords": parts[0]}, False))
                elif parts:
                    out.append((c, r, {"type": "MultiLineString", "parts": [{"type": "LineString", "coords": p} for p in parts]}, False))
            elif t == "Polygon":
                shell = clip_polygon_rect(geom["rings"][0], cell.xmin, cell.ymin, cell.xmax, cell.ymax)
                if shell is None:
                    continue
                corners_x = np.array([cell.xmin, cell.xmax, cell.xmax, cell.xmin])
                corners_y = np.array([cell.ymin, cell.ymin, cell.ymax, cell.ymax])
                # cell fully covered iff clip area == cell area (cheap exact test)
                from ..core.geom import polygon_area

                full = abs(polygon_area(shell) - cell.width * cell.height) < 1e-9 * cell.width * cell.height
                rings = [shell]
                for hole in geom["rings"][1:]:
                    hc = clip_polygon_rect(hole, cell.xmin, cell.ymin, cell.xmax, cell.ymax)
                    if hc is not None:
                        rings.append(hc)
                        full = False
                out.append((c, r, {"type": "Polygon", "rings": rings}, full))
            else:
                raise ValueError(t)
    return out


def clip_to_grid_batch(batch: pa.Table, layout: LayoutDefinition, wkb_col: str = "wkb") -> pa.Table:
    """Batch explode: rows with `wkb_col` -> rows (passthrough payload cols,
    key_col, key_row, clipped_wkb, full)."""
    take_idx: list[int] = []
    kc: list[int] = []
    kr: list[int] = []
    cw: list[bytes] = []
    fl: list[bool] = []
    for i, buf in enumerate(batch[wkb_col].to_pylist()):
        g = wkb.decode(buf)
        for c, r, clipped, full in clip_geom_to_grid(g, layout):
            take_idx.append(i)
            kc.append(c)
            kr.append(r)
            cw.append(wkb.encode(clipped))
            fl.append(full)
    out = batch.take(pa.array(take_idx, pa.int64()))
    out = out.append_column("key_col", pa.array(kc, pa.int32()))
    out = out.append_column("key_row", pa.array(kr, pa.int32()))
    out = out.append_column("clipped_wkb", pa.array(cw, pa.binary()))
    out = out.append_column("full", pa.array(fl, pa.bool_()))
    return out
