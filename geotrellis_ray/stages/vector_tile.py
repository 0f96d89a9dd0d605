"""Simplified vector-tile encoding: per-SpatialKey binary tile of quantized
features (OWN deterministic codec, not Mapbox protobuf — SURVEY.md §2.1
locates the reference at ref:vectortile/src/main/scala/geotrellis/vectortile/,
L:unverified; north_rule requires an own-engine equivalent, not protobuf
compatibility).

Codec (little-endian):
    header:  magic b"GVT1" | uint16 extent(=4096) | uint32 n_features
    feature: int64 feature_id | uint8 geom_type (1=point 2=line 3=polygon)
             | uint32 n_points | n_points x (uint16 qx, uint16 qy)
Coordinates quantized to an ``extent`` x ``extent`` grid over the tile's map
extent, origin top-left (y down), clamped — matching MVT's grid convention.

Ray shape: ClipToGrid explode (stages/clip.py) keys+clips features, then
``agg.group_map`` on the key, one ``encode`` per tile group, emits one
binary row per tile.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..core import wkb
from ..core.layout import LayoutDefinition
from ..core.sfc import zorder
from ._arrow_groups import ints, views
from .agg import each_group, group_map
from .clip import clip_to_grid_batch

MAGIC = b"GVT1"
GEOM_CODE = {"Point": 1, "LineString": 2, "Polygon": 3}


def _quantize(coords: np.ndarray, ext, grid: int) -> np.ndarray:
    qx = np.clip(((coords[:, 0] - ext.xmin) / (ext.xmax - ext.xmin) * grid), 0, grid - 1).astype(np.uint16)
    qy = np.clip(((ext.ymax - coords[:, 1]) / (ext.ymax - ext.ymin) * grid), 0, grid - 1).astype(np.uint16)
    return np.column_stack([qx, qy])


def encode_tile_features(features: list[tuple[int, dict]], ext, grid: int = 4096) -> bytes:
    """features: [(feature_id, geom_dict)] sorted by id for determinism."""
    parts = [MAGIC, struct.pack("<HI", grid, len(features))]
    for fid, geom in sorted(features, key=lambda t: t[0]):
        gt = GEOM_CODE.get(geom["type"], 0)
        # geometry dicts per core/wkb.py: Point/LineString carry "coords",
        # Polygon carries "rings" (ring 0 = shell; exterior only in v1)
        if geom["type"] == "Point":
            coords = np.asarray(geom["coords"], dtype=np.float64).reshape(1, 2)
        elif geom["type"] == "LineString":
            coords = np.asarray(geom["coords"], dtype=np.float64)
        else:
            coords = np.asarray(geom["rings"][0], dtype=np.float64)
        q = _quantize(coords, ext, grid)
        parts.append(struct.pack("<qBI", fid, gt, len(q)))
        parts.append(q.astype("<u2").tobytes())
    return b"".join(parts)


def decode_tile_features(buf: bytes):
    """Inverse of encode_tile_features -> (grid, [(id, type_code, Nx2 uint16)])."""
    assert buf[:4] == MAGIC
    grid, n = struct.unpack_from("<HI", buf, 4)
    off = 10
    feats = []
    for _ in range(n):
        fid, gt, npts = struct.unpack_from("<qBI", buf, off)
        off += 13
        pts = np.frombuffer(buf, dtype="<u2", count=npts * 2, offset=off).reshape(npts, 2)
        off += npts * 4
        feats.append((fid, gt, pts))
    return grid, feats


def vector_tiles(ds, layout: LayoutDefinition, wkb_col: str = "wkb",
                 id_col: str = "polygon_id", grid: int = 4096,
                 fmt: str = "gvt", layer_name: str = "layer"):
    """Feature Dataset (id, wkb) -> vector-tile layer Dataset
    (key_col, key_row, sfc, mvt: binary, n_features).

    ``fmt="gvt"`` keeps the engine's own deterministic codec; ``fmt="mvt"``
    emits real Mapbox Vector Tile protobuf (core/mvt.py) that downstream
    renderers consume — features carry the id plus an {"id": <id>} property."""
    exploded = ds.map_batches(
        lambda b: clip_to_grid_batch(b, layout, wkb_col=wkb_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def encode_group(g: pa.Table) -> pa.Table:
        c = int(g["key_col"][0].as_py()); r = int(g["key_row"][0].as_py())
        ext = layout.key_to_extent(c, r)
        fids = ints(g, id_col)
        feats = [(int(fids[i]), wkb.decode(v))
                 for i, v in enumerate(views(g, "clipped_wkb"))]
        if fmt == "mvt":
            from ..core.mvt import encode_mvt, geom_to_mvt_parts

            mfeats = []
            for fid, geom in sorted(feats, key=lambda t: t[0]):
                gtype, parts, shells = geom_to_mvt_parts(geom, ext, grid)
                mfeats.append({"id": fid, "type": gtype, "parts": parts,
                               "shells": shells, "props": {"id": fid}})
            buf = encode_mvt({layer_name: mfeats}, extent=grid)
        else:
            buf = encode_tile_features(feats, ext, grid)
        return pa.table(
            {"key_col": pa.array([c], pa.int64()), "key_row": pa.array([r], pa.int64()),
             "sfc": pa.array([int(zorder(c, r))], pa.int64()),
             "mvt": pa.array([buf], pa.binary()),
             "n_features": pa.array([len(feats)], pa.int64())}
        )

    keys = ["key_col", "key_row"]
    return group_map(exploded, keys, each_group(keys, encode_group))
