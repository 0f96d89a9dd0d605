"""ESRI Shapefile codec, from spec (.shp / .shx geometry + .dbf dBase III
attributes) — the GeoTrellis ShapeFileReader equivalent
(ref:shapefile/src/main/scala/geotrellis/shapefile/ShapeFileReader.scala,
L:unverified — /root/reference empty at survey time; GeoTrellis wraps
GeoTools, this is a from-spec reimplementation of the format itself:
"ESRI Shapefile Technical Description", July 1998).

Scope: the survey's external-STORE connectors (Accumulo/Cassandra/HBase/
GeoMesa) remain a north_rule non-goal; Shapefile is a sibling FILE format
like GeoTiff/GeoJSON and gets the same treatment — a real codec plus a
distributed source (one parse task per .shp, attributes from the paired
.dbf). Shape types: Null(0), Point(1), PolyLine(3), Polygon(5),
MultiPoint(8). Z/M variants raise (same stance as exotic TIFF codecs).

Geometry dict convention matches core/wkb.py. Polygon ring orientation per
the spec: outer rings clockwise (signed area < 0 with y up), holes
counter-clockwise; the writer normalizes, the reader groups each CCW ring
with the first CW shell whose bbox contains it (record order fallback).
Coordinates are IEEE little-endian doubles — dyadic fixtures round-trip
bit-exactly, which is what lets the source sit inside a SQL-checked chain.
"""

from __future__ import annotations

import os
import struct

import numpy as np

SHP_NULL, SHP_POINT, SHP_POLYLINE, SHP_POLYGON, SHP_MULTIPOINT = 0, 1, 3, 5, 8


def _signed_area2(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _ensure_cw(ring: np.ndarray) -> np.ndarray:
    return ring[::-1] if _signed_area2(ring) > 0 else ring


def _ensure_ccw(ring: np.ndarray) -> np.ndarray:
    return ring[::-1] if _signed_area2(ring) < 0 else ring


def _geom_shape_type(geom: dict) -> int:
    t = geom["type"]
    return {"Point": SHP_POINT, "LineString": SHP_POLYLINE,
            "MultiLineString": SHP_POLYLINE, "Polygon": SHP_POLYGON,
            "MultiPolygon": SHP_POLYGON, "MultiPoint": SHP_MULTIPOINT}[t]


def _geom_record(geom: dict, shape_type: int) -> bytes:
    """Record CONTENT (shape type int32 LE + body) for one geometry."""
    t = geom["type"]
    if t == "Point":
        x, y = np.asarray(geom["coords"], dtype=np.float64).ravel()[:2]
        return struct.pack("<idd", SHP_POINT, x, y)
    if t == "MultiPoint":
        pts = np.asarray(geom["coords"], dtype=np.float64).reshape(-1, 2)
        return (struct.pack("<i4di", SHP_MULTIPOINT,
                            pts[:, 0].min(), pts[:, 1].min(),
                            pts[:, 0].max(), pts[:, 1].max(), len(pts))
                + pts.astype("<f8").tobytes())
    if t in ("LineString", "MultiLineString"):
        parts = ([np.asarray(geom["coords"], np.float64)] if t == "LineString"
                 else [np.asarray(p["coords"], np.float64) for p in geom["parts"]])
    else:  # Polygon / MultiPolygon
        parts = []
        polys = [geom] if t == "Polygon" else geom["parts"]
        for poly in polys:
            rings = [np.asarray(r, np.float64) for r in poly["rings"]]
            parts.append(_ensure_cw(rings[0]))
            parts.extend(_ensure_ccw(r) for r in rings[1:])
    allp = np.concatenate(parts)
    offs, n = [], 0
    for p in parts:
        offs.append(n)
        n += len(p)
    return (struct.pack("<i4dii", shape_type,
                        allp[:, 0].min(), allp[:, 1].min(),
                        allp[:, 0].max(), allp[:, 1].max(),
                        len(parts), n)
            + np.asarray(offs, "<i4").tobytes()
            + allp.astype("<f8").tobytes())


def _dbf_field_spec(name: str, values: list):
    if all(isinstance(v, (int, np.integer)) for v in values):
        kind, cap, dec, enc = "N", 18, 0, [str(int(v)) for v in values]
    elif all(isinstance(v, (int, float, np.floating, np.integer)) for v in values):
        kind, cap, dec, enc = "F", 20, 11, [repr(float(v)) for v in values]
    else:
        kind, cap, dec, enc = "C", 254, 0, [str(v) for v in values]
    width = max([1] + [len(e.encode("ascii", "replace")) for e in enc])
    if width > cap:
        # a wider value would shift every later field and record
        raise ValueError(f"dbf field {name!r}: a value needs {width} characters, "
                         f"over the {cap}-character cap of a {kind} field")
    pad = str.ljust if kind == "C" else str.rjust
    return (name, kind, width, dec, [pad(e, width) for e in enc])


def write_shapefile(base: str, geoms: list[dict],
                    fields: dict[str, list] | None = None) -> None:
    """Write ``base``.shp / .shx / .dbf. ``geoms``: wkb-dict geometries of a
    single shape class; ``fields``: column -> per-record values (int exact,
    str ASCII; float via repr — ASCII round-trip, use ints for bit-exact
    chains). Fixture/sink-grade: one file set per call — write per-shard
    files from map_batches for a distributed sink."""
    st = _geom_shape_type(geoms[0]) if geoms else SHP_NULL
    contents = [_geom_record(g, st) for g in geoms]

    xs, ys = [], []
    for g in geoms:
        if g["type"] == "Point":
            c = np.asarray(g["coords"], np.float64).reshape(-1, 2)
        elif "coords" in g:
            c = np.asarray(g["coords"], np.float64).reshape(-1, 2)
        elif g["type"] == "Polygon":
            c = np.concatenate([np.asarray(r, np.float64) for r in g["rings"]])
        else:
            c = np.concatenate([np.asarray(r, np.float64)
                                for p in g["parts"]
                                for r in (p["rings"] if "rings" in p else [p["coords"]])])
        xs.append(c[:, 0])
        ys.append(c[:, 1])
    ax = np.concatenate(xs) if xs else np.zeros(1)
    ay = np.concatenate(ys) if ys else np.zeros(1)

    def header(total_words: int) -> bytes:
        return (struct.pack(">i5ii", 9994, 0, 0, 0, 0, 0, total_words)
                + struct.pack("<ii", 1000, st)
                + struct.pack("<8d", ax.min(), ay.min(), ax.max(), ay.max(),
                              0.0, 0.0, 0.0, 0.0))

    shp_words = 50 + sum(4 + len(c) // 2 for c in contents)
    with open(base + ".shp", "wb") as f:
        f.write(header(shp_words))
        for i, c in enumerate(contents):
            f.write(struct.pack(">ii", i + 1, len(c) // 2))
            f.write(c)
    with open(base + ".shx", "wb") as f:
        f.write(header(50 + 4 * len(contents)))
        off = 50
        for c in contents:
            f.write(struct.pack(">ii", off, len(c) // 2))
            off += 4 + len(c) // 2

    fields = fields or {}
    specs = [_dbf_field_spec(k, list(v)) for k, v in fields.items()]
    rec_size = 1 + sum(s[2] for s in specs)
    hdr_size = 32 + 32 * len(specs) + 1
    with open(base + ".dbf", "wb") as f:
        f.write(struct.pack("<B3BIHH20x", 0x03, 95, 7, 26, len(geoms),
                            hdr_size, rec_size))
        for name, typ, width, dec, _enc in specs:
            f.write(struct.pack("<11sc4xBB14x", name.encode("ascii")[:11],
                                typ.encode("ascii"), width, dec))
        f.write(b"\x0d")
        for i in range(len(geoms)):
            f.write(b" ")
            for _name, _typ, _w, _d, enc in specs:
                f.write(enc[i].encode("ascii", "replace"))
        f.write(b"\x1a")


def _parse_dbf(data: bytes) -> list[dict]:
    if not data:
        return []
    nrec, hdr_size, rec_size = struct.unpack_from("<IHH", data, 4)
    fields = []
    off = 32
    while data[off] != 0x0D:
        name = data[off:off + 11].split(b"\x00")[0].decode("ascii")
        typ = chr(data[off + 11])
        width = data[off + 16]
        dec = data[off + 17]
        fields.append((name, typ, width, dec))
        off += 32
    out = []
    for i in range(nrec):
        roff = hdr_size + i * rec_size + 1  # +1 skips the deletion flag
        rec = {}
        for name, typ, width, dec in fields:
            raw = data[roff:roff + width].decode("ascii", "replace").strip()
            roff += width
            if typ == "N" and dec == 0:
                rec[name] = int(raw) if raw else None
            elif typ in ("N", "F"):
                rec[name] = float(raw) if raw else None
            else:
                rec[name] = raw
        out.append(rec)
    return out


def _bbox_contains(shell: np.ndarray, pt: np.ndarray) -> bool:
    return bool(shell[:, 0].min() <= pt[0] <= shell[:, 0].max()
                and shell[:, 1].min() <= pt[1] <= shell[:, 1].max())


def _rings_to_geom(rings: list[np.ndarray]) -> dict:
    shells, holes = [], []
    for r in rings:
        (shells if _signed_area2(r) < 0 else holes).append(r)
    if not shells:  # degenerate: treat all as shells
        shells, holes = rings, []
    polys = [{"type": "Polygon", "rings": [s]} for s in shells]
    for h in holes:
        for p in polys:
            if _bbox_contains(p["rings"][0], h[0]):
                p["rings"].append(h)
                break
        else:
            polys[-1]["rings"].append(h)
    if len(polys) == 1:
        return polys[0]
    return {"type": "MultiPolygon", "parts": polys}


def parse_shp(data: bytes) -> list[dict]:
    """.shp bytes -> list of geometry dicts (None for null shapes)."""
    code, = struct.unpack_from(">i", data, 0)
    if code != 9994:
        raise ValueError(f"not a shapefile (file code {code})")
    version, _global_type = struct.unpack_from("<ii", data, 28)
    if version != 1000:
        raise ValueError(f"unsupported shapefile version {version}")
    out: list[dict] = []
    off = 100
    while off + 8 <= len(data):
        _recno, words = struct.unpack_from(">ii", data, off)
        off += 8
        st, = struct.unpack_from("<i", data, off)
        if st == SHP_NULL:
            out.append(None)
        elif st == SHP_POINT:
            x, y = struct.unpack_from("<dd", data, off + 4)
            out.append({"type": "Point", "coords": np.array([x, y])})
        elif st == SHP_MULTIPOINT:
            n, = struct.unpack_from("<i", data, off + 36)
            pts = np.frombuffer(data, "<f8", 2 * n, off + 40).reshape(-1, 2)
            out.append({"type": "MultiPoint", "coords": pts.copy()})
        elif st in (SHP_POLYLINE, SHP_POLYGON):
            nparts, npts = struct.unpack_from("<ii", data, off + 36)
            parts = np.frombuffer(data, "<i4", nparts, off + 44)
            pts = np.frombuffer(data, "<f8", 2 * npts,
                                off + 44 + 4 * nparts).reshape(-1, 2)
            bounds = list(parts) + [npts]
            rings = [pts[bounds[i]:bounds[i + 1]].copy() for i in range(nparts)]
            if st == SHP_POLYLINE:
                out.append(rings and (
                    {"type": "LineString", "coords": rings[0]} if len(rings) == 1
                    else {"type": "MultiLineString",
                          "parts": [{"type": "LineString", "coords": r}
                                    for r in rings]}) or None)
            else:
                out.append(_rings_to_geom(rings))
        else:
            raise ValueError(f"unsupported shape type {st} (Z/M variants not implemented)")
        off += 2 * words
    return out


def read_shapefile_pair(shp_path: str) -> list[tuple[dict, dict]]:
    """One .shp (+ sibling .dbf if present) -> [(geom dict, attrs dict)]."""
    with open(shp_path, "rb") as f:
        geoms = parse_shp(f.read())
    dbf_path = os.path.splitext(shp_path)[0] + ".dbf"
    attrs: list[dict] = []
    if os.path.exists(dbf_path):
        with open(dbf_path, "rb") as f:
            attrs = _parse_dbf(f.read())
    if len(attrs) < len(geoms):
        attrs = attrs + [{}] * (len(geoms) - len(attrs))
    return [(g, a) for g, a in zip(geoms, attrs) if g is not None]


def read_shapefile(path: str):
    """Shapefile file(s)/dir -> Dataset (path, feature_idx, wkb, properties
    [JSON string]) — the same row shape as core/geojson.read_geojson so the
    two sources are drop-in interchangeable. One parse task per .shp; the
    paired .dbf is opened inside the task (shared-storage assumption, like
    every file source here)."""
    import glob as _glob
    import json

    import pyarrow as pa
    import ray.data

    from . import wkb

    if os.path.isdir(path):
        paths = sorted(_glob.glob(os.path.join(path, "*.shp")))
    else:
        paths = [path]
    if not paths:
        raise FileNotFoundError(f"no .shp files under {path}")

    def parse(batch: pa.Table) -> pa.Table:
        ps, idxs, wkbs, props = [], [], [], []
        for p in batch["shp_path"].to_pylist():
            for i, (geom, attr) in enumerate(read_shapefile_pair(p)):
                ps.append(p)
                idxs.append(i)
                wkbs.append(wkb.encode(geom))
                props.append(json.dumps(attr, sort_keys=True))
        return pa.table({
            "path": pa.array(ps, pa.string()),
            "feature_idx": pa.array(idxs, pa.int64()),
            "wkb": pa.array(wkbs, pa.binary()),
            "properties": pa.array(props, pa.string()),
        })

    items = ray.data.from_arrow(pa.table({"shp_path": pa.array(paths, pa.string())}))
    return items.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
