"""MVT protobuf codec tests: wire-level round-trips, spec invariants
(varint/zigzag/command integers checked against hand-computed bytes), ring
orientation, and the distributed vector_tiles fmt="mvt" path."""

from __future__ import annotations

import numpy as np

from geotrellis_ray.core.mvt import (
    GEOM_LINESTRING,
    GEOM_POINT,
    GEOM_POLYGON,
    _ring_area,
    _varint,
    _zigzag,
    decode_geometry,
    decode_mvt,
    encode_geometry,
    encode_mvt,
    geom_to_mvt_parts,
)


def test_varint_zigzag_known_values():
    # protobuf spec examples
    assert _varint(0) == b"\x00"
    assert _varint(1) == b"\x01"
    assert _varint(300) == b"\xac\x02"
    assert _zigzag(0) == 0 and _zigzag(-1) == 1 and _zigzag(1) == 2 and _zigzag(-2) == 3


def test_geometry_command_stream_spec_example():
    """The MVT 2.1 spec's own point example: MoveTo(25, 17) ->
    [9, 50, 34]."""
    ints = encode_geometry(GEOM_POINT, [np.array([[25, 17]])])
    assert ints == [9, 50, 34]


def test_geometry_roundtrips():
    line = np.array([[2, 2], [2, 10], [10, 10]])
    ints = encode_geometry(GEOM_LINESTRING, [line])
    # spec example: [9, 4, 4, 18, 0, 16, 16, 0]
    assert ints == [9, 4, 4, 18, 0, 16, 16, 0]
    back = decode_geometry(GEOM_LINESTRING, ints)
    np.testing.assert_array_equal(back[0], line)

    ring = np.array([[3, 6], [8, 12], [20, 34]])
    ints = encode_geometry(GEOM_POLYGON, [ring])
    back = decode_geometry(GEOM_POLYGON, ints)
    assert len(back) == 1 and len(back[0]) == 3
    assert _ring_area(back[0].astype(np.float64)) > 0  # exterior positive


def test_polygon_hole_orientation():
    shell = np.array([[0, 0], [100, 0], [100, 100], [0, 100]])
    hole = np.array([[20, 20], [40, 20], [40, 40], [20, 40]])
    ints = encode_geometry(GEOM_POLYGON, [shell, hole], shells=[True, False])
    rings = decode_geometry(GEOM_POLYGON, ints)
    assert _ring_area(rings[0].astype(np.float64)) > 0
    assert _ring_area(rings[1].astype(np.float64)) < 0


def test_tile_roundtrip_with_properties():
    feats = [
        {"id": 7, "type": GEOM_POINT, "parts": [np.array([[10, 20], [30, 40]])],
         "props": {"name": "a", "rank": 3, "score": 1.5, "neg": -4, "ok": True}},
        {"id": 9, "type": GEOM_LINESTRING, "parts": [np.array([[0, 0], [5, 5]])],
         "props": {"name": "b"}},
    ]
    buf = encode_mvt({"roads": feats, "pois": feats[:1]})
    out = decode_mvt(buf)
    assert set(out) == {"roads", "pois"}
    lay = out["roads"]
    assert lay["version"] == 2 and lay["extent"] == 4096
    f0, f1 = lay["features"]
    assert f0["id"] == 7 and f0["type"] == GEOM_POINT
    assert f0["props"] == {"name": "a", "rank": 3, "score": 1.5, "neg": -4, "ok": True}
    np.testing.assert_array_equal(f0["parts"][0], [[10, 20], [30, 40]])
    assert f1["props"] == {"name": "b"}
    # key/value tables dedupe across features
    assert len(out["pois"]["features"]) == 1


def test_geom_dict_bridge_multipolygon():
    from geotrellis_ray.core.layout import Extent

    ext = Extent(0.0, 0.0, 100.0, 100.0)
    geom = {"type": "MultiPolygon", "parts": [
        {"type": "Polygon", "rings": [np.array([(10.0, 10.0), (40.0, 10.0), (40.0, 40.0), (10.0, 40.0)])]},
        {"type": "Polygon", "rings": [
            np.array([(50.0, 50.0), (90.0, 50.0), (90.0, 90.0), (50.0, 90.0)]),
            np.array([(60.0, 60.0), (70.0, 60.0), (70.0, 70.0), (60.0, 70.0)]),
        ]},
    ]}
    gtype, parts, shells = geom_to_mvt_parts(geom, ext, 4096)
    assert gtype == GEOM_POLYGON and shells == [True, True, False]
    ints = encode_geometry(gtype, parts, shells)
    rings = decode_mvt(encode_mvt({"l": [{"id": 1, "type": gtype, "parts": parts, "shells": shells}]}))
    back = rings["l"]["features"][0]["parts"]
    assert len(back) == 3
    areas = [_ring_area(r.astype(np.float64)) for r in back]
    assert areas[0] > 0 and areas[1] > 0 and areas[2] < 0


def test_vector_tiles_mvt_distributed(ray_session):
    import pyarrow.compute as pc
    import ray.data

    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.fixtures import gen_polygons_table
    from geotrellis_ray.stages.vector_tile import vector_tiles

    polys = gen_polygons_table()
    convex = polys.filter(pc.greater_equal(polys["polygon_id"], 128))
    layout = LayoutDefinition(Extent(-180.0, -90.0, 180.0, 90.0), TileLayout(16, 16, 32, 32))
    out = vector_tiles(ray.data.from_arrow(convex.select(["polygon_id", "wkb"])), layout,
                       fmt="mvt", layer_name="polys").to_pandas()
    assert len(out) > 5
    total = 0
    for _i, row in out.iterrows():
        layers = decode_mvt(row["mvt"])
        feats = layers["polys"]["features"]
        assert len(feats) == row["n_features"]
        for f in feats:
            assert f["type"] == GEOM_POLYGON
            assert f["props"]["id"] == f["id"]
            assert all(_ring_area(r.astype(np.float64)) != 0 for r in f["parts"])
        total += len(feats)
    assert total >= len(out)


def test_quantize_clamps_to_extent_inclusive():
    """ADVICE r02: vertices on the tile's max edge must quantize to extent
    (4096), not extent-1 — clamping inward opened hairline gaps between
    adjacent clipped tiles."""
    import numpy as np

    from geotrellis_ray.core.layout import Extent

    ext = Extent(0.0, 0.0, 10.0, 10.0)
    ring = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    gtype, parts, shells = geom_to_mvt_parts(
        {"type": "Polygon", "rings": [ring]}, ext, 4096)
    q = parts[0]
    # map xmax -> 4096; ymin (screen-y grows downward) -> 4096
    assert q[:, 0].max() == 4096 and q[:, 1].max() == 4096
    assert q[:, 0].min() == 0 and q[:, 1].min() == 0


def test_adjacent_tile_seam_exact(ray_session):
    """Seam regression (VERDICT r03 #7, the r02 hairline-gap class): one
    polygon spanning two neighbouring tiles must quantize its shared border
    to x == extent on the west tile and x == 0 on the east tile EXACTLY —
    any inward shift reopens the gap."""
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.core.wkb import encode_polygon
    from geotrellis_ray.stages.vector_tile import vector_tiles

    # 4x4 world grid, tiles are 90x45 degrees; polygon straddles the border
    # between tile (1, 1) and (2, 1) at lon = 0
    layout = LayoutDefinition(Extent(-180.0, -90.0, 180.0, 90.0), TileLayout(4, 4, 32, 32))
    poly = encode_polygon([[(-30.0, 5.0), (30.0, 5.0), (30.0, 40.0), (-30.0, 40.0)]])
    ds = ray.data.from_arrow(pa.table({
        "polygon_id": pa.array([1], pa.int64()),
        "wkb": pa.array([poly], pa.binary()),
    }))
    out = vector_tiles(ds, layout, fmt="mvt", layer_name="seam").to_pandas()
    tiles = {(int(r["key_col"]), int(r["key_row"])): decode_mvt(r["mvt"])
             for _, r in out.iterrows()}
    assert (1, 1) in tiles and (2, 1) in tiles
    west = tiles[(1, 1)]["seam"]["features"][0]["parts"][0]
    east = tiles[(2, 1)]["seam"]["features"][0]["parts"][0]
    extent = tiles[(1, 1)]["seam"]["extent"]
    # the shared border is the west tile's max-x edge and the east tile's 0
    assert west[:, 0].max() == extent
    assert east[:, 0].min() == 0
    # the border's y-span must agree exactly on both sides (same two
    # quantized y values), otherwise the seam still leaks diagonally
    wy = sorted(west[west[:, 0] == extent][:, 1].tolist())
    ey = sorted(east[east[:, 0] == 0][:, 1].tolist())
    assert wy == ey and len(wy) >= 2
