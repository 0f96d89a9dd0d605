"""From-spec ESRI Shapefile codec (core/shapefile.py): roundtrips for every
supported shape class, a hand-assembled byte-level fixture (independent of
the writer — catches write/read bugs that cancel), dbf typing, ring
orientation normalization, and the distributed source."""

import struct

import numpy as np
import pytest


def test_polygon_roundtrip_with_hole(tmp_path):
    from geotrellis_ray.core.shapefile import read_shapefile_pair, write_shapefile

    shell = np.array([[0., 0.], [8., 0.], [8., 8.], [0., 8.], [0., 0.]])
    hole = np.array([[2., 2.], [4., 2.], [4., 4.], [2., 4.], [2., 2.]])
    base = str(tmp_path / "poly")
    write_shapefile(base, [{"type": "Polygon", "rings": [shell, hole]}],
                    {"pid": [42], "tag": ["x"], "score": [2.5]})
    (g, a), = read_shapefile_pair(base + ".shp")
    assert g["type"] == "Polygon" and len(g["rings"]) == 2
    # same point SETS (orientation may be normalized)
    assert set(map(tuple, g["rings"][0])) == set(map(tuple, shell))
    assert set(map(tuple, g["rings"][1])) == set(map(tuple, hole))
    assert a == {"pid": 42, "tag": "x", "score": 2.5}


def test_multipolygon_hole_assignment(tmp_path):
    from geotrellis_ray.core.shapefile import read_shapefile_pair, write_shapefile

    p1 = {"type": "Polygon",
          "rings": [np.array([[0., 0.], [10., 0.], [10., 10.], [0., 10.], [0., 0.]]),
                    np.array([[1., 1.], [2., 1.], [2., 2.], [1., 2.], [1., 1.]])]}
    p2 = {"type": "Polygon",
          "rings": [np.array([[20., 0.], [30., 0.], [30., 10.], [20., 10.], [20., 0.]]),
                    np.array([[24., 4.], [26., 4.], [26., 6.], [24., 6.], [24., 4.]])]}
    base = str(tmp_path / "mp")
    write_shapefile(base, [{"type": "MultiPolygon", "parts": [p1, p2]}])
    (g, _a), = read_shapefile_pair(base + ".shp")
    assert g["type"] == "MultiPolygon" and len(g["parts"]) == 2
    # each hole landed inside ITS shell (bbox containment)
    for part in g["parts"]:
        assert len(part["rings"]) == 2
        s, h = part["rings"]
        assert s[:, 0].min() <= h[:, 0].min() and h[:, 0].max() <= s[:, 0].max()


def test_point_line_multipoint_roundtrip(tmp_path):
    from geotrellis_ray.core.shapefile import read_shapefile_pair, write_shapefile

    base = str(tmp_path / "pts")
    write_shapefile(base, [{"type": "Point", "coords": np.array([1.5, -2.25])}],
                    {"v": [-7]})
    (g, a), = read_shapefile_pair(base + ".shp")
    assert g["coords"].tolist() == [1.5, -2.25] and a == {"v": -7}

    base = str(tmp_path / "mpt")
    write_shapefile(base, [{"type": "MultiPoint",
                            "coords": np.array([[0., 1.], [2., 3.]])}])
    (g, _), = read_shapefile_pair(base + ".shp")
    assert g["type"] == "MultiPoint" and g["coords"].tolist() == [[0., 1.], [2., 3.]]

    base = str(tmp_path / "ln")
    write_shapefile(base, [
        {"type": "LineString", "coords": np.array([[0., 0.], [1., 2.], [3., 1.]])},
        {"type": "MultiLineString", "parts": [
            {"type": "LineString", "coords": np.array([[0., 0.], [5., 5.]])},
            {"type": "LineString", "coords": np.array([[9., 9.], [8., 7.]])}]},
    ])
    got = [g for g, _ in read_shapefile_pair(base + ".shp")]
    assert got[0]["type"] == "LineString" and got[0]["coords"].tolist() == [[0., 0.], [1., 2.], [3., 1.]]
    assert got[1]["type"] == "MultiLineString"
    assert got[1]["parts"][1]["coords"].tolist() == [[9., 9.], [8., 7.]]


def test_parse_hand_assembled_bytes():
    """Byte-level fixture built HERE from the spec (not by the writer): a
    one-record Point shapefile."""
    from geotrellis_ray.core.shapefile import parse_shp

    content = struct.pack("<idd", 1, 3.0, -4.5)               # point record
    rec = struct.pack(">ii", 1, len(content) // 2) + content
    total_words = 50 + len(rec) // 2
    hdr = (struct.pack(">i5ii", 9994, 0, 0, 0, 0, 0, total_words)
           + struct.pack("<ii", 1000, 1)
           + struct.pack("<8d", 3.0, -4.5, 3.0, -4.5, 0, 0, 0, 0))
    geoms = parse_shp(hdr + rec)
    assert len(geoms) == 1 and geoms[0]["type"] == "Point"
    assert geoms[0]["coords"].tolist() == [3.0, -4.5]


def test_parse_rejects_bad_magic_and_z_shapes():
    from geotrellis_ray.core.shapefile import parse_shp

    with pytest.raises(ValueError, match="file code"):
        parse_shp(struct.pack(">i", 1234) + b"\x00" * 96)
    content = struct.pack("<i", 11)  # PointZ
    rec = struct.pack(">ii", 1, len(content) // 2) + content
    hdr = (struct.pack(">i5ii", 9994, 0, 0, 0, 0, 0, 50 + len(rec) // 2)
           + struct.pack("<ii", 1000, 11) + struct.pack("<8d", *([0.0] * 8)))
    with pytest.raises(ValueError, match="shape type"):
        parse_shp(hdr + rec)


def test_read_shapefile_source_distributed(ray_session, tmp_path):
    import json

    from geotrellis_ray.core.shapefile import read_shapefile, write_shapefile
    from geotrellis_ray.core.wkb import decode

    for k in range(3):
        write_shapefile(str(tmp_path / f"part-{k}"),
                        [{"type": "Point", "coords": np.array([float(k), 2.0 * k])}],
                        {"pid": [k]})
    rows = read_shapefile(str(tmp_path)).take_all()
    assert len(rows) == 3
    got = sorted((json.loads(r["properties"])["pid"],
                  decode(r["wkb"])["coords"].tolist()) for r in rows)
    assert got == [(0, [0.0, 0.0]), (1, [1.0, 2.0]), (2, [2.0, 4.0])]


def test_dbf_value_wider_than_field_cap_raises(tmp_path):
    """A DBF field holds at most 18 (N), 20 (F) or 254 (C) characters. A
    wider value written in full would shift every later field and record
    (a 19-digit id read back as 10**17, its neighbor's digits shifted), so
    the writer refuses it, naming the field and the width."""
    from geotrellis_ray.core.shapefile import read_shapefile_pair, write_shapefile

    pts = [{"type": "Point", "coords": [float(i), 0.0]} for i in range(2)]
    with pytest.raises(ValueError, match=r"'pid'.*19.*18"):
        write_shapefile(str(tmp_path / "wide_n"), pts,
                        {"pid": [10**18 + 1, 7], "tag": ["ab", "cd"]})
    with pytest.raises(ValueError, match=r"'note'.*255.*254"):
        write_shapefile(str(tmp_path / "wide_c"), pts, {"note": ["x" * 255, "y"]})
    # at the cap the record layout holds
    base = str(tmp_path / "at_cap")
    write_shapefile(base, pts, {"pid": [10**17 + 1, -(10**16)], "tag": ["ab", "cd"]})
    attrs = [a for _g, a in read_shapefile_pair(base + ".shp")]
    assert attrs == [{"pid": 10**17 + 1, "tag": "ab"}, {"pid": -(10**16), "tag": "cd"}]
