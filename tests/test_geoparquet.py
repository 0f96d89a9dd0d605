"""GeoParquet 1.0.0 sink/source (core/geoparquet.py): footer metadata
content, bbox/type stats, validation failures, and the WKB roundtrip."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _geoms_table():
    from geotrellis_ray.core.wkb import encode_linestring, encode_polygon

    return pa.table({
        "fid": pa.array([1, 2], pa.int64()),
        "wkb": pa.array([
            encode_polygon([[(0., 0.), (4., 0.), (4., 4.), (0., 4.), (0., 0.)]]),
            encode_linestring([(-2., 1.), (5., 7.)]),
        ], pa.binary()),
    })


def test_write_read_roundtrip_and_metadata(ray_session, tmp_path):
    import glob

    import ray.data

    from geotrellis_ray.core.geoparquet import (
        read_geoparquet,
        read_geoparquet_metadata,
        write_geoparquet,
    )

    d = str(tmp_path / "gp")
    tab = _geoms_table()
    meta = write_geoparquet(ray.data.from_arrow(tab), d)
    assert meta["version"] == "1.0.0" and meta["primary_column"] == "wkb"
    col = meta["columns"]["wkb"]
    assert col["encoding"] == "WKB"
    assert col["geometry_types"] == ["LineString", "Polygon"]
    assert col["bbox"] == [-2.0, 0.0, 5.0, 7.0]

    # every file footer carries the metadata
    for f in glob.glob(d + "/*.parquet"):
        md = pq.read_schema(f).metadata
        assert json.loads(md[b"geo"]) == meta

    assert read_geoparquet_metadata(d) == meta
    got = read_geoparquet(d).to_pandas().sort_values("fid").reset_index(drop=True)
    exp = tab.to_pandas()
    assert got["wkb"].tolist() == exp["wkb"].tolist()  # WKB bytes untouched


def test_read_rejects_plain_parquet(ray_session, tmp_path):
    import ray.data

    from geotrellis_ray.core.geoparquet import read_geoparquet

    d = str(tmp_path / "plain")
    ray.data.from_arrow(_geoms_table()).write_parquet(d)
    with pytest.raises(ValueError, match="geo"):
        read_geoparquet(d)


def test_read_rejects_missing_dir(tmp_path):
    from geotrellis_ray.core.geoparquet import read_geoparquet_metadata

    with pytest.raises(FileNotFoundError):
        read_geoparquet_metadata(str(tmp_path / "nope"))
