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


def _strict_json(blob):
    """json.loads that rejects Infinity and NaN, which are not JSON."""
    def bad(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(blob, parse_constant=bad)


def test_geo_stats_of_an_empty_batch_has_no_rows():
    from geotrellis_ray.core.geoparquet import _batch_geo_stats

    full = _batch_geo_stats(_geoms_table(), "wkb")
    empty = _batch_geo_stats(_geoms_table().slice(0, 0), "wkb")
    assert empty.num_rows == 0 and empty.schema == full.schema


def test_zero_row_write_has_no_bbox(ray_session, tmp_path):
    """A zero-row dataset with a schema writes valid JSON metadata without
    a bbox, in the returned dict and in any footer written (Ray 2.49 writes
    no file for zero rows)."""
    import glob

    import ray.data

    from geotrellis_ray.core.geoparquet import write_geoparquet

    d = str(tmp_path / "gp0")
    meta = write_geoparquet(ray.data.from_arrow(_geoms_table().slice(0, 0)), d)
    blobs = [json.dumps(meta, sort_keys=True)] + [
        pq.read_schema(f).metadata[b"geo"] for f in glob.glob(d + "/*.parquet")]
    for blob in blobs:
        col = _strict_json(blob)["columns"]["wkb"]
        assert "bbox" not in col and col["geometry_types"] == []
