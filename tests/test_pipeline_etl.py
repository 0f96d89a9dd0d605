"""End-to-end GeoTrellis-style ETL through the JSON pipeline spec:
GeoTiff directory -> tile_to_layout -> pyramid write -> PNG render, all via
run_spec — the composed ingest a reference user runs as `geotrellis ETL`."""
import os

import numpy as np
import pytest


@pytest.fixture()
def tif_dir(tmp_path):
    from geotrellis_ray.core.geotiff import encode_geotiff
    from geotrellis_ray.core.layout import Extent

    rng = np.random.default_rng(77)
    # 2x2 grid of 16x16 rasters covering extent (0,0)-(32,32)
    for gx in range(2):
        for gy in range(2):
            arr = rng.uniform(0.0, 100.0, (16, 16))
            ext = Extent(gx * 16.0, gy * 16.0, gx * 16.0 + 16.0, gy * 16.0 + 16.0)
            (tmp_path / f"r{gx}{gy}.tif").write_bytes(
                encode_geotiff(ext, arr, epsg=4326, compression="deflate",
                               tile_size=None))
    return str(tmp_path)


def test_etl_spec_ingest_pyramid_render(ray_session, tif_dir, tmp_path):
    from geotrellis_ray.core.media import decode_png
    from geotrellis_ray.pipelines.spec import run_spec
    from geotrellis_ray.sources.layer import read_layer

    catalog = str(tmp_path / "catalog")
    extent = [0.0, 0.0, 32.0, 32.0]
    tl = [4, 4, 8, 8]  # 4x4 layout of 8x8 tiles at the base zoom (=2)

    out = run_spec([
        {"op": "read.geotiffs", "path": tif_dir},
        {"op": "transform.tile_to_layout", "extent": extent, "tile_layout": tl},
        {"op": "pyramid.up_levels", "catalog": catalog, "name": "etl",
         "zoom": 2, "down_to": 0},
    ])
    # every pyramid level landed in the catalog with metadata
    for z in (2, 1, 0):
        p = os.path.join(catalog, "etl", str(z))
        assert os.path.isdir(p) and os.path.exists(os.path.join(p, "_metadata.json"))

    # base level: stitched mosaic == the source rasters re-read directly
    base = read_layer(catalog, "etl", 2)
    rows = base.take_all()
    assert len(rows) == 16
    mosaic = np.full((32, 32), np.nan)
    for r in rows:
        t = np.frombuffer(r["cells"], dtype=np.float64).reshape(8, 8)
        mosaic[r["key_row"] * 8:(r["key_row"] + 1) * 8,
               r["key_col"] * 8:(r["key_col"] + 1) * 8] = t
    from geotrellis_ray.core.geotiff import decode_geotiff

    src = np.full((32, 32), np.nan)
    for gx in range(2):
        for gy in range(2):
            _ext, arr, _meta = decode_geotiff(
                open(os.path.join(tif_dir, f"r{gx}{gy}.tif"), "rb").read())
            # world y grows north; row 0 of the raster is the TOP (max y)
            r0 = 32 - (gy * 16 + 16)
            src[r0:r0 + 16, gx * 16:gx * 16 + 16] = arr
    np.testing.assert_allclose(mosaic, src, atol=1e-6)

    # render the coarsest level to PNG map tiles through the spec
    tiles = run_spec([
        {"op": "read.parquet",
         "path": os.path.join(catalog, "etl", "0")},
        {"op": "render.png", "breaks": [25.0, 50.0, 75.0, 100.0],
         "colors": [[0, 0, 255, 255], [0, 255, 0, 255],
                    [255, 255, 0, 255], [255, 0, 0, 255]]},
    ]).take_all()
    assert len(tiles) == 1
    rgba = decode_png(tiles[0]["png"])
    assert rgba.shape[2] >= 3 and rgba.shape[0] == rgba.shape[1]


def test_new_spec_ops_run(ray_session, tmp_path):
    """Every round-3 pipeline op executes through run_spec on a tiny input."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geotrellis_ray.core.sfc import zorder
    from geotrellis_ray.pipelines.spec import run_spec

    # tile-layer parquet fixture (one 8x8 tile)
    g = (np.arange(64, dtype=np.float64) % 13).reshape(8, 8)
    lay = pa.Table.from_pylist([{
        "key_col": 0, "key_row": 0, "sfc": int(zorder(0, 0)),
        "cells": g.tobytes(), "cols": 8, "rows": 8, "cell_type": "float64"}])
    layp = str(tmp_path / "layer.parquet")
    pq.write_table(lay, layp)

    for stage in ([{"op": "enhance.equalize"}],
                  [{"op": "enhance.normalize", "new_min": 0.0, "new_max": 1.0}],
                  [{"op": "enhance.sigmoidal", "alpha": 0.5, "beta": 4.0}],
                  [{"op": "local.reclassify", "breaks": [4.0, 9.0]}],
                  [{"op": "focal.morans_local"}],
                  [{"op": "focal.convolve", "kernel": [[0, 1, 0], [1, 2, 1], [0, 1, 0]]}]):
        out = run_spec([{"op": "read.parquet", "path": layp}, *stage])
        assert out.count() == 1

    # spacetime fixture for temporal ops
    st = pa.Table.from_pylist([{
        "key_col": 0, "key_row": 0, "time_bin": t, "sfc": int(zorder(0, 0)),
        "cells": (g + t).tobytes(), "cols": 8, "rows": 8,
        "cell_type": "float64"} for t in range(3)])
    stp = str(tmp_path / "st.parquet")
    pq.write_table(st, stp)
    for stage in ([{"op": "temporal.composite", "fn": "max"}],
                  [{"op": "temporal.trend"}]):
        assert run_spec([{"op": "read.parquet", "path": stp}, *stage]).count() == 1

    # url + sampling ops on a row table
    rows = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                     "w": pa.array([float(i % 7 + 1) for i in range(50)]),
                     "url": pa.array([f"HTTP://www.a.com/x{i}?utm_source=z"
                                      for i in range(50)])})
    rp = str(tmp_path / "rows.parquet")
    pq.write_table(rows, rp)
    got = run_spec([{"op": "read.parquet", "path": rp},
                    {"op": "transform.url_canonicalize"}]).take(1)
    assert got[0]["canonical_url"].startswith("http://a.com/x")
    got = run_spec([{"op": "read.parquet", "path": rp},
                    {"op": "sample.weighted_topk", "id_col": "doc_id",
                     "weight_col": "w", "k": 5}])
    assert got.count() == 5


def test_spec_reproject_layer_kernel(ray_session, tmp_path):
    """transform.reproject-layer (the spark-pipeline Reproject node is a
    LAYER op): spec output == the reproject_layer stage called directly,
    kernel mode included."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.core.raster import decode_tile, encode_tile
    from geotrellis_ray.core.sfc import zorder
    from geotrellis_ray.pipelines.spec import run_spec
    from geotrellis_ray.stages.reproject import reproject_layer

    rng = np.random.default_rng(3)
    rows = []
    for c in range(2):
        for r in range(2):
            a = rng.uniform(0, 9, (8, 8))
            cells, cols, trows, ct = encode_tile(a)
            rows.append({"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                         "cells": cells, "cols": cols, "rows": trows,
                         "cell_type": ct})
    src_path = str(tmp_path / "layer.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_path)

    src_ext, src_tl = [0.0, 0.0, 16.0, 16.0], [2, 2, 8, 8]
    dst_ext, dst_tl = [0.5, 0.5, 15.5, 15.5], [1, 1, 15, 15]
    out = run_spec([
        {"op": "read.parquet", "path": src_path},
        {"op": "transform.reproject-layer", "src_extent": src_ext,
         "src_tile_layout": src_tl, "dst_extent": dst_ext,
         "dst_tile_layout": dst_tl, "src_crs": "latlng", "dst_crs": "latlng",
         "method": "bilinear"},
    ]).take_all()
    direct = reproject_layer(
        rd.from_arrow(pa.Table.from_pylist(rows)),
        LayoutDefinition(Extent(*src_ext), TileLayout(*src_tl)),
        LayoutDefinition(Extent(*dst_ext), TileLayout(*dst_tl)),
        "latlng", "latlng", method="bilinear").take_all()
    got = {(t["key_col"], t["key_row"]):
           decode_tile(t["cells"], t["cols"], t["rows"], t["cell_type"]) for t in out}
    exp = {(t["key_col"], t["key_row"]):
           decode_tile(t["cells"], t["cols"], t["rows"], t["cell_type"]) for t in direct}
    assert set(got) == set(exp) and len(got) > 0
    for k in got:
        np.testing.assert_array_equal(got[k], exp[k])


def test_spec_unbounded_agg_and_window_ops(ray_session, tmp_path):
    """The late-r5 AST nodes (keep_best / sort top-k / count-distinct /
    moving sum / as-of both directions) execute through run_spec."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geotrellis_ray.pipelines.spec import run_spec

    rows = pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "key": pa.array([f"k{i % 9}" for i in range(60)]),
        "score": pa.array([(i * 7) % 23 for i in range(60)], pa.int64()),
        "ts": pa.array(np.arange(60, dtype=np.int64) * 1000, pa.int64()),
    })
    rp = str(tmp_path / "rows.parquet")
    pq.write_table(rows, rp)
    rd_spec = [{"op": "read.parquet", "path": rp}]

    out = run_spec(rd_spec + [{"op": "dedup.keep_best", "key_col": "key",
                               "score_col": "score", "id_col": "doc_id"}])
    assert out.count() == 9
    out = run_spec(rd_spec + [{"op": "agg.sort_grouped_top_k", "key_col": "key",
                               "order_col": "score", "k": 2, "tie_col": "doc_id"}])
    assert out.count() == 18
    out = run_spec(rd_spec + [{"op": "agg.count_distinct", "key_col": "key",
                               "val_col": "score"}])
    assert out.count() == 9
    out = run_spec(rd_spec + [{"op": "agg.grouped_quantile", "key_col": "key",
                               "val_col": "score", "q": "0.5"}])
    assert out.count() == 9
    out = run_spec(rd_spec + [{"op": "agg.grouped_mode", "key_col": "key",
                               "val_col": "score"}])
    assert out.count() == 9
    out = run_spec(rd_spec + [{"op": "window.moving_sum", "part_col": "key",
                               "ord_col": "ts", "id_col": "doc_id",
                               "val_col": "score", "k": 3}])
    assert out.count() == 60
    for d, col in (("prev", "prev_score"), ("next", "next_score")):
        out = run_spec(rd_spec + [{"op": "window.as_of", "direction": d,
                                   "part_col": "key", "ts_col": "ts",
                                   "id_col": "doc_id", "value_col": "score"}])
        assert out.count() == 60 and col in out.schema().names


def test_spec_zonal_fractional_and_simplify(ray_session):
    """The two late-r5 AST nodes: agg.zonal_fractional over a 1-tile layer
    (brute 2x2 aligned-zones case) and transform.simplify over WKB geoms."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core.raster import encode_tile
    from geotrellis_ray.core.wkb import decode, encode_linestring, encode_polygon
    from geotrellis_ray.pipelines.spec import get_op

    a = np.arange(16, dtype=np.float64).reshape(4, 4)
    cells, cols, rows, ct = encode_tile(a)
    tiles = ray.data.from_arrow(pa.Table.from_pylist([{
        "key_col": 0, "key_row": 0, "sfc": 0,
        "cells": cells, "cols": cols, "rows": rows, "cell_type": ct}]))
    out = get_op("agg.zonal_fractional")(
        tiles, scale_num=2, scale_den=1, off_x_num=0, off_y_num=0
    ).to_pandas().set_index(["zone_x", "zone_y"]).sort_index()
    assert len(out) == 4
    # aligned 2x2 zones: each zone sums its 4 cells with weight 1
    assert int(out.loc[(0, 0)]["sum_wv"]) == 0 + 1 + 4 + 5
    assert int(out.loc[(1, 1)]["sum_wv"]) == 10 + 11 + 14 + 15
    assert (out["sum_w"] == 4).all() and (out["n_cells"] == 4).all()

    geoms = ray.data.from_arrow(pa.table({"wkb": pa.array([
        encode_linestring([(0, 0), (1, 0.01), (2, 0), (3, 5), (4, 0)]),
        encode_polygon([[(0, 0), (4, 0), (4, 0.01), (4, 4), (0, 4), (0, 0)]]),
    ], pa.binary())}))
    got = [decode(r["wkb"]) for r in
           get_op("transform.simplify")(geoms, tolerance=0.5).take_all()]
    assert len(got[0]["coords"]) == 4          # wiggle vertex dropped
    assert len(got[1]["rings"][0]) == 5        # collinear-ish vertex dropped
