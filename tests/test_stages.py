"""Ray Data stage tests: enrichment, PIP join, tile aggregation, layer IO —
each asserted against the brute-force oracle (SURVEY.md §5 pattern)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_ray import fixtures
from geotrellis_ray.core.geocode import geocode_batch
from geotrellis_ray.core.layout import KeyBounds, ZoomedLayoutScheme, latlng_to_key
from geotrellis_ray.core.sfc import zorder
from geotrellis_ray.core.text import extract_text
from geotrellis_ray.sources.layer import read_layer, read_layer_metadata, value_read, write_layer
from geotrellis_ray.stages.enrich import assign_keys_batch, enrich_batch
from geotrellis_ray.stages.pip_join import PipJoiner
from geotrellis_ray.stages.tile_agg import add_salt, measure_hot_keys, tile_assignments
from geotrellis_ray.state.polygon_index import PolygonIndex
from tests import oracle

N_PAGES = 600
ZOOM = 8


@pytest.fixture(scope="module")
def pages_table():
    return fixtures.gen_pages_table(N_PAGES)


@pytest.fixture(scope="module")
def polygons():
    return fixtures.gen_polygons_table()


def test_enrich_batch_pure(pages_table):
    out = enrich_batch(pages_table, verify_text=True)
    assert "html" not in out.column_names
    # byte-identity also checked directly
    assert out["text"].to_pylist()[:5] == pages_table["text"].to_pylist()[:5]
    lat, lon, h = geocode_batch(
        pages_table["url"].to_pylist(), pages_table["html"].to_pylist()
    )
    np.testing.assert_array_equal(out["lat"].to_numpy(), lat)
    np.testing.assert_array_equal(out["h"].to_numpy(), h)


def test_assign_keys_oracle(pages_table):
    out = assign_keys_batch(enrich_batch(pages_table), zoom=ZOOM, s2_level=10, hex_res=5)
    lo = ZoomedLayoutScheme("webmercator").layout_for_zoom(ZOOM)
    lat = out["lat"].to_numpy()
    lon = out["lon"].to_numpy()
    c, r = latlng_to_key(lat, lon, lo)
    np.testing.assert_array_equal(out["key_col"].to_numpy(), c)
    np.testing.assert_array_equal(out["key_row"].to_numpy(), r)
    np.testing.assert_array_equal(out["sfc"].to_numpy(), zorder(c, r))
    ts = pages_table["warc_ts"].cast(pa.int64()).to_numpy()
    np.testing.assert_array_equal(out["time_bin"].to_numpy(), ts // 3_600_000_000)


def test_polygon_index_oracle(polygons):
    idx = PolygonIndex(polygons)
    polys = fixtures.gen_polygons()
    rng = np.random.default_rng(3)
    xs = rng.uniform(-179, 179, 400)
    ys = rng.uniform(-89, 89, 400)
    pi, bi = idx.probe(xs, ys)
    got = set(zip(pi.tolist(), idx.ids[bi].tolist()))
    want = set()
    for i in range(400):
        for p in polys:
            b = p["bbox"]
            if b[0] <= xs[i] <= b[2] and b[1] <= ys[i] <= b[3] and oracle.pip_scalar(xs[i], ys[i], p["ring"]):
                want.add((i, p["polygon_id"]))
    assert got == want
    # every point hits exactly one world-grid rect -> n_hits >= 1, pid != -1
    pid, nhits = idx.best_hit(xs, ys)
    assert (nhits >= 1).all() and (pid >= 0).all()
    # best-hit priority: points inside overlap polygons pick the highest zindex
    over = [p for p in polys if p["polygon_id"] >= 168]
    from geotrellis_ray.core.geom import polygon_centroid

    for p in over:
        cx, cy = polygon_centroid(p["ring"])
        pid1, nh1 = idx.best_hit(np.array([cx]), np.array([cy]))
        hits = [q for q in polys if oracle.pip_scalar(cx, cy, q["ring"])]
        best = max(hits, key=lambda q: (q["zindex"], q["value"], -q["polygon_id"]))
        assert pid1[0] == best["polygon_id"] and nh1[0] == len(hits)


def test_pip_join_modes(pages_table, polygons, ray_session):
    import ray
    import ray.data

    enriched = enrich_batch(pages_table)
    ds = ray.data.from_arrow(enriched).map_batches(
        lambda b: assign_keys_batch(b, zoom=ZOOM), batch_format="pyarrow"
    )
    ref = ray.put(polygons)
    ann = ds.map_batches(
        PipJoiner, fn_constructor_kwargs={"polygons": ref}, batch_format="pyarrow",
        batch_size=128, concurrency=2,
    )
    out = ann.to_pandas()
    assert len(out) == N_PAGES
    # oracle: brute force over all pages
    idx = PolygonIndex(polygons)
    lat = enriched["lat"].to_numpy()
    lon = enriched["lon"].to_numpy()
    pid_o, nhits_o = idx.best_hit(lon, lat)
    merged = out.sort_values("url").reset_index(drop=True)
    urls = enriched["url"].to_pylist()
    order = np.argsort(urls, kind="stable")
    np.testing.assert_array_equal(merged["polygon_id"].to_numpy(), pid_o[order])
    np.testing.assert_array_equal(merged["n_hits"].to_numpy(), nhits_o[order])
    # inner mode row count == total hits; semi+anti partition the input
    inner = ds.map_batches(
        PipJoiner, fn_constructor_kwargs={"polygons": ref, "mode": "inner"},
        batch_format="pyarrow", batch_size=128, concurrency=2,
    )
    assert inner.count() == int(nhits_o.sum())
    semi = ds.map_batches(
        PipJoiner, fn_constructor_kwargs={"polygons": ref, "mode": "semi"},
        batch_format="pyarrow", batch_size=256, concurrency=2,
    )
    anti = ds.map_batches(
        PipJoiner, fn_constructor_kwargs={"polygons": ref, "mode": "anti"},
        batch_format="pyarrow", batch_size=256, concurrency=2,
    )
    assert semi.count() + anti.count() == N_PAGES


def test_tile_assignments_oracle(pages_table, ray_session):
    import ray.data

    enriched = assign_keys_batch(enrich_batch(pages_table), zoom=ZOOM)
    ds = ray.data.from_arrow(enriched)
    tiles = tile_assignments(ds, sum_cols=()).to_pandas()
    # oracle: pandas groupby
    pdf = enriched.select(["key_col", "key_row", "sfc"]).to_pandas()
    want = pdf.groupby(["key_col", "key_row", "sfc"]).size().reset_index(name="n_docs")
    got = tiles.sort_values(["key_col", "key_row"]).reset_index(drop=True)
    want = want.sort_values(["key_col", "key_row"]).reset_index(drop=True)
    assert len(got) == len(want)
    np.testing.assert_array_equal(got["n_docs"].to_numpy(), want["n_docs"].to_numpy())
    assert int(got["n_docs"].sum()) == N_PAGES


def test_salting_identical_results(pages_table, ray_session):
    import ray.data
    from ray.data.aggregate import Sum

    enriched = assign_keys_batch(enrich_batch(pages_table), zoom=ZOOM)
    ds = ray.data.from_arrow(enriched)
    hot = measure_hot_keys(ds, "sfc", threshold_factor=2.0, sample=1.0)
    assert hot  # skewed fixture must produce hot cells
    salted = add_salt(ds, hot, k=4)
    two_phase = (
        salted.groupby(["sfc", "salt"])
        .aggregate(Sum("n_hits", alias_name="s") if "n_hits" in enriched.column_names else Sum("key_col", alias_name="s"))
        .groupby("sfc")
        .aggregate(Sum("s", alias_name="total"))
        .to_pandas()
    )
    direct = (
        ds.groupby("sfc").aggregate(Sum("key_col", alias_name="total")).to_pandas()
    )
    m = two_phase.sort_values("sfc").reset_index(drop=True)
    d = direct.sort_values("sfc").reset_index(drop=True)
    np.testing.assert_array_equal(m["total"].to_numpy(), d["total"].to_numpy())


def test_layer_write_read_roundtrip(pages_table, ray_session, tmp_path):
    import ray.data

    catalog = str(tmp_path / "catalog")
    enriched = assign_keys_batch(enrich_batch(pages_table), zoom=ZOOM)
    ds = ray.data.from_arrow(enriched.select(["url", "lat", "lon", "key_col", "key_row", "sfc", "time_bin"]))
    write_layer(ds, catalog, "pages", ZOOM, bucket_shift=6)
    meta = read_layer_metadata(catalog, "pages", ZOOM)
    assert meta.zoom == ZOOM
    pdf = enriched.to_pandas()
    assert meta.bounds.col_min == pdf["key_col"].min() and meta.bounds.row_max == pdf["key_row"].max()
    # full read returns every row
    full = read_layer(catalog, "pages", ZOOM)
    assert full.count() == N_PAGES
    # bbox query: NYC cluster tile neighbourhood — compare against oracle filter
    lo = ZoomedLayoutScheme("webmercator").layout_for_zoom(ZOOM)
    c, r = latlng_to_key(np.array([40.71]), np.array([-74.01]), lo)
    kb = KeyBounds(int(c[0]) - 1, int(r[0]) - 1, int(c[0]) + 1, int(r[0]) + 1)
    sub = read_layer(catalog, "pages", ZOOM, intersects=kb).to_pandas()
    want = pdf[
        (pdf.key_col >= kb.col_min) & (pdf.key_col <= kb.col_max)
        & (pdf.key_row >= kb.row_min) & (pdf.key_row <= kb.row_max)
    ]
    assert len(sub) == len(want) and len(sub) > 0
    assert set(sub["url"]) == set(want["url"])
    # single-key random access
    key_counts = pdf.groupby(["key_col", "key_row"]).size().reset_index(name="n")
    kc, kr, n = key_counts.iloc[0][["key_col", "key_row", "n"]]
    t = value_read(catalog, "pages", ZOOM, int(kc), int(kr))
    assert t.num_rows == int(n)


def test_flagship_end_to_end(pages_table, polygons, ray_session):
    import ray
    import ray.data

    from geotrellis_ray.pipelines.flagship import flagship

    ds = ray.data.from_arrow(pages_table)
    joined, tiles = flagship(ds, ray.put(polygons), zoom=ZOOM, batch_size=256, concurrency=2, verify_text=True)
    tp = tiles.to_pandas()
    assert int(tp["n_docs"].sum()) == N_PAGES
    assert (tp["n_hits"] >= tp["n_docs"]).all()  # world grid guarantees >= 1 hit/page


def test_ann_ivf_recall(ray_session):
    """IVF top-k vs exact brute force: recall@5 >= 0.8 with generous nprobe."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.ann import ann_brute_force, ann_ivf

    rng = np.random.default_rng(11)
    n, d = 800, 16
    m = rng.normal(size=(n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(m.tolist(), pa.list_(pa.float32()))})
    queries = m[:6] + rng.normal(scale=0.05, size=(6, d)).astype(np.float32)
    ds = ray.data.from_arrow(t)
    exact = ann_brute_force(ds, queries, k=5).to_pandas()
    ivf = ann_ivf(ds, queries, k=5, n_centroids=8, nprobe=4).to_pandas()
    recalls = []
    for qid in range(6):
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(ivf[ivf.query_id == qid].vec_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.8, recalls
    # rank-1 hit should be the perturbed source vector for most queries
    top1 = ivf[ivf["rank"] == 1].sort_values("query_id").vec_id.tolist()
    assert sum(int(top1[q] == q) for q in range(6)) >= 5


def test_spec_pipeline_new_ops(ray_session, tmp_path):
    """CLI-spec registry drives the new ops end-to-end (read -> reproject ->
    partial groupby) — the spark-pipeline JSON AST equivalent."""
    import numpy as np
    import pyarrow.parquet as pq
    import pyarrow as pa

    from geotrellis_ray.pipelines.spec import run_spec

    p = str(tmp_path / "pts.parquet")
    pq.write_table(
        pa.table({"lon": pa.array([0.0, 10.0, 10.0, -60.0]),
                  "lat": pa.array([0.0, 45.0, 45.0, -10.0]),
                  "grp": pa.array([0, 1, 1, 2], pa.int64())}), p)
    out = run_spec([
        {"op": "read.parquet", "path": p},
        {"op": "transform.reproject", "src": "latlng", "dst": "webmercator"},
        {"op": "agg.partial_groupby", "keys": ["grp"], "specs": [["x", "sum", "sum_x"], ["x", "count", "n"]]},
    ]).to_pandas().sort_values("grp").reset_index(drop=True)
    from geotrellis_ray.core.mercator import latlng_to_webmercator
    ex, _ = latlng_to_webmercator(np.array([0.0, 45.0, -10.0]), np.array([0.0, 10.0, -60.0]))
    assert out["n"].tolist() == [1, 2, 1]
    np.testing.assert_allclose(out["sum_x"], [ex[0], 2 * ex[1], ex[2]])


def test_exact_jaccard_verify_pairs(ray_session):
    """verify_pairs_exact_jaccard == brute-force oracle on known texts."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.functions.hashing import jaccard, shingles, tokenize
    from geotrellis_ray.stages.dedup import verify_pairs_exact_jaccard

    texts = ["the quick brown fox jumps over the lazy dog tonight",
             "the quick brown fox jumps over the lazy dog",
             "completely different content about arrow batches"]
    docs = ray.data.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                                         "text": pa.array(texts)}))
    pairs = ray.data.from_arrow(pa.table({"id_a": pa.array([1, 1], pa.int64()),
                                          "id_b": pa.array([2, 3], pa.int64())}))
    out = verify_pairs_exact_jaccard(pairs, docs).to_pandas().sort_values("id_b").reset_index(drop=True)
    exp12 = jaccard(shingles(tokenize(texts[0]), 3), shingles(tokenize(texts[1]), 3))
    exp13 = jaccard(shingles(tokenize(texts[0]), 3), shingles(tokenize(texts[2]), 3))
    np.testing.assert_allclose(out["jaccard"], [exp12, exp13])
    assert exp12 > 0.6 and exp13 == 0.0


def test_pbsm_spatial_join_brute_oracle(ray_session):
    """pbsm_spatial_join (ClipToGrid explode + sfc equi-join + grouped
    vectorized PIP refine) == brute-force point-in-polygon over convex
    fixture polygons NOT aligned to the grid (refine path exercised)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core import wkb as wkb_mod
    from geotrellis_ray.core.geom import point_in_polygon_geom
    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.core.sfc import zorder
    from geotrellis_ray.fixtures import gen_polygons_table

    polys_tab = gen_polygons_table()
    convex = polys_tab.filter(pa.compute.greater_equal(polys_tab["polygon_id"], 128))
    layout = LayoutDefinition(Extent(-180.0, -90.0, 180.0, 90.0), TileLayout(32, 32, 8, 8))

    rng = np.random.default_rng(7)
    n = 3000
    lon = rng.uniform(-180.0, 180.0, n)
    lat = rng.uniform(-85.0, 85.0, n)
    # half the points inside the cluster boxes so hits are dense
    lon[: n // 2] = rng.uniform(-75.2, -73.2, n // 2)
    lat[: n // 2] = rng.uniform(39.9, 41.9, n // 2)
    c, r = layout.xy_to_key(lon, lat)
    pts = ray.data.from_arrow(pa.table({
        "pt_id": pa.array(np.arange(n), pa.int64()),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
        "sfc": pa.array(zorder(c.astype(np.int64), r.astype(np.int64)).astype(np.uint64), pa.uint64()),
    }))

    from geotrellis_ray.stages.join import pbsm_spatial_join

    got = (
        pbsm_spatial_join(pts, ray.data.from_arrow(convex.select(["polygon_id", "wkb"])), layout, zoom=5)
        .to_pandas()[["pt_id", "polygon_id"]]
        .sort_values(["pt_id", "polygon_id"])
        .reset_index(drop=True)
    )

    exp_rows = []
    for pid, buf in zip(convex["polygon_id"].to_pylist(), convex["wkb"].to_pylist()):
        hit = point_in_polygon_geom(lon, lat, wkb_mod.decode(buf))
        for i in np.nonzero(hit)[0]:
            exp_rows.append((int(i), int(pid)))
    import pandas as pd

    exp = pd.DataFrame(exp_rows, columns=["pt_id", "polygon_id"]).sort_values(
        ["pt_id", "polygon_id"]).reset_index(drop=True)
    assert len(exp) > 50  # the fixture must actually produce hits
    pd.testing.assert_frame_equal(got, exp)


def _synth_embeddings(n=2000, d=16, n_clusters=8, seed=3):
    import numpy as np

    rng = np.random.default_rng(seed)
    cents = rng.normal(0, 1, (n_clusters, d)).astype(np.float32)
    assign = rng.integers(0, n_clusters, n)
    m = cents[assign] + rng.normal(0, 0.15, (n, d)).astype(np.float32)
    return m.astype(np.float32)


def test_ann_index_partition_pruning_and_recall(ray_session, tmp_path):
    """Persisted IVF index: the probed read touches a STRICT SUBSET of the
    partition dirs, and top-1 results match brute force on clustered data."""
    import glob

    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.sources.ann_index import (
        ann_query_index, build_ann_index, probed_list_dirs)
    from geotrellis_ray.stages.ann import ann_brute_force

    m = _synth_embeddings()
    tab = pa.table({"vec_id": pa.array(np.arange(len(m)), pa.int64()),
                    "embedding": pa.array(m.tolist(), pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tab).repartition(4)
    path = str(tmp_path / "ivf_index")
    build_ann_index(ds, path, kind="ivf", n_centroids=8)

    queries = m[[10, 500, 1500]]
    dirs, probed = probed_list_dirs(path, queries, nprobe=2)
    all_dirs = glob.glob(f"{path}/ann_list=*")
    assert len(all_dirs) >= 4 and 0 < len(dirs) < len(all_dirs), (len(dirs), len(all_dirs))

    got = ann_query_index(path, queries, k=3, nprobe=2).to_pandas()
    brute = ann_brute_force(ray.data.from_arrow(tab), queries, k=3).to_pandas()
    g1 = got[got["rank"] == 1].sort_values("query_id")["vec_id"].tolist()
    b1 = brute[brute["rank"] == 1].sort_values("query_id")["vec_id"].tolist()
    assert g1 == b1  # the query vectors themselves live in the probed lists


def test_ann_index_lsh_kind(ray_session, tmp_path):
    import glob

    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.sources.ann_index import ann_query_index, build_ann_index, probed_list_dirs

    m = _synth_embeddings(n=1000, d=12, seed=5)
    tab = pa.table({"vec_id": pa.array(np.arange(len(m)), pa.int64()),
                    "embedding": pa.array(m.tolist(), pa.list_(pa.float32()))})
    path = str(tmp_path / "lsh_index")
    build_ann_index(ray.data.from_arrow(tab).repartition(3), path, kind="lsh", nbits=6)
    queries = m[[7, 900]]
    dirs, _ = probed_list_dirs(path, queries, nprobe=1)
    all_dirs = glob.glob(f"{path}/ann_list=*")
    assert 0 < len(dirs) <= len(all_dirs)
    got = ann_query_index(path, queries, k=1).to_pandas()
    assert got[got["rank"] == 1].sort_values("query_id")["vec_id"].tolist() == [7, 900]
