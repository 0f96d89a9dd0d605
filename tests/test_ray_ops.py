"""Ray Data operator tests: rasterize, pyramid, kNN, joins, dedup, ANN,
stats — each against a brute-force oracle or duckdb."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geotrellis_ray import fixtures
from geotrellis_ray.core import wkb
from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
from geotrellis_ray.core.raster import decode_tile, rasterize_value
from geotrellis_ray.core.sfc import zorder
from tests import oracle

TOY = LayoutDefinition(Extent(0, 0, 16, 16), TileLayout(4, 4, 4, 4))
SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


def test_rasterize_features_matches_single_machine(ray_session):
    """RasterizeRDDSpec pattern: distributed rasterize == rasterize the whole
    grid on one machine, then cut to tiles."""
    import ray.data

    from geotrellis_ray.stages.rasterize_stage import rasterize_features

    rings = [
        np.array([(1.1, 1.1), (9.7, 2.2), (8.5, 9.5), (2.0, 8.0)], dtype=float),
        np.array([(6.0, 6.0), (14.5, 6.5), (13.0, 14.0)], dtype=float),
    ]
    t = pa.table(
        {
            "wkb": pa.array([wkb.encode_polygon([r]) for r in rings], pa.binary()),
            "zindex": pa.array([0, 1], pa.int32()),
            "value": pa.array([10.0, 20.0], pa.float64()),
        }
    )
    out = rasterize_features(ray.data.from_arrow(t), TOY).to_pandas()
    # single-machine oracle over the full 16x16 grid
    geoms = [({"type": "Polygon", "rings": [rings[i]]}, i, [10.0, 20.0][i]) for i in range(2)]
    full = rasterize_value(geoms, TOY.extent, 16, 16)
    for row in out.itertuples():
        tile = decode_tile(row.cells, row.cols, row.rows, row.cell_type)
        c0, r0 = row.key_col * 4, row.key_row * 4
        np.testing.assert_array_equal(
            np.nan_to_num(tile, nan=-1), np.nan_to_num(full[r0 : r0 + 4, c0 : c0 + 4], nan=-1)
        )
    # tiles not covering any geometry are absent
    painted_keys = {(r.key_col, r.key_row) for r in out.itertuples()}
    for c, r in painted_keys:
        assert not np.isnan(full[r * 4 : r * 4 + 4, c * 4 : c * 4 + 4]).all()


def test_pyramid_counts(ray_session):
    import ray.data

    from geotrellis_ray.stages.pyramid import pyramid_up_counts

    # synthetic tile counts at zoom 2 (4x4 grid)
    rows = [
        {"key_col": c, "key_row": r, "sfc": int(zorder(c, r)), "n_docs": c + 10 * r}
        for c in range(4)
        for r in range(4)
    ]
    ds = ray.data.from_items(rows)
    up = pyramid_up_counts(ds).to_pandas().sort_values(["key_col", "key_row"]).reset_index(drop=True)
    assert len(up) == 4
    want = {}
    for row in rows:
        k = (row["key_col"] >> 1, row["key_row"] >> 1)
        want[k] = want.get(k, 0) + row["n_docs"]
    for r in up.itertuples():
        assert want[(r.key_col, r.key_row)] == r.n_docs


def test_pyramid_tiles_merge(ray_session):
    import ray.data

    from geotrellis_ray.core.raster import encode_tile
    from geotrellis_ray.stages.pyramid import pyramid_up

    # 2x2 children each constant-valued -> parent quadrants hold child means
    items = []
    for c in range(2):
        for r in range(2):
            tile = np.full((4, 4), float(10 * c + r))
            cells, cols, rows_, ct = encode_tile(tile)
            items.append(
                {"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                 "cells": cells, "cols": cols, "rows": rows_, "cell_type": ct}
            )
    up = pyramid_up(ray.data.from_items(items)).to_pandas()
    assert len(up) == 1
    tile = decode_tile(up.cells[0], up.cols[0], up.rows[0], up.cell_type[0])
    assert tile.shape == (4, 4)
    assert tile[0, 0] == 0.0 and tile[0, 2] == 10.0 and tile[2, 0] == 1.0 and tile[2, 2] == 11.0


def test_knn_single_and_multi(ray_session):
    import ray.data

    from geotrellis_ray.stages.knn import knn_multi, knn_single

    pages = fixtures.gen_pages_table(400)
    from geotrellis_ray.stages.enrich import enrich_batch

    enr = enrich_batch(pages)
    ds = ray.data.from_arrow(enr.select(["url", "lat", "lon"]))
    pts = [(u, la, lo) for u, la, lo in zip(enr["url"].to_pylist(), enr["lat"].to_numpy(), enr["lon"].to_numpy())]
    got = knn_single(ds, 40.71, -74.01, 5, id_col="url").to_pandas()
    want_ids = oracle.knn_scalar(pts, 40.71, -74.01, 5)
    assert got["url"].tolist() == want_ids
    queries = pd.DataFrame({"query_id": [0, 1], "lat": [51.51, -23.55], "lon": [-0.13, -46.63]})
    multi = knn_multi(ds, queries, 5, id_col="url").to_pandas()
    for qid in (0, 1):
        sub = multi[multi.query_id == qid].sort_values("rank")
        want = oracle.knn_scalar(pts, queries.lat[qid], queries.lon[qid], 5)
        assert sub["url"].tolist() == want


def test_spatial_join_layers(ray_session):
    import ray.data

    from geotrellis_ray.stages.join import semi_join_keys, spatial_join

    a = ray.data.from_items(
        [{"sfc": int(zorder(c, r)), "key_col": c, "key_row": r, "va": c * 10 + r}
         for c in range(4) for r in range(4)]
    )
    b = ray.data.from_items(
        [{"sfc": int(zorder(c, r)), "vb": c * 100 + r}
         for c in range(2, 6) for r in range(2, 6)]
    )
    inner = spatial_join(a, b, "inner", num_partitions=4).to_pandas()
    assert len(inner) == 4  # overlap keys: c,r in {2,3}x{2,3}
    assert set(zip(inner.key_col, inner.key_row)) == {(2, 2), (2, 3), (3, 2), (3, 3)}
    left = spatial_join(a, b, "left_outer", num_partitions=4).to_pandas()
    assert len(left) == 16
    assert left["vb"].notna().sum() == 4
    semi = semi_join_keys(a, {int(zorder(0, 0)), int(zorder(1, 1))}).to_pandas()
    assert len(semi) == 2
    anti = semi_join_keys(a, {int(zorder(0, 0))}, anti=True).to_pandas()
    assert len(anti) == 15


def test_dedup_exact_vs_duckdb(docs_ds, ray_session):
    import duckdb

    from geotrellis_ray.stages.dedup import dedup_exact

    got = dedup_exact(docs_ds).to_pandas()
    want = duckdb.sql(
        f"SELECT min(doc_id) AS doc_id, count(*) AS n_dupes FROM '{SF}/documents.parquet' GROUP BY text"
    ).df()
    assert len(got) == len(want)
    g = got.sort_values("doc_id").reset_index(drop=True)
    w = want.sort_values("doc_id").reset_index(drop=True)
    np.testing.assert_array_equal(g["doc_id"].to_numpy(), w["doc_id"].to_numpy())
    np.testing.assert_array_equal(g["n_dupes"].to_numpy(), w["n_dupes"].to_numpy())


def test_minhash_dedup_finds_planted_dups(ray_session):
    import ray.data

    from geotrellis_ray.stages.dedup import minhash_dedup

    base = [
        "the quick brown fox jumps over the lazy dog and then runs far away home tonight " * 2,
        "completely different content about ray data pipelines and arrow batches in engines " * 2,
        "a third unrelated document that talks about tile layouts and spatial keys at zoom " * 2,
    ]
    docs = []
    did = 0
    for b in base:
        docs.append({"doc_id": did, "text": b}); did += 1
        docs.append({"doc_id": did, "text": b.replace("the", "that", 1)}); did += 1  # near-dup
    docs.append({"doc_id": did, "text": "lonely single short doc with no duplicates anywhere"})
    ds = ray.data.from_items(docs)
    labels = minhash_dedup(ds, threshold=0.5, rounds=2).to_pandas().sort_values("doc_id")
    lab = dict(zip(labels.doc_id, labels.cluster_id))
    assert lab[0] == lab[1] and lab[2] == lab[3] and lab[4] == lab[5]
    assert len({lab[0], lab[2], lab[4], lab[6]}) == 4


def _band_stream(buckets) -> pa.Table:
    """buckets: list of ((band, band_hash), [ids]) -> band rows."""
    rows = [(i, band, bhash) for (band, bhash), ids in buckets for i in ids]
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "band": pa.array([r[1] for r in rows], pa.int32()),
                     "band_hash": pa.array([r[2] for r in rows], pa.uint64())})


def test_lsh_bucket_pairs_match_at_every_block_count(ray_session):
    """The LSH bucket pairing chains each bucket's ids in id order whatever
    the input blocks: two adjacent buckets whose first ids are equal (the
    case a block tag by first id got wrong), 20 random bucket layouts and
    a bucket hash >= 2^63, each at 1..8 input blocks; and
    minhash_candidate_pairs gives one pair set at 1..4 blocks."""
    import ray.data

    from geotrellis_ray.stages.dedup import _bucket_pairs, minhash_candidate_pairs

    rng = np.random.default_rng(42)
    buckets = [((0, 4), [7]), ((0, 5), [9, 3, 7]), ((1, 2**63 + 5), [4, 1])]
    for b in range(20):
        ids = rng.choice(20, size=int(rng.integers(1, 5)), replace=False)
        buckets.append(((2 + b % 3, b), [int(i) for i in ids]))
    want = {(a, b) for _key, ids in buckets for a, b in zip(sorted(ids), sorted(ids)[1:])}
    assert {(3, 7), (7, 9), (1, 4)} <= want
    t = _band_stream(buckets)
    t = t.take(pa.array(rng.permutation(t.num_rows)))
    for blocks in range(1, 9):
        got = _bucket_pairs(ray.data.from_arrow(t).repartition(blocks), "doc_id").take_all()
        assert {(r["id_a"], r["id_b"]) for r in got} == want, blocks

    words = [f"w{i}" for i in range(60)]
    docs = []
    for d in range(24):
        text = " ".join(words[(d // 3) * 6:(d // 3) * 6 + 30])  # near-dup trios
        docs.append({"doc_id": d, "text": text if d % 3 else text + " tail"})
    pairs = [sorted((r["id_a"], r["id_b"]) for r in minhash_candidate_pairs(
        ray.data.from_items(docs).repartition(blocks), with_est=False).take_all())
        for blocks in range(1, 5)]
    assert pairs[0] and all(p == pairs[0] for p in pairs)


def test_simhash_near_dups(ray_session):
    import ray.data

    from geotrellis_ray.stages.dedup import simhash_near_dups

    docs = [
        {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4},
        {"doc_id": 1, "text": ("alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4).replace("kappa", "kappa", 1)},
        {"doc_id": 2, "text": "wholly different terms about numpy arrow shuffles actors pools " * 4},
    ]
    pairs = simhash_near_dups(ray.data.from_items(docs), max_hamming=8).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)} == {(0, 1)}


def test_hamming_band_pairs_nonadjacent_in_bucket(ray_session):
    """r03 regression: a true near-dup pair separated inside its bucket by
    an unrelated doc (id sorts between them, same band value) must still be
    found — the r02 adjacent-only verify missed it."""
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.dedup import hamming_band_pairs

    tab = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        # ids 1 and 3: hamming 1 (share bands 1..3). id 2 shares band 3
        # (top 16 bits zero) but is ~32 bits away from both.
        "h": pa.array(np.array([0, 0x0000FFFFFFFF0000, 1], np.uint64), pa.uint64()),
    })
    pairs = hamming_band_pairs(ray.data.from_arrow(tab), "h", "doc_id",
                               max_hamming=3).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)} == {(1, 3)}
    assert pairs["hamming"].tolist() == [1]


def test_ann_brute_force_vs_numpy(ray_session):
    import ray.data

    from geotrellis_ray.stages.ann import ann_brute_force, ann_lsh

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    emb = ds.to_pandas()
    m = np.stack([np.asarray(e, dtype=np.float32) for e in emb["embedding"]])
    ids = emb["vec_id"].to_numpy()
    q = m[:3] + 0.01
    got = ann_brute_force(ds, q, k=5).to_pandas()
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = (q / np.linalg.norm(q, axis=1, keepdims=True)).astype(np.float32)
    sims = qn @ mn.T
    for qi in range(3):
        order = np.lexsort((ids, -sims[qi]))[:5]
        want = ids[order].tolist()
        sub = got[got.query_id == qi].sort_values("rank")
        assert sub["vec_id"].tolist() == want
    # lsh variant is approximate: with random 16-dim embeddings expect partial
    # recall; the top-1 (the perturbed vector itself) must survive multi-probe
    lsh = ann_lsh(ds, q, k=5, nbits=4).to_pandas()
    for qi in range(3):
        got_ids = set(lsh[lsh.query_id == qi]["vec_id"].tolist())
        want_ids = set(ids[np.lexsort((ids, -sims[qi]))[:5]].tolist())
        assert len(got_ids & want_ids) >= 2
        top1 = ids[np.lexsort((ids, -sims[qi]))[0]]
        assert top1 in got_ids


def test_stats_and_polygonal_summary(ray_session):
    import ray.data

    from geotrellis_ray.stages.stats import (
        layer_histogram,
        layer_histogram_exact,
        layer_min_max_mean,
        polygonal_summary,
    )

    rng = np.random.default_rng(11)
    vals = rng.normal(50, 10, 5000)
    zones = rng.integers(0, 4, 5000)
    ds = ray.data.from_arrow(
        pa.table({"polygon_id": pa.array(zones, pa.int64()), "v": pa.array(vals, pa.float64())})
    ).repartition(4)
    h = layer_histogram(ds, "v")
    assert h.total() == pytest.approx(5000)
    assert h.mean() == pytest.approx(vals.mean(), rel=0.01)
    he = layer_histogram_exact(
        ray.data.from_arrow(pa.table({"v": pa.array((vals // 10).astype(np.int64))})).repartition(3),
        "v",
    )
    assert he.total() == 5000 and he.item_count(4) == int(((vals // 10) == 4).sum())
    mmm = layer_min_max_mean(ds, "v")
    assert mmm["min"] == pytest.approx(vals.min()) and mmm["n"] == 5000
    ps = polygonal_summary(ds, "polygon_id", "v").to_pandas().sort_values("polygon_id")
    for z in range(4):
        sub = vals[zones == z]
        row = ps[ps.polygon_id == z].iloc[0]
        assert row["n"] == len(sub)
        assert row[f"sum_v"] == pytest.approx(sub.sum())
        assert row[f"mean_v"] == pytest.approx(sub.mean())


def test_rasterize_salted_equals_unsalted(ray_session):
    """Salt-and-split for the non-mergeable paint op: painting per
    (key, salt) shard with a z-buffer then zmerging must equal the
    single-group paint for ANY shard split (associativity of the
    z-priority rule)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core import wkb as _wkb
    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.core.raster import decode_tile
    from geotrellis_ray.stages.rasterize_stage import rasterize_features

    layout = LayoutDefinition(Extent(0.0, 0.0, 8.0, 8.0), TileLayout(2, 2, 16, 16))
    rng = np.random.default_rng(9)
    rows = []
    # skew: 60 overlapping boxes crammed into one tile + a few elsewhere
    for i in range(60):
        x0 = rng.uniform(0.2, 2.8); y0 = rng.uniform(0.2, 2.8)
        w = rng.uniform(0.4, 1.0); h = rng.uniform(0.4, 1.0)
        ring = np.array([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h), (x0, y0)])
        rows.append({"polygon_id": i, "wkb": _wkb.encode({"type": "Polygon", "rings": [ring]}),
                     "zindex": int(i % 5), "value": float(i)})
    for i in range(5):
        ring = np.array([(5.0 + i * 0.3, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0 + i * 0.3, 6.0),
                         (5.0 + i * 0.3, 5.0)])
        rows.append({"polygon_id": 100 + i, "wkb": _wkb.encode({"type": "Polygon", "rings": [ring]}),
                     "zindex": 1, "value": float(200 + i)})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    def to_map(out):
        return {(t["key_col"], t["key_row"]): decode_tile(t["cells"], t["cols"], t["rows"], t["cell_type"])
                for t in out.take_all()}

    plain = to_map(rasterize_features(ds, layout))
    salted = to_map(rasterize_features(ray.data.from_arrow(pa.Table.from_pylist(rows)), layout,
                                       salt_k=4, hot_threshold=1.5, salt_sample=1.0))
    assert set(plain) == set(salted)
    for k in plain:
        np.testing.assert_allclose(salted[k], plain[k], equal_nan=True)


def test_pyramid_up_levels_writes_catalog(ray_session, tmp_path):
    """upLevels: every zoom dir written, root zoom has 1 tile, each level's
    stitched mosaic equals the decimated mosaic of the level below."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core.raster import decode_tile, encode_tile
    from geotrellis_ray.core.sfc import zorder
    from geotrellis_ray.sources.layer import read_layer, read_layer_metadata
    from geotrellis_ray.stages.pyramid import pyramid_up_levels

    rng = np.random.default_rng(21)
    rows = []
    for c in range(4):
        for r in range(4):
            a = rng.uniform(1, 9, (8, 8))
            cells, cols, trows, ct = encode_tile(a)
            rows.append({"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                         "cells": cells, "cols": cols, "rows": trows, "cell_type": ct})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    catalog = str(tmp_path / "cat")
    paths = pyramid_up_levels(ds, catalog, "demo", zoom=2, down_to=0)
    assert sorted(paths) == [0, 1, 2]
    z1 = read_layer(catalog, "demo", 1).take_all()
    z0 = read_layer(catalog, "demo", 0).take_all()
    assert len(z1) == 4 and len(z0) == 1
    meta = read_layer_metadata(catalog, "demo", 1)
    assert meta.zoom == 1
    t0 = decode_tile(z0[0]["cells"], z0[0]["cols"], z0[0]["rows"], z0[0]["cell_type"])
    assert t0.shape == (8, 8) and not np.isnan(t0).any()


def test_parallelism_determinism_block_structure(ray_session):
    """SURVEY §5 item 2 (proxy): identical canonical output regardless of the
    parallel decomposition — 1 block vs 32 blocks through the same pipeline.
    (A fresh-cluster num_cpus=1-vs-8 comparison is exercised by bench.py
    --scaling children; spawning extra Ray clusters under pytest thrashes
    this host.)"""
    import pyarrow.parquet as pq
    import ray.data

    from geotrellis_ray.entry_queries import derive_coords_batch, _tile_keys_z4
    from geotrellis_ray.stages.agg import partial_groupby

    t = pq.read_table("/root/testdata/sf0.01/events.parquet", columns=["event_id"])

    def run(nblocks):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        keyed = ds.map_batches(
            lambda b: _tile_keys_z4(derive_coords_batch(b, "event_id")),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        df = partial_groupby(keyed, ["key_col", "key_row"], [("key_col", "count", "n")]).to_pandas()
        return df.sort_values(["key_col", "key_row"]).reset_index(drop=True)

    import pandas as pd

    pd.testing.assert_frame_equal(run(1), run(32))


def test_hilbert_layer_roundtrip_bbox_query(ray_session, tmp_path):
    """Write a layer keyed by the HILBERT curve, read back with a bbox query:
    the sidecar's sfc_kind drives the range decomposition; result set equals
    the brute-force key filter."""
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core.layout import KeyBounds
    from geotrellis_ray.core.sfc import hilbert
    from geotrellis_ray.sources.layer import read_layer, write_layer

    zoom = 5
    n = 1 << zoom
    cols, rows_ = np.meshgrid(np.arange(n), np.arange(n))
    cols, rows_ = cols.ravel(), rows_.ravel()
    t = pa.table({
        "key_col": pa.array(cols.astype(np.int32), pa.int32()),
        "key_row": pa.array(rows_.astype(np.int32), pa.int32()),
        "sfc": pa.array(hilbert(cols, rows_, zoom), pa.uint64()),
        "v": pa.array(np.arange(n * n, dtype=np.int64)),
    })
    catalog = str(tmp_path / "cat")
    write_layer(ray.data.from_arrow(t), catalog, "hil", zoom, sfc_kind="hilbert")
    got = read_layer(catalog, "hil", zoom, intersects=KeyBounds(3, 5, 9, 12)).to_pandas()
    exp_keys = {(c, r) for c in range(3, 10) for r in range(5, 13)}
    assert {(r.key_col, r.key_row) for r in got.itertuples()} == exp_keys
    assert len(got) == len(exp_keys)


def test_partial_groupby_single_falls_back_on_large_key_set(ray_session, monkeypatch):
    """partial_groupby must not trust a bounded key set: with an
    adversarially large one (threshold patched down) it takes the sort
    merge and still matches the oracle."""
    import ray.data

    import geotrellis_ray.stages.agg as agg_mod
    from geotrellis_ray.stages.agg import partial_groupby

    n = 500
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),   # every row its own group
        "v": pa.array(np.arange(n, dtype=np.int64) * 3),
    })
    ds = ray.data.from_arrow(t).repartition(8)
    monkeypatch.setattr(agg_mod, "_SINGLE_DRIVER_MAX_BYTES", 0)
    monkeypatch.setattr(agg_mod, "_SINGLE_FINAL_MAX_BYTES", 10)
    got = (partial_groupby(ds, ["k"], [("v", "sum", "s"), ("v", "count", "n")])
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(got) == n
    np.testing.assert_array_equal(got["s"].to_numpy(), np.arange(n) * 3)
    np.testing.assert_array_equal(got["n"].to_numpy(), np.ones(n, dtype=np.int64))
    # and the small-key path still uses the driver merge (same answer)
    monkeypatch.undo()
    got2 = (partial_groupby(ds, ["k"], [("v", "sum", "s"), ("v", "count", "n")])
            .to_pandas().sort_values("k").reset_index(drop=True))
    np.testing.assert_array_equal(got2["s"].to_numpy(), got["s"].to_numpy())


def test_hyperloglog_exact_properties():
    """Vectorized rank == Python int.bit_length (adversarial >2^53 values),
    merge(A,B) register-identical to sketch(A ∪ B), dict round-trip."""
    import numpy as np

    from geotrellis_ray.core.sketch import HyperLogLog, _bit_length_u64

    vals = np.array([0, 1, 2, (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
                     (1 << 60) - 1, 1 << 60, (1 << 63) + 12345, (1 << 64) - 1],
                    dtype=np.uint64)
    assert _bit_length_u64(vals).tolist() == [int(v).bit_length() for v in vals.tolist()]

    a, b = HyperLogLog(12), HyperLogLog(12)
    a.update(np.arange(0, 60_000, dtype=np.int64))
    b.update(np.arange(40_000, 120_000, dtype=np.int64))
    u = HyperLogLog(12).update(np.arange(0, 120_000, dtype=np.int64))
    a.merge(b)
    np.testing.assert_array_equal(a.reg, u.reg)
    back = HyperLogLog.from_dict(u.to_dict())
    np.testing.assert_array_equal(back.reg, u.reg)


def test_hyperloglog_accuracy_bounds():
    import numpy as np

    from geotrellis_ray.core.sketch import HyperLogLog

    for n in (100, 5_000, 200_000):
        est = HyperLogLog(12).update(np.arange(n, dtype=np.int64)).estimate()
        assert abs(est - n) / n < 0.05, (n, est)
    # string values route through the pandas C hasher
    doms = np.array([f"dom{i % 500}.example" for i in range(30_000)], dtype=object)
    est = HyperLogLog(12).update(doms).estimate()
    assert abs(est - 500) / 500 < 0.05


def test_approx_distinct_distributed(ray_session):
    """Dataset-level HLL == the single-sketch estimate (sketch merging is
    exact), and within 5% of the true distinct count."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.core.sketch import HyperLogLog
    from geotrellis_ray.stages.stats import approx_distinct

    rng = np.random.default_rng(4)
    vals = rng.integers(0, 50_000, 300_000)  # ~49.9k distinct
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(16)
    est = approx_distinct(ds, "v", p=12)
    single = HyperLogLog(12).update(vals).estimate()
    assert est == single  # distributed merge is lossless
    true = len(np.unique(vals))
    assert abs(est - true) / true < 0.05


def test_topk_sketch_bounds_and_merge():
    """Misra-Gries guarantees: true - N/(cap+1) - decremented <= est <= true;
    merged sketches obey the (doubled) bound; exact when distinct <= cap."""
    import collections

    import numpy as np

    from geotrellis_ray.core.sketch import TopKSketch

    rng = np.random.default_rng(0)
    vals = rng.zipf(1.3, 150_000)
    vals = vals[vals < 100_000].astype(str)
    s = TopKSketch(512)
    for i in range(0, len(vals), 10_000):
        s.update(vals[i:i + 10_000])
    true = collections.Counter(vals)
    est = dict(zip(s.keys, s.counts))
    eps = len(vals) / (s.capacity + 1)
    for key, t in true.most_common(20):
        e = est.get(key, 0)
        assert t - eps <= e <= t, (key, t, e)
    a, b = TopKSketch(512), TopKSketch(512)
    a.update(vals[:len(vals) // 2])
    b.update(vals[len(vals) // 2:])
    a.merge(b)
    esta = dict(zip(a.keys, a.counts))
    for key, t in true.most_common(10):
        assert t - 2 * eps <= esta.get(key, 0) <= t
    # exact regime: distinct <= capacity -> no decrement, exact counts
    small = np.array(["a", "b", "a", "c", "b", "a"], dtype=object)
    se = TopKSketch(16).update(small)
    assert se.decremented == 0
    assert dict(zip(se.keys, se.counts)) == {"a": 3, "b": 2, "c": 1}
    rt = TopKSketch.from_dict(se.to_dict())
    assert se.top(3) == rt.top(3)


def test_approx_top_k_distributed_exact_recount(ray_session):
    """Sketch candidates + exact re-count == the true top-k on Zipf data."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.stats import approx_top_k

    rng = np.random.default_rng(3)
    vals = rng.zipf(1.5, 100_000)
    vals = vals[vals < 10_000].astype(str)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(12)
    got = approx_top_k(ds, "v", k=10, capacity=512)
    true = collections.Counter(vals)
    exp = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert got == [(k, c) for k, c in exp]


def test_pq_adc_identity_and_reconstruction():
    """ADC(q, codes) == ||q - decode(codes)||^2 EXACTLY (the PQ invariant);
    finer quantizers reconstruct better."""
    import numpy as np

    from geotrellis_ray.stages.ann import pq_decode, pq_encode_matrix, pq_train

    rng = np.random.default_rng(0)
    cents = rng.normal(0, 5, (12, 64)).astype(np.float32)
    data = (cents[rng.integers(0, 12, 2000)] + rng.normal(0, 0.4, (2000, 64))).astype(np.float32)
    books = pq_train(data[:1000], m=8, ksub=64)
    codes = pq_encode_matrix(data, books)
    recd = pq_decode(codes, books)
    q = rng.normal(0, 5, (4, 64)).astype(np.float32)
    m, ksub, dsub = books.shape
    lut = np.empty((4, m, ksub))
    for j in range(m):
        diff = q[:, j * dsub:(j + 1) * dsub][:, None, :] - books[j][None]
        lut[:, j, :] = (diff.astype(np.float64) ** 2).sum(axis=2)
    adc = np.zeros((4, len(codes)))
    for j in range(m):
        adc += lut[:, j, :][:, codes[:, j].astype(int)]
    exact = ((q[:, None, :].astype(np.float64) - recd[None].astype(np.float64)) ** 2).sum(axis=2)
    np.testing.assert_allclose(adc, exact, rtol=1e-5, atol=1e-3)
    err8 = np.linalg.norm(data - recd, axis=1).mean()
    books16 = pq_train(data[:1000], m=16, ksub=64)
    rec16 = pq_decode(pq_encode_matrix(data, books16), books16)
    err16 = np.linalg.norm(data - rec16, axis=1).mean()
    assert err16 < err8  # finer product quantizer -> lower distortion


def test_pq_search_rerank_matches_brute(ray_session):
    """ADC candidates + exact re-rank vs numpy brute top-k: high overlap,
    and every returned distance is the EXACT squared distance."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.ann import pq_search_rerank, pq_train

    rng = np.random.default_rng(1)
    cents = rng.normal(0, 5, (10, 32)).astype(np.float32)
    data = (cents[rng.integers(0, 10, 2500)] + rng.normal(0, 0.4, (2500, 32))).astype(np.float32)
    books = pq_train(data[:1200], m=8, ksub=64)
    q = data[rng.integers(0, 2500, 5)] + rng.normal(0, 0.05, (5, 32)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(2500, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(data.ravel(), pa.float32()), 32),
    })
    ds = ray.data.from_arrow(tbl).repartition(6)
    got = pq_search_rerank(ds, q, books, k=5, k_cand=300)
    brute = ((q[:, None, :].astype(np.float64) - data[None].astype(np.float64)) ** 2).sum(axis=2)
    overlap = 0.0
    for qi in range(5):
        g = got[got["query_id"] == qi].sort_values("rank")
        true5 = set(np.argsort(brute[qi])[:5].tolist())
        overlap += len(true5 & set(g["vec_id"].tolist())) / 5
        # exact distances for whatever was returned
        for _, row in g.iterrows():
            assert abs(row["dist"] - brute[qi][int(row["vec_id"])]) < 1e-6
    assert overlap / 5 >= 0.8, overlap / 5


def test_count_min_sketch_properties():
    from geotrellis_ray.core.sketch import CountMinSketch

    rng = np.random.default_rng(4)
    vals = rng.integers(0, 50, 10_000)  # 50 keys, skewed-ish uniform
    true = {k: int((vals == k).sum()) for k in range(50)}
    s = CountMinSketch(width=512, depth=5)
    s.update(vals)
    est = s.query(list(range(50)))
    # one-sided: never underestimates
    assert all(int(e) >= true[k] for k, e in zip(range(50), est))
    # tight at this width (50 keys in 512 cols, min over 5 rows)
    assert sum(int(e) - true[k] for k, e in zip(range(50), est)) == 0
    # merge == single-pass sketch (additive)
    a = CountMinSketch(512, 5); a.update(vals[:5000])
    b = CountMinSketch(512, 5); b.update(vals[5000:])
    a.merge(b)
    assert (a.table == s.table).all()
    # round-trips through dict
    r = CountMinSketch.from_dict(s.to_dict())
    assert (r.table == s.table).all()


def test_approx_counts_distributed(ray_session):
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.stats import approx_counts

    vals = [f"k{i % 7}" for i in range(700)]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(5)
    est = approx_counts(ds, "v", [f"k{i}" for i in range(7)] + ["absent"])
    assert all(est[f"k{i}"] == 100 for i in range(7))
    assert est["absent"] == 0


def test_jenks_breaks_exhaustive_oracle(ray_session):
    """Fisher DP == exhaustive search over all split placements (small m)."""
    from itertools import combinations

    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.stats import jenks_breaks

    rng = np.random.default_rng(2)
    vals = np.concatenate([rng.normal(0, 1, 60), rng.normal(10, 1, 30),
                           rng.normal(25, 2, 40)]).round(1)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(4)
    k = 3
    got = jenks_breaks(ds, "v", k)
    assert len(got) == k - 1

    uniq, cnt = np.unique(vals, return_counts=True)

    def sse_range(lo, hi):
        v, c = uniq[lo:hi + 1], cnt[lo:hi + 1]
        W = c.sum()
        return float((c * v * v).sum() - (c * v).sum() ** 2 / W)

    m = len(uniq)
    best, best_breaks = np.inf, None
    for splits in combinations(range(1, m), k - 1):
        bounds = [0, *splits, m]
        tot = sum(sse_range(bounds[i], bounds[i + 1] - 1) for i in range(k))
        if tot < best:
            best = tot
            best_breaks = [float(uniq[s - 1]) for s in splits]
    got_sse = 0.0
    bounds_idx = [0] + [int(np.searchsorted(uniq, b, side="right")) for b in got] + [m]
    for i in range(k):
        got_sse += sse_range(bounds_idx[i], bounds_idx[i + 1] - 1)
    assert got_sse == pytest.approx(best, rel=1e-12)
    assert got == pytest.approx(best_breaks)
    # the tri-modal clusters are separated
    assert 0 < got[0] < 10 and 10 <= got[1] < 25


def test_approx_distinct_by_group(ray_session):
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.stages.stats import approx_distinct_by

    rng = np.random.default_rng(10)
    keys, vals = [], []
    true = {"a": 1000, "b": 137, "c": 3}
    for k, n in true.items():
        ids = rng.choice(n * 10, 5 * n)  # repeats; distinct <= n*10
        ids = (ids % n)                  # exactly n distinct
        keys += [k] * len(ids)
        vals += ids.tolist()
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys),
                                       "v": pa.array(vals)})).repartition(6)
    got = {r["k"]: r["approx_distinct"]
           for r in approx_distinct_by(ds, "k", "v", p=12).take_all()}
    for k, n in true.items():
        assert abs(got[k] - n) / n < 0.05  # ~1.6% expected at p=12
    # tiny groups sit in the linear-counting regime: near-exact
    assert got["c"] == pytest.approx(3.0, rel=1e-2)


def test_approx_distinct_by_equals_hyperloglog(ray_session):
    """Each key's estimate is the one a single HyperLogLog over that key's
    values gives, ``==``: groups in the linear-counting regime, groups in
    the raw regime, and a null string key (one group, as in GROUP BY)."""
    import ray.data

    from geotrellis_ray.core.sketch import HyperLogLog
    from geotrellis_ray.stages.stats import approx_distinct_by

    p = 8  # m = 256 registers: the raw regime starts near 640 distinct
    rng = np.random.default_rng(12)
    sizes = {"tiny": 3, "small": 40, "mid": 300, "big": 5000, "huge": 20000, None: 150}
    keys, vals = [], []
    for k, n in sizes.items():
        v = rng.integers(0, n, 3 * n)
        keys += [k] * len(v)
        vals += v.tolist()
    t = pa.table({"k": pa.array(keys, pa.string()), "v": pa.array(vals, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(9)
    got = {r["k"]: r["approx_distinct"] for r in approx_distinct_by(ds, "k", "v", p=p).take_all()}
    assert set(got) == set(sizes)
    df = t.to_pandas()
    regimes = set()
    for k in sizes:
        hll = HyperLogLog(p).update(df.loc[(df["k"] == k) if k else df["k"].isna(), "v"].to_numpy())
        assert got[k] == hll.estimate(), k
        m = float(hll.m)
        raw = 0.7213 / (1 + 1.079 / m) * m * m / np.sum(np.exp2(-hll.reg.astype(float)))
        regimes.add("linear" if raw <= 2.5 * m and (hll.reg == 0).any() else "raw")
    assert regimes == {"linear", "raw"}
    # no rows in, no rows out: typed when the input has a schema
    empty = approx_distinct_by(ds.filter(expr="v < 0"), "k", "v", p=p)
    assert empty.count() == 0 and empty.schema().names == ["k", "approx_distinct"]
    assert approx_distinct_by(ds.limit(0), "k", "v", p=p).count() == 0


def test_embedding_near_dups_matches_bucket_bruteforce(ray_session):
    """Every pair inside one LSH bucket with cosine >= threshold, no other:
    brute force over the same sign-bit buckets, pair by pair."""
    import ray.data

    from geotrellis_ray.stages.ann import _normalize, embedding_near_dups, hyperplanes, lsh_bucket

    rng = np.random.default_rng(17)
    d, nbits, threshold = 16, 6, 0.99
    base = rng.normal(0, 1, (400, d)).astype(np.float32)
    src = rng.choice(400, 60, replace=False)
    near = base[src] + 0.02 * rng.normal(0, 1, (60, d)).astype(np.float32)
    emb = np.vstack([base, near, base[src[:10]]])  # plus 10 exact copies
    ids = rng.permutation(len(emb)).astype(np.int64) * 3
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([r.tolist() for r in emb], pa.list_(pa.float32()))})
    got = embedding_near_dups(ray.data.from_arrow(t).repartition(7), threshold=threshold,
                              nbits=nbits).to_pandas()

    m = _normalize(emb)
    bucket = lsh_bucket(m, hyperplanes(d, nbits))
    exp = {}
    for i in range(len(emb)):
        for j in range(len(emb)):
            if ids[i] < ids[j] and bucket[i] == bucket[j]:
                cos = float(np.dot(m[i].astype(np.float64), m[j].astype(np.float64)))
                if cos >= threshold:
                    exp[(int(ids[i]), int(ids[j]))] = cos
    assert len(exp) >= 50
    pairs = dict(zip(zip(got["id_a"].tolist(), got["id_b"].tolist()), got["cosine"].tolist()))
    assert len(pairs) == len(got)
    assert set(pairs) == set(exp)
    for key, cos in exp.items():
        assert pairs[key] == pytest.approx(cos, abs=1e-5)


def test_ann_dot_metric_matches_numpy(ray_session):
    """metric='dot' (MIPS): top-k by inner product, descending, id-tie
    ascending — vs a brute numpy oracle on integer-valued embeddings."""
    import ray.data

    from geotrellis_ray.stages.ann import ann_brute_force

    rng = np.random.default_rng(7)
    emb = rng.integers(0, 9, size=(300, 8)).astype(np.float64)
    q = rng.integers(0, 9, size=(3, 8)).astype(np.float64)
    tab = pa.table({"vec_id": pa.array(np.arange(300), pa.int64()),
                    "embedding": pa.array(list(emb), pa.list_(pa.float64()))})
    got = ann_brute_force(ray.data.from_arrow(tab), q, k=5, metric="dot").to_pandas()
    dots = q @ emb.T  # exact integers in float64
    for qi in range(3):
        g = got[got.query_id == qi].sort_values("rank")
        # the top-k SCORE multiset is deterministic (ids are not under
        # boundary ties — same convention as q_ann_sqeuclid/q_ann_dot)
        want = np.sort(dots[qi])[::-1][:5]
        assert g["dot"].tolist() == want.tolist()
        # and every returned id really has the reported score
        assert (dots[qi][g["vec_id"].to_numpy()] == g["dot"].to_numpy()).all()
