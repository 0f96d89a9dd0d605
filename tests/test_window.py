"""Window-operator tests: sliding-window explode and the distributed as-of
lag against pandas oracles, with the input force-split across many blocks so
the boundary stitch actually runs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

ray = pytest.importorskip("ray")
import ray.data  # noqa: E402

from geotrellis_ray.stages.window import as_of_prev, explode_windows_batch, sliding_window_agg  # noqa: E402

HOUR = 3_600_000_000


def _events(n=2000, seed=8):
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, 50 * HOUR, n)
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "part": pa.array(rng.choice(["a", "b", "c"], n)),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })


def test_explode_windows_counts():
    t = _events(500)
    out = explode_windows_batch(t, "ts", span_us=2 * HOUR, slide_us=HOUR)
    assert out.num_rows == 1000  # span/slide = 2 copies each
    ts = out["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    ws = out["window_start"].to_numpy(zero_copy_only=False)
    assert ((ts >= ws) & (ts < ws + 2 * HOUR)).all()


def test_sliding_window_agg_matches_pandas(ray_session):
    t = _events(3000)
    ds = ray.data.from_arrow(t).repartition(11)
    got = sliding_window_agg(ds, ["part"], [("v", "count", "n"), ("v", "sum", "s")],
                             ts_col="ts", span_us=2 * HOUR, slide_us=HOUR).to_pandas()
    df = t.to_pandas()
    df["tsu"] = df["ts"].astype("int64")
    rows = []
    for j in (0, 1):
        d = df.copy()
        d["window_start"] = (d["tsu"] // HOUR - j) * HOUR
        rows.append(d)
    exp = (pd.concat(rows).groupby(["part", "window_start"])
           .agg(n=("v", "size"), s=("v", "sum")).reset_index())
    got = got.sort_values(["part", "window_start"]).reset_index(drop=True)
    exp = exp.sort_values(["part", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["part", "window_start", "n", "s"]], exp)


def test_as_of_prev_matches_pandas_lag(ray_session):
    t = _events(2500, seed=9)
    ds = ray.data.from_arrow(t).repartition(17)  # many small blocks -> stitches
    got = as_of_prev(ds, "part", "ts", "event_id", "v", sentinel=-999).to_pandas()
    df = t.to_pandas()
    df["tsu"] = df["ts"].astype("int64")
    df = df.sort_values(["part", "tsu", "event_id"], kind="stable")
    df["prev_v"] = df.groupby("part")["v"].shift(1).fillna(-999).astype("int64")
    exp = df[["event_id", "part", "prev_v"]].sort_values("event_id").reset_index(drop=True)
    got = got.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["event_id", "part", "prev_v"]], exp)


def test_as_of_prev_single_row_blocks(ray_session):
    """Degenerate 1-row blocks: every lag crosses a block boundary."""
    n = 40
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.arange(n) * HOUR, pa.int64()).cast(pa.timestamp("us")),
        "part": pa.array(["p"] * n),
        "v": pa.array(np.arange(n) * 10, pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(n)
    got = as_of_prev(ds, "part", "ts", "event_id", "v", sentinel=-1).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    exp = np.r_[-1, np.arange(n - 1) * 10]
    np.testing.assert_array_equal(got["prev_v"].to_numpy(), exp)


def test_range_join_matches_pandas(ray_session):
    """Bucketed interval join == brute-force theta join, incl. intervals
    spanning many buckets and points on interval edges."""
    rng = np.random.default_rng(12)
    nv = 3000
    vals = rng.uniform(-50, 150, nv)
    vals[:10] = np.arange(10) * 12.5  # exact bucket/interval edges
    pts = pa.table({"pt_id": pa.array(np.arange(nv), pa.int64()),
                    "v": pa.array(vals, pa.float64())})
    ivs = pa.table({
        "iv_id": pa.array(np.arange(30), pa.int64()),
        "lo": pa.array(rng.uniform(-60, 120, 30), pa.float64()),
        "hi": pa.array(np.zeros(30), pa.float64()),
    })
    hi = ivs["lo"].to_numpy() + rng.uniform(0.5, 80, 30)  # up to 8 buckets wide
    ivs = ivs.set_column(2, "hi", pa.array(hi, pa.float64()))

    from geotrellis_ray.stages.join import range_join

    got = range_join(ray.data.from_arrow(pts).repartition(7),
                     ray.data.from_arrow(ivs).repartition(3),
                     "v", "lo", "hi", bucket_width=10.0, num_partitions=4).to_pandas()
    got = got[["pt_id", "iv_id"]].sort_values(["pt_id", "iv_id"]).reset_index(drop=True)
    lo = ivs["lo"].to_numpy(); hi2 = ivs["hi"].to_numpy()
    exp_rows = [(int(p), int(i)) for p in range(nv) for i in range(30)
                if lo[i] <= vals[p] < hi2[i]]
    exp = pd.DataFrame(exp_rows, columns=["pt_id", "iv_id"])
    assert len(exp) > 1000
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True))


def test_grouped_top_k_and_exact_quantiles(ray_session):
    rng = np.random.default_rng(31)
    t = pa.table({"g": pa.array(rng.choice(["x", "y"], 4000)),
                  "v": pa.array(rng.integers(0, 10_000, 4000), pa.int64()),
                  "id": pa.array(np.arange(4000), pa.int64())})
    from geotrellis_ray.stages.agg import exact_quantiles, grouped_top_k

    got = grouped_top_k(ray.data.from_arrow(t).repartition(7), ["g"], "v", 4,
                        tie_col="id").to_pandas()
    df = t.to_pandas()
    exp = (df.sort_values(["v", "id"], ascending=[False, True], kind="stable")
             .groupby("g").head(4))
    assert len(got) == 8
    got_s = got.sort_values(["g", "rank"]).reset_index(drop=True)
    exp_s = exp.sort_values(["g", "v"], ascending=[True, False]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s[["g", "v", "id"]], exp_s[["g", "v", "id"]])

    qs = exact_quantiles(ray.data.from_arrow(t).repartition(9), "v", [0.0, 0.37, 0.5, 1.0])
    sv = np.sort(t["v"].to_numpy())
    for q, val in qs.items():
        exp_idx = max(0, int(np.ceil(q * len(sv))) - 1)
        assert val == sv[exp_idx], (q, val, sv[exp_idx])


def test_duplicated_spans_hash_and_text_agree(ray_session):
    """key="hash" finds exactly the same duplicated spans as key="text"
    (modulo the grouping column), incl. planted cross-doc duplicates."""
    base = "the quick brown fox jumps over the lazy dog and keeps running far away " * 3
    texts = [base + "tail one", "prefix " + base, "completely different text " * 10,
             "short", base[:60]]
    t = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    from geotrellis_ray.stages.dedup import duplicated_spans

    ds = ray.data.from_arrow(t).repartition(3)
    by_text = duplicated_spans(ds, window=30, stride=10, key="text").to_pandas()
    by_hash = duplicated_spans(ray.data.from_arrow(t).repartition(3),
                               window=30, stride=10, key="hash").to_pandas()
    assert len(by_text) > 0
    a = by_text.sort_values(["n", "min_doc"]).reset_index(drop=True)[["n", "min_doc"]]
    b = by_hash.sort_values(["n", "min_doc"]).reset_index(drop=True)[["n", "min_doc"]]
    pd.testing.assert_frame_equal(a, b)
    # doc 2's internal phrase repetition is legitimately detected (intra-doc
    # duplication is duplicated training text too); doc 3 is too short for
    # any span and doc 4 only shares base-prefix spans whose min_doc is 0
    assert set(by_text["min_doc"]) <= {0, 2}


def _sessions_oracle(df: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """Plain-pandas gaps-and-islands: per user in (ts, id) order, session_no
    = 1 + count of gaps > gap_us before the row."""
    df = df.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(drop=True)
    out = []
    for uid, g in df.groupby("user_id"):
        ts = g["ts"].to_numpy()
        new = np.ones(len(g), dtype=np.int64)
        new[1:] = (ts[1:] - ts[:-1] > gap_us).astype(np.int64)
        out.append(pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                                 "user_id": uid,
                                 "session_no": np.cumsum(new)}))
    return pd.concat(out).sort_values("event_id").reset_index(drop=True)


@pytest.mark.parametrize("n_blocks", [1, 7, 40])
def test_sessionize_matches_pandas(ray_session, n_blocks):
    """Adversarial block splits: few users x many events so nearly every
    block boundary cuts a user's stream (the driver-stitch path), including
    boundaries inside an open session (delta-1 patch) and at real gaps."""
    from geotrellis_ray.stages.window import sessionize

    rng = np.random.default_rng(42 + n_blocks)
    n = 400
    gap_us = 1000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 3, n),
        # gaps cluster right around the threshold so both patch branches fire
        "ts": None,
    })
    steps = rng.choice([1, 500, 999, 1000, 1001, 5000], size=n)
    df["ts"] = df.groupby("user_id").cumcount() * 0  # placeholder
    for uid in range(3):
        m = df["user_id"] == uid
        df.loc[m, "ts"] = np.cumsum(steps[m.to_numpy()])
    df["ts"] = df["ts"].astype(np.int64)

    tbl = pa.table({"event_id": df["event_id"], "user_id": df["user_id"],
                    "ts": pa.array(df["ts"], pa.timestamp("us"))})
    ds = ray.data.from_arrow(tbl).repartition(n_blocks)
    got = sessionize(ds, "user_id", "ts", "event_id", gap_us=gap_us).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    exp = _sessions_oracle(df, gap_us)
    pd.testing.assert_frame_equal(
        got[["event_id", "user_id", "session_no"]].astype(np.int64),
        exp.astype(np.int64))


def test_global_top_k(ray_session):
    """global_top_k (partial combiner, no sort/repartition operator) vs the
    full-sort oracle, with duplicate order values exercising the tie col."""
    rng = np.random.default_rng(43)
    t = pa.table({"v": pa.array(rng.integers(0, 500, 4000), pa.int64()),
                  "id": pa.array(np.arange(4000), pa.int64()),
                  "tag": pa.array(rng.choice(["p", "q"], 4000))})
    from geotrellis_ray.stages.agg import global_top_k

    got = (global_top_k(ray.data.from_arrow(t).repartition(11), "v", 7,
                        descending=True, tie_col="id")
           .to_pandas().reset_index(drop=True))
    exp = (t.to_pandas()
           .sort_values(["v", "id"], ascending=[False, True], kind="stable")
           .head(7).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)

    # ascending + k larger than the input
    got_all = global_top_k(ray.data.from_arrow(t).repartition(3), "v",
                           10_000, descending=False, tie_col="id").to_pandas()
    assert len(got_all) == 4000
    assert got_all["v"].is_monotonic_increasing


def test_pack_token_shards(ray_session):
    """Distributed prefix scan vs a driver cumsum oracle; docs straddle
    shard boundaries; result invariant to input block layout."""
    from geotrellis_ray.stages.agg import pack_token_shards

    rng = np.random.default_rng(47)
    toks = rng.integers(1, 900, 300).astype(np.int64)
    t = pa.table({"doc_id": pa.array(np.arange(300), pa.int64()),
                  "n_tokens": pa.array(toks)})
    ex = np.zeros(300, dtype=np.int64)
    ex[1:] = np.cumsum(toks[:-1])
    for nparts in (1, 13):
        ds = ray.data.from_arrow(t).repartition(nparts)
        got = (pack_token_shards(ds, budget=1000).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        np.testing.assert_array_equal(got["shard_id"].to_numpy(), ex // 1000)
        np.testing.assert_array_equal(got["offset_in_shard"].to_numpy(), ex % 1000)
    # at least one doc must straddle a boundary for the test to mean much
    assert ((ex % 1000) + toks > 1000).any()


def _rank_oracle(df):
    """Brute-force pandas window oracle: rn ties broken by id, rnk/drnk on
    the order value alone, inclusive running sum in (ord, id) order."""
    out = []
    for uid, g in df.sort_values(["ordv", "event_id"]).groupby("part"):
        n = len(g)
        o = g["ordv"].to_numpy()
        rn = np.arange(1, n + 1, dtype=np.int64)
        new = np.ones(n, dtype=bool)
        new[1:] = o[1:] != o[:-1]
        grp_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        out.append(pd.DataFrame({
            "event_id": g["event_id"].to_numpy(), "part": uid, "rn": rn,
            "rnk": grp_start + 1,
            "drnk": np.cumsum(new).astype(np.int64),
            "rsum": np.cumsum(g["val"].to_numpy()),
        }))
    return pd.concat(out).sort_values("event_id").reset_index(drop=True)


@pytest.mark.parametrize("n_blocks", [1, 7, 53])
def test_window_rank_matches_oracle(ray_session, n_blocks):
    """Adversarial block splits: 3 partitions x heavy order-value ties so
    boundaries cut partitions mid-tie-group (the rnk group-override path),
    mid-partition (additive rn/rsum path), and at distinct-value edges
    (the drnk tie branch)."""
    from geotrellis_ray.stages.window import window_rank

    rng = np.random.default_rng(11 + n_blocks)
    n = 600
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "part": rng.choice(["a", "b", "c"], n),
        "ordv": rng.integers(0, 6, n).astype(np.int64),  # ~33 rows per tie group
        "val": rng.integers(-50, 100, n).astype(np.int64),
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(n_blocks)
    got = (window_rank(ds, "part", "ordv", "event_id", "val").to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    exp = _rank_oracle(df)
    pd.testing.assert_frame_equal(
        got[["event_id", "part", "rn", "rnk", "drnk", "rsum"]], exp)


def test_window_rank_single_value_partition(ray_session):
    """All rows one partition, one order value, tiny blocks: the entire
    stream is one tie group — every block after the first takes the
    group-override branch and rnk must stay 1 throughout."""
    from geotrellis_ray.stages.window import window_rank

    n = 64
    t = pa.table({"event_id": pa.array(np.arange(n), pa.int64()),
                  "part": pa.array(["x"] * n),
                  "ordv": pa.array(np.zeros(n, dtype=np.int64)),
                  "val": pa.array(np.ones(n, dtype=np.int64))})
    ds = ray.data.from_arrow(t).repartition(16)
    got = (window_rank(ds, "part", "ordv", "event_id", "val").to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    np.testing.assert_array_equal(got["rn"].to_numpy(), np.arange(1, n + 1))
    np.testing.assert_array_equal(got["rnk"].to_numpy(), np.ones(n, dtype=np.int64))
    np.testing.assert_array_equal(got["drnk"].to_numpy(), np.ones(n, dtype=np.int64))
    np.testing.assert_array_equal(got["rsum"].to_numpy(), np.arange(1, n + 1))


@pytest.mark.parametrize("k", [1, 3, 7, 50])
def test_window_rank_stats_matches_duckdb(ray_session, k):
    """PERCENT_RANK + NTILE(k) vs DuckDB across k regimes including k > the
    largest partition (every row its own bucket) and a 1-row partition
    (pctr must be 0.0, bucket 1)."""
    import duckdb

    from geotrellis_ray.stages.window import window_rank_stats

    rng = np.random.default_rng(5 + k)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "part": rng.choice(["a", "b", "solo"], n, p=[0.6, 0.398, 0.002]),
        "ordv": rng.integers(0, 8, n).astype(np.int64),
    })
    if (df["part"] == "solo").sum() == 0:
        df.loc[0, "part"] = "solo"
    exp = duckdb.sql(f"""
        SELECT event_id,
               PERCENT_RANK() OVER (PARTITION BY part ORDER BY ordv) AS pctr,
               NTILE({k}) OVER (PARTITION BY part ORDER BY ordv, event_id) AS bucket
        FROM df ORDER BY event_id""").df()
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(11)
    got = (window_rank_stats(ds, "part", "ordv", "event_id", ntile=k).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    np.testing.assert_array_equal(got["bucket"].to_numpy(), exp["bucket"].to_numpy())
    np.testing.assert_array_equal(got["pctr"].to_numpy(), exp["pctr"].to_numpy())


def test_as_of_next_matches_pandas_lead(ray_session):
    from geotrellis_ray.stages.window import as_of_next

    t = _events(2500, seed=12)
    ds = ray.data.from_arrow(t).repartition(17)  # many blocks -> stitches
    got = as_of_next(ds, "part", "ts", "event_id", "v", sentinel=-999).to_pandas()
    df = t.to_pandas()
    df["tsu"] = df["ts"].astype("int64")
    df = df.sort_values(["part", "tsu", "event_id"], kind="stable")
    df["next_v"] = df.groupby("part")["v"].shift(-1).fillna(-999).astype("int64")
    exp = df[["event_id", "part", "next_v"]].sort_values("event_id").reset_index(drop=True)
    got = got.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["event_id", "part", "next_v"]], exp)


def test_as_of_next_single_row_blocks(ray_session):
    """Degenerate 1-row blocks: every lead crosses a block boundary."""
    from geotrellis_ray.stages.window import as_of_next

    n = 40
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.arange(n) * HOUR, pa.int64()).cast(pa.timestamp("us")),
        "part": pa.array(["p"] * n),
        "v": pa.array(np.arange(n) * 10, pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(n)
    got = as_of_next(ds, "part", "ts", "event_id", "v", sentinel=-1).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    exp = np.r_[np.arange(1, n) * 10, -1]
    np.testing.assert_array_equal(got["next_v"].to_numpy(), exp)


@pytest.mark.parametrize("k", [1, 5, 64])
def test_moving_window_sum_matches_pandas(ray_session, k):
    from geotrellis_ray.stages.window import moving_window_sum

    rng = np.random.default_rng(31 + k)
    n = 3000
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(rng.integers(0, 40 * HOUR, n), pa.int64()),
        "part": pa.array(rng.choice(["a", "b", "c", "d"], n)),
        "v": pa.array(rng.integers(-500, 500, n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(13)
    got = moving_window_sum(ds, "part", "ts", "event_id", "v", k).to_pandas()
    df = t.to_pandas().sort_values(["part", "ts", "event_id"], kind="stable")
    g = df.groupby("part")["v"]
    df["mov_sum"] = g.rolling(k, min_periods=1).sum().reset_index(level=0, drop=True).astype("int64")
    df["w_n"] = g.rolling(k, min_periods=1).count().reset_index(level=0, drop=True).astype("int64")
    df["mov_avg"] = df["mov_sum"] / df["w_n"]
    exp = df[["event_id", "part", "mov_sum", "w_n", "mov_avg"]].sort_values(
        "event_id").reset_index(drop=True)
    got = got.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_keep_best_dedup_matches_bruteforce(ray_session):
    from geotrellis_ray.stages.dedup import keep_best_dedup

    rng = np.random.default_rng(3)
    n = 20_000
    keys = rng.integers(0, 6000, n)  # skewed collisions
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "key": pa.array(np.char.add("k", keys.astype(str))),
        "score": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(9)
    got = keep_best_dedup(ds, "key", "score", "doc_id").to_pandas()
    df = t.to_pandas()
    # brute: max (score, doc_id) per key
    df = df.sort_values(["key", "score", "doc_id"]).groupby("key").tail(1)
    cnt = t.to_pandas().groupby("key").size().rename("n_dups")
    exp = df.merge(cnt, on="key").sort_values("key").reset_index(drop=True)
    got = got.sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["key", "doc_id", "score", "n_dups"]],
                                  exp[["key", "doc_id", "score", "n_dups"]])
    # contract violations fail loud
    bad = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([-1], pa.int64()), "key": pa.array(["x"]),
        "score": pa.array([1], pa.int64())}))
    with pytest.raises(Exception):
        keep_best_dedup(bad, "key", "score", "doc_id").take_all()
