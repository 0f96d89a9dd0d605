"""Brute-force oracles for stages/agg.sort_group_aggregate — the
unbounded-cardinality grouped aggregate (ONE ``group_map`` + vectorized
segment reduce) — and the fact ``group_map`` rests on: after a range sort
on the group keys the first map sees every group in one block. This is the
r5 replacement for Ray's sort-based Aggregate in the #groups ~ #rows regime
(measured ~300x per-group overhead there: 6.3M unique int64 keys,
Dataset.sort 0.6 s vs groupby().aggregate() 189.5 s on this host)."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_ray.stages.agg import sort_group_aggregate


def _brute(keys, vals):
    exp = {}
    for k, v in zip(keys, vals):
        e = exp.get(k)
        if e is None:
            exp[k] = [1, int(v), int(v), int(v)]
        else:
            e[0] += 1
            e[1] += int(v)
            e[2] = min(e[2], int(v))
            e[3] = max(e[3], int(v))
    return exp


@pytest.mark.parametrize("nkeys,blocks", [(50, 16), (60_000, 16), (9_999, 3)])
def test_sort_group_aggregate_matches_bruteforce(ray_session, nkeys, blocks):
    import ray.data

    rng = np.random.default_rng(nkeys)
    n = 120_000
    keys = rng.integers(0, nkeys, n).astype(np.int64)
    vals = rng.integers(-500, 500, n).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": vals})).repartition(blocks)
    out = sort_group_aggregate(ds, "k", [
        ("k", "count", "n"), ("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx")])
    got = {r["k"]: (r["n"], r["s"], r["mn"], r["mx"]) for r in out.take_all()}
    exp = _brute(keys, vals)
    assert len(got) == len(exp)
    for k, e in exp.items():
        assert got[k] == tuple(e), (k, got[k], e)


def test_sort_group_aggregate_having_pushdown(ray_session):
    import ray.data

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 40_000, 100_000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(8)
    out = sort_group_aggregate(ds, "k", [("k", "count", "n")], having_min_count=4)
    got = {r["k"]: r["n"] for r in out.take_all()}
    from collections import Counter

    exp = {k: c for k, c in Counter(keys.tolist()).items() if c >= 4}
    assert got == exp


def test_sort_group_aggregate_single_key(ray_session):
    """Degenerate cases: one global group (every block is all-edge), and an
    empty dataset."""
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "k": np.zeros(10_000, np.int64),
        "v": np.arange(10_000, dtype=np.int64)})).repartition(8)
    rows = sort_group_aggregate(
        ds, "k", [("k", "count", "n"), ("v", "min", "mn"), ("v", "max", "mx")]).take_all()
    assert len(rows) == 1
    assert (rows[0]["n"], rows[0]["mn"], rows[0]["mx"]) == (10_000, 0, 9_999)
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert sort_group_aggregate(empty, "k", [("k", "count", "n")]).count() == 0


def test_sort_group_aggregate_null_sum(ray_session):
    """Arrow's semantics, as partial_groupby: a sum skips nulls and keeps
    int64 (key 1: [5, None] -> 5), and an all-null group sums to null
    (key 2), also when the group spans blocks."""
    import ray.data

    t = pa.table({"k": pa.array([1, 1, 2, 2, 3], pa.int64()),
                  "v": pa.array([5, None, None, None, 7], pa.int64())})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 1), t.slice(3)])
    out = sort_group_aggregate(ds, "k", [("v", "sum", "s"), ("v", "min", "mn")]).materialize()
    assert out.schema().types == [pa.int64(), pa.int64(), pa.int64()]
    got = {r["k"]: (r["s"], r["mn"]) for r in out.take_all()}
    assert got == {1: (5, 5), 2: (None, None), 3: (7, 7)}


def test_sort_group_aggregate_float_and_string_values(ray_session):
    """Float runs reduce with numpy (NaN: max is NaN if the group holds one,
    min only if it holds nothing else; nulls skipped) and string runs with
    Arrow's group_by; both match DuckDB, with groups spanning blocks."""
    import duckdb
    import ray.data

    t = pa.table({"k": pa.array([1, 1, 1, 2, 2, 3, 3, 4], pa.int64()),
                  "f": pa.array([1.5, float("nan"), None, float("nan"), float("nan"),
                                 None, None, -2.0], pa.float32()),
                  "s": pa.array(["b", None, "a", "c", "c", None, None, "d"])})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4)])
    specs = [("f", "min", "mnf"), ("f", "max", "mxf"), ("f", "sum", "sf"),
             ("s", "min", "mns"), ("s", "max", "mxs")]
    got = sort_group_aggregate(ds, "k", specs).to_arrow_refs()
    import ray

    got = pa.concat_tables([b for b in ray.get(got) if b.num_rows]).sort_by("k")
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute("SELECT k, min(f) AS mnf, max(f) AS mxf, sum(f) AS sf, min(s) AS mns, "
                      "max(s) AS mxs FROM t GROUP BY k ORDER BY k").arrow()

    def norm(tab):
        return [tuple("NaN" if isinstance(v, float) and v != v else v for v in r.values())
                for r in tab.to_pylist()]

    assert norm(got) == norm(exp)
    assert got.schema.field("mnf").type == pa.float32()
    assert got.schema.field("sf").type == pa.float64()


def test_exact_substring_spans_no_dups_short_circuit(ray_session):
    """A corpus with no duplicated grams returns an EMPTY typed result (the
    all-empty join side is a hard ArrowInvalid in Ray 2.49)."""
    import ray.data

    from geotrellis_ray.stages.dedup import exact_substring_spans

    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    docs = ray.data.from_items([
        {"doc_id": i, "text": "".join(rng.choice(letters, 200))}
        for i in range(50)
    ])
    out = exact_substring_spans(docs, key="hash")
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "span_start", "span_end"}


def test_sort_group_having_all_edge_groups_filtered_join_safe(ray_session):
    """When having_min_count filters EVERY edge group (mt empty), the
    survivors come back via the interior stream — which must stay safe as
    a hash-join side (Ray 2.49 raises "no match for key field" when a join
    side's LEADING block is empty; the fix repartitions the tiny
    having-filtered stream to 1 block). Single sorted block: first/last
    groups are the edges (count 1 -> filtered), the interior group
    survives."""
    import ray.data

    keys = np.array([0] + [5] * 10 + [9], np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(1)
    out = sort_group_aggregate(ds, "k", [("k", "count", "n")], having_min_count=3)
    assert {r["k"]: r["n"] for r in out.take_all()} == {5: 10}

    # downstream hash join (the exact_substring usage shape)
    right = ray.data.from_arrow(pa.table({"k": np.array([5, 7], np.int64),
                                          "tag": ["hit", "miss"]}))
    j = right.join(out, join_type="inner", on=("k",), num_partitions=2).take_all()
    assert len(j) == 1 and j[0]["tag"] == "hit" and j[0]["n"] == 10

    # everything filtered -> empty but typed
    ds2 = ray.data.from_arrow(pa.table({"k": np.arange(200, dtype=np.int64)})).repartition(4)
    empty = sort_group_aggregate(ds2, "k", [("k", "count", "n")], having_min_count=2)
    assert empty.count() == 0


@pytest.mark.parametrize("k,nkeys,blocks", [(1, 9000, 16), (3, 5000, 16), (5, 40, 3)])
def test_sort_grouped_top_k_matches_bruteforce(ray_session, k, nkeys, blocks):
    """Unbounded-cardinality grouped top-k vs the pandas QUALIFY oracle —
    string keys, heavy ties (order values from a small domain so tie_col
    does real work), many blocks so groups straddle block boundaries."""
    import pandas as pd
    import ray.data

    from geotrellis_ray.stages.agg import sort_grouped_top_k

    rng = np.random.default_rng(100 * k + nkeys)
    n = 60_000
    t = pa.table({
        "key": pa.array(np.char.add("g", rng.integers(0, nkeys, n).astype(str))),
        "val": pa.array(rng.integers(0, 50, n), pa.int64()),
        "row_id": pa.array(np.arange(n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(blocks)
    got = sort_grouped_top_k(ds, "key", "val", k, descending=True,
                             tie_col="row_id").to_pandas()
    df = t.to_pandas().sort_values(["key", "val", "row_id"],
                                   ascending=[True, False, True], kind="mergesort")
    df["rank"] = df.groupby("key", sort=False).cumcount() + 1
    exp = df[df["rank"] <= k]
    got = got.sort_values(["key", "rank"]).reset_index(drop=True)
    exp = exp.sort_values(["key", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["key", "val", "row_id", "rank"]],
                                  exp[["key", "val", "row_id", "rank"]])

    # empty input stays typed
    empty = ray.data.from_arrow(t.slice(0, 0))
    out = sort_grouped_top_k(empty, "key", "val", k, tie_col="row_id")
    assert out.count() == 0 and "rank" in out.schema().names


@pytest.mark.parametrize("nkeys,nvals,blocks", [(4000, 5, 16), (50, 3, 7), (1, 1, 8)])
def test_sort_group_count_distinct_matches_bruteforce(ray_session, nkeys, nvals, blocks):
    """Exact grouped COUNT(DISTINCT) vs pandas nunique — duplicate-heavy
    values (tiny val domain) so duplicate runs straddle block cuts, plus
    the degenerate single-key/single-value layer (every block one edge
    segment, every boundary a duplicate continuation)."""
    import pandas as pd
    import ray.data

    from geotrellis_ray.stages.agg import sort_group_count_distinct

    rng = np.random.default_rng(nkeys * 7 + nvals)
    n = 80_000
    t = pa.table({
        "k": pa.array(rng.integers(0, nkeys, n), pa.int64()),
        "v": pa.array(rng.integers(0, nvals, n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(blocks)
    got = sort_group_count_distinct(ds, "k", "v").to_pandas()
    df = t.to_pandas()
    exp = df.groupby("k").agg(n_distinct=("v", "nunique"),
                              n_rows=("v", "size")).reset_index()
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "n_distinct", "n_rows"]],
        exp[["k", "n_distinct", "n_rows"]].astype(
            {"n_distinct": "int64", "n_rows": "int64"}))


def test_sort_group_count_distinct_string_keys_empty(ray_session):
    import ray.data

    from geotrellis_ray.stages.agg import sort_group_count_distinct

    t = pa.table({"k": pa.array(["a", "a", "b", "a"]),
                  "v": pa.array([1, 1, 2, 3], pa.int64())})
    got = {r["k"]: (r["n_distinct"], r["n_rows"])
           for r in sort_group_count_distinct(
               ray.data.from_arrow(t).repartition(3), "k", "v").take_all()}
    assert got == {"a": (2, 3), "b": (1, 1)}
    empty = ray.data.from_arrow(t.slice(0, 0))
    out = sort_group_count_distinct(empty, "k", "v")
    assert out.count() == 0 and set(out.schema().names) == {"k", "n_distinct", "n_rows"}


@pytest.mark.parametrize("q,nkeys,nvals,blocks", [
    ("0.5", 3000, 7, 16), ("0.25", 200, 4, 9), ("0.9", 1, 1, 8), ("1", 50, 1000, 3),
    ("0.5", None, None, 3)])
def test_exact_grouped_quantile_matches_bruteforce(ray_session, q, nkeys, nvals, blocks):
    """Exact grouped quantile_disc vs the brute sorted-index oracle
    (element at ceil(n*q)-1) — duplicate-heavy values, spanning groups,
    the single-key degenerate layer, q=1 (max), and (nkeys None) a small
    table with null int keys, which form one group, and null values, which
    quantile_disc skips, against DuckDB: its null-key group is (None, 5, 3)
    and its all-null group gives a null value."""
    from fractions import Fraction

    import duckdb
    import pandas as pd
    import ray.data

    from geotrellis_ray.stages.agg import exact_grouped_quantile

    if nkeys is None:
        t = pa.table({"k": pa.array([1, None, 1, None, 2, 2, None, 3, 3], pa.int64()),
                      "v": pa.array([3, 5, 1, 9, None, 2, 4, None, None], pa.int64()),
                      "rid": pa.array(np.arange(9), pa.int64())})
        got = exact_grouped_quantile(ray.data.from_arrow(t).repartition(blocks),
                                     "k", "v", q=q).take_all()
        exp = duckdb.execute(f"SELECT k, quantile_disc(v, {q}) AS q_val, count(*) AS n_rows "
                             "FROM t GROUP BY k").arrow().to_pylist()
        nulls_last = sorted(exp, key=lambda r: (r["k"] is None, r["k"] or 0))
        assert sorted(got, key=lambda r: (r["k"] is None, r["k"] or 0)) == nulls_last
        assert {"k": None, "q_val": 5, "n_rows": 3} in got
        return
    rng = np.random.default_rng(abs(hash((q, nkeys))) % 2**31)
    n = 60_000
    t = pa.table({
        "k": pa.array(rng.integers(0, nkeys, n), pa.int64()),
        "v": pa.array(rng.integers(-1000, 1000, n) % nvals, pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(blocks)
    got = exact_grouped_quantile(ds, "k", "v", q=q).to_pandas()
    frac = Fraction(q)

    def brute(g):
        vs = np.sort(g.to_numpy())
        i = (len(vs) * frac.numerator + frac.denominator - 1) // frac.denominator - 1
        return int(vs[i])

    df = t.to_pandas()
    exp = df.groupby("k").agg(q_val=("v", brute), n_rows=("v", "size")).reset_index()
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "q_val", "n_rows"]],
        exp[["k", "q_val", "n_rows"]].astype({"q_val": "int64", "n_rows": "int64"}))


@pytest.mark.parametrize("nkeys,nvals,blocks", [(3000, 6, 16), (40, 3, 9), (1, 2, 8)])
def test_sort_group_mode_matches_bruteforce(ray_session, nkeys, nvals, blocks):
    """Exact grouped MODE (ties -> smallest value) vs the pandas
    value_counts oracle — tiny value domains so boundary runs chain
    across many blocks, plus the single-key degenerate layer."""
    import pandas as pd
    import ray.data

    from geotrellis_ray.stages.agg import sort_group_mode

    rng = np.random.default_rng(nkeys + nvals)
    n = 70_000
    t = pa.table({
        "k": pa.array(rng.integers(0, nkeys, n), pa.int64()),
        "v": pa.array(rng.integers(0, nvals, n), pa.int64()),
    })
    got = sort_group_mode(
        ray.data.from_arrow(t).repartition(blocks), "k", "v").to_pandas()

    def brute(g):
        c = g.value_counts()
        m = c.max()
        winners = sorted(c[c == m].index)
        return pd.Series({"mode_val": winners[0], "mode_cnt": int(m),
                          "n_rows": len(g)})

    exp = t.to_pandas().groupby("k")["v"].apply(brute).unstack().reset_index()
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "mode_val", "mode_cnt", "n_rows"]],
        exp[["k", "mode_val", "mode_cnt", "n_rows"]].astype("int64"))


def test_sort_group_mode_string_values(ray_session):
    import ray.data

    from geotrellis_ray.stages.agg import sort_group_mode

    t = pa.table({"k": pa.array(["a"] * 5 + ["b"] * 3),
                  "v": pa.array(["en", "fr", "en", "de", "fr", "de", "de", "en"])})
    got = {r["k"]: (r["mode_val"], r["mode_cnt"], r["n_rows"])
           for r in sort_group_mode(
               ray.data.from_arrow(t).repartition(4), "k", "v").take_all()}
    # a: en=2 fr=2 de=1 -> tie, smallest value "en"; b: de=2
    assert got == {"a": ("en", 2, 5), "b": ("de", 2, 3)}


# (driver max bytes, one-block max bytes) that force each grouped final
_BRANCHES = {"driver": (1 << 30, 1 << 30), "one_block": (0, 1 << 30), "fallback": (0, 0)}


def _null_table() -> pa.Table:
    """400 rows: 20% null int and string keys, 15% null values, NaN and
    null floats, a four-value domain so counts tie."""
    rng = np.random.default_rng(400)
    n = 400
    k = rng.integers(0, 4, n)
    f = rng.integers(0, 4, n) / 2
    f[rng.random(n) < 0.1] = np.nan
    return pa.table({
        "ki": pa.array(k, pa.int64(), mask=rng.random(n) < 0.2),
        "ks": pa.array(np.array(list("abcd"))[k], pa.string(), mask=rng.random(n) < 0.2),
        "v": pa.array(rng.integers(0, 4, n), pa.int64(), mask=rng.random(n) < 0.15),
        "f": pa.array(f, pa.float64(), mask=rng.random(n) < 0.15),
    })


def _vs_duckdb(fn, sql, branch, monkeypatch):
    """Rows of ``fn(ds)`` (8 blocks, one of them empty) with the grouped
    finals forced to ``branch``, and DuckDB's rows for ``sql`` over t."""
    import duckdb
    import ray.data

    from geotrellis_ray.stages import agg

    t = _null_table()
    driver_max, block_max = _BRANCHES[branch]
    monkeypatch.setattr(agg, "_SINGLE_DRIVER_MAX_BYTES", driver_max)
    monkeypatch.setattr(agg, "_SINGLE_FINAL_MAX_BYTES", block_max)
    ds = ray.data.from_arrow([t.slice(i * 50, 50) for i in range(8)] + [t.slice(0, 0)])
    got = fn(ds).take_all()
    monkeypatch.undo()
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(sql).arrow().to_pylist()

    def rows(rs):
        return sorted((tuple("NaN" if v != v else v for v in r.values()) for r in rs),
                      key=lambda r: tuple((v is None, str(v)) for v in r))

    return rows(got), rows(exp)


@pytest.mark.parametrize("val", ["v", "f"])
@pytest.mark.parametrize("key", ["ki", "ks"])
@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_sort_group_count_distinct_nulls_match_duckdb(ray_session, monkeypatch, branch, key, val):
    """Null keys form one group, a null value is not a distinct value and
    NaN is one value, on every grouped final."""
    from geotrellis_ray.stages.agg import sort_group_count_distinct

    got, exp = _vs_duckdb(
        lambda ds: sort_group_count_distinct(ds, key, val),
        f"SELECT {key}, count(DISTINCT {val}) AS n_distinct, count(*) AS n_rows "
        f"FROM t GROUP BY {key}", branch, monkeypatch)
    assert got == exp


@pytest.mark.parametrize("val", ["v", "f"])
@pytest.mark.parametrize("key", ["ki", "ks"])
@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_sort_group_mode_nulls_match_duckdb(ray_session, monkeypatch, branch, key, val):
    """Null keys form one group; a null value is a value that loses every
    tie (GROUP BY semantics, NULLS LAST), on every grouped final."""
    from geotrellis_ray.stages.agg import sort_group_mode

    got, exp = _vs_duckdb(
        lambda ds: sort_group_mode(ds, key, val),
        f"""WITH c AS (SELECT {key}, {val}, count(*) AS cnt FROM t GROUP BY {key}, {val})
            SELECT {key}, {val} AS mode_val, cnt AS mode_cnt,
                   sum(cnt) OVER (PARTITION BY {key}) AS n_rows
            FROM c QUALIFY row_number() OVER (
                PARTITION BY {key} ORDER BY cnt DESC, {val} ASC NULLS LAST) = 1""",
        branch, monkeypatch)
    assert got == exp


def _hot_key_table(n: int = 400_000) -> pa.Table:
    """Keys (s, f): a string with 20% nulls, a float with NaN, and one hot
    key ("hot", 1.0) on half the rows. Keys (i, j) and t: an int32 of
    three values with 30% nulls, a near-unique int64 and a timestamp, each
    with 20% nulls."""
    rng = np.random.default_rng(5)
    s = rng.integers(0, 5000, n).astype(str).astype(object)
    s[rng.random(n) < 0.2] = None
    f = rng.integers(0, 4, n).astype(np.float64)
    f[rng.random(n) < 0.1] = np.nan
    hot = rng.permutation(n)[: n // 2]
    s[hot], f[hot] = "hot", 1.0

    def nulls(p):
        return rng.random(n) < p

    return pa.table({"s": pa.array(s, pa.string()), "f": pa.array(f),
                     "i": pa.array(rng.integers(0, 3, n), pa.int32(), mask=nulls(0.3)),
                     "j": pa.array(rng.integers(0, 10**6, n), pa.int64(), mask=nulls(0.2)),
                     "t": pa.array(rng.integers(0, 10**6, n).astype("datetime64[us]"),
                                   pa.timestamp("us"), mask=nulls(0.2)),
                     "v": pa.array(np.arange(n), pa.int64())})


# Ray 2.49's bare range sort returns some rows twice when a nullable int
# key comes before another key, or the key is a nullable timestamp (400k
# rows came back as 442k and 760k): group_map fills every key that may
# hold null, whatever its type
@pytest.mark.parametrize("keys", [["s", "f"], ["i", "j"], ["t"]], ids=["str-float", "int", "ts"])
def test_group_map_sees_each_group_in_one_call(ray_session, keys):
    """group_map's fn sees every group whole in exactly one call, and every
    row once, at a 1 MiB target block size; nulls and NaN group as one key
    each. The hot key ("hot", 1.0) holds half the rows; the same sort
    followed by two fused maps DOES split it: the second map sees
    re-chunked blocks, which is why fn must run in the first map after the
    sort."""
    import uuid

    import duckdb
    import ray.data
    from ray.data import DataContext

    from geotrellis_ray.stages.agg import _group_starts, group_map

    def groups_per_call(b: pa.Table) -> pa.Table:
        # one row per group of a key-sorted block, tagged with this call
        starts = np.flatnonzero(_group_starts(b, keys))
        return pa.table({**{c: b[c].take(pa.array(starts, pa.int64())) for c in keys},
                         "n": pa.array(np.diff(np.r_[starts, b.num_rows]), pa.int64()),
                         "call": pa.array([uuid.uuid4().hex] * len(starts))})

    t = _hot_key_table()
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1 << 20
    try:
        ds = ray.data.from_arrow(t).repartition(8)
        got = group_map(ds, keys, groups_per_call).to_pandas()
        hot = keys == ["s", "f"]
        if hot:
            twice = group_map(ds, keys, lambda b: b).map_batches(
                groups_per_call, batch_format="pyarrow", batch_size=None).to_pandas()
    finally:
        ctx.target_max_block_size = old
    exp = duckdb.sql(f"SELECT count(*) AS n FROM t GROUP BY {', '.join(keys)}").df()
    assert got["n"].sum() == len(t)
    assert len(got) == len(exp)  # no group reported twice
    key = got.assign(nan_f=got["f"].isna()) if "f" in keys else got
    assert not key.duplicated(keys + (["nan_f"] if "f" in keys else [])).any()
    assert sorted(got["n"]) == sorted(exp["n"])
    if hot:
        assert got.loc[got["s"] == "hot", "n"].max() == len(t) // 2
        hot_calls = twice[(twice["s"] == "hot") & (twice["f"] == 1.0)]["call"].nunique()
        assert hot_calls > 1, "a second fused map no longer re-chunks: update group_map's docs"


def _empty_cases():
    from geotrellis_ray.stages.agg import (exact_grouped_quantile, sort_group_aggregate,
                                           sort_group_mode, sort_grouped_top_k)
    from geotrellis_ray.stages.window import sessionize, window_rank

    return {
        "sort_group_mode": (lambda ds: sort_group_mode(ds, "k", "v"),
                            {"k", "mode_val", "mode_cnt", "n_rows"}),
        "sort_group_aggregate": (lambda ds: sort_group_aggregate(ds, "k", [("v", "sum", "s")]),
                                 {"k", "s"}),
        "sort_grouped_top_k": (lambda ds: sort_grouped_top_k(ds, "k", "v", 2, tie_col="id"),
                               {"k", "v", "id", "ts", "rank"}),
        "sort_grouped_top_k_keyless": (lambda ds: sort_grouped_top_k(ds, [], "v", 2, tie_col="id"),
                                       {"k", "v", "id", "ts", "rank"}),
        "exact_grouped_quantile": (lambda ds: exact_grouped_quantile(ds, "k", "v"),
                                   {"k", "q_val", "n_rows"}),
        "sessionize": (lambda ds: sessionize(ds, "k", "ts", "id", gap_us=10),
                       {"id", "k", "session_no"}),
        "window_rank": (lambda ds: window_rank(ds, "k", "ts", "id", "v"),
                        {"id", "k", "rn", "rnk", "drnk", "rsum"}),
    }


@pytest.mark.parametrize("op", sorted(_empty_cases()))
def test_group_map_ops_on_empty_inputs(ray_session, op):
    """An input with neither rows nor a schema (a map over no rows) comes
    back as it is; a zero-row input with a schema gives a typed empty
    answer."""
    import ray.data

    fn, names = _empty_cases()[op]
    t = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64()),
                  "id": pa.array([], pa.int64()), "ts": pa.array([], pa.int64())})
    bare = fn(ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow"))
    assert bare.count() == 0 and bare.schema() is None
    typed = fn(ray.data.from_arrow(t))
    assert typed.count() == 0 and set(typed.schema().names) == names
