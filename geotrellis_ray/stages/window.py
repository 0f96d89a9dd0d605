"""Temporal window operators over an event stream — the "windowed aggregate
/ as-of join" custom-operator family (driver mandate; no GeoTrellis
counterpart — the reference's temporal layers only bin by key, SURVEY.md
§2.6).

- ``sliding_window_agg``: overlapping (span, slide) windows. Each row
  explodes to its ``span/slide`` covering windows inside ``map_batches``
  (vectorized np.repeat — a flat-map, no shuffle), then the partial+final
  aggregate pattern (stages/agg.py) collapses per (keys..., window_start).
  Scale shape: the shuffle carries per-batch partials only; explosion factor
  is the known constant span/slide.

- ``as_of_prev``: per-partition previous-row lookup (LAG / as-of self join):
  for every row, the value of the latest earlier row in the same partition.
  ONE global range sort on (part, ts, id) co-locates order; the lag is
  vectorized per block; the O(#blocks) block-boundary rows are stitched on
  the driver (same side-channel pattern as the LSH bucket sort,
  stages/dedup.py). Never materializes the stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .agg import _group_starts, _range_sort, _var_width

# the driver stitch's "no block seen yet": None is a partition key value
_NO_PART = object()


def _same_part(a, b):
    """Partition-key equality of the driver stitch (scalars or object
    arrays), null equal to null as in SQL PARTITION BY. After the pandas
    conversion a null key is None (string) or NaN (numeric)."""
    return (a == b) | (pd.isna(a) & pd.isna(b))


def explode_windows_batch(batch: pa.Table, ts_col: str, span_us: int, slide_us: int,
                          window_col: str = "window_start") -> pa.Table:
    """Row -> one copy per covering window; adds ``window_col`` (window start
    in slide-bin units x slide_us, i.e. an absolute epoch-us window start)."""
    if span_us % slide_us != 0:
        raise ValueError("span must be a multiple of slide")
    k = span_us // slide_us
    ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    n = len(ts)
    idx = np.repeat(np.arange(n, dtype=np.int64), k)
    j = np.tile(np.arange(k, dtype=np.int64), n)
    wstart = (ts[idx] // slide_us - j) * slide_us
    out = batch.take(pa.array(idx, pa.int64()))
    return out.append_column(window_col, pa.array(wstart, pa.int64()))


def sliding_window_agg(ds, keys, specs, ts_col: str = "ts",
                       span_us: int = 7_200_000_000, slide_us: int = 3_600_000_000):
    """Overlapping-window aggregate: groups = (keys..., window_start).
    specs as in partial_groupby: [(col, fn, alias)].

    window_start cardinality grows with the time span; partial_groupby
    measures the partial rows and takes its sort merge above
    agg._SINGLE_FINAL_MAX_BYTES, so long streams need no option here."""
    from .agg import partial_groupby

    exploded = ds.map_batches(
        lambda b: explode_windows_batch(b, ts_col, span_us, slide_us),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return partial_groupby(exploded, list(keys) + ["window_start"], specs)


def _block_lag(batch: pa.Table, part_col: str, ts_col: str, id_col: str,
               value_col: str, sentinel, lead: bool = False) -> pa.Table:
    """Sorted-stream block: kind=0 rows carry the in-block lag (sentinel for
    the block's first row / partition starts) — or, with ``lead``, the
    in-block LEAD (sentinel for the block's last row / partition ends);
    kind=1 rows are the block's first and last record (the driver stitch
    side channel)."""
    n = batch.num_rows
    out_col = ("next_" if lead else "prev_") + value_col
    schema_t = batch.schema.field(value_col).type
    empty = pa.table({
        "kind": pa.array([], pa.int8()),
        id_col: pa.array([], batch.schema.field(id_col).type),
        part_col: pa.array([], batch.schema.field(part_col).type),
        "__ts": pa.array([], pa.int64()),
        out_col: pa.array([], schema_t),
        "__val": pa.array([], schema_t),
        "__blk": pa.array([], pa.int64()),
    })
    if n == 0:
        return empty
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    vals = batch[value_col].to_numpy(zero_copy_only=False)
    shifted = np.empty_like(vals)
    same = ~_group_starts(batch, [part_col])[1:]
    if lead:
        shifted[-1] = sentinel
        shifted[:-1] = np.where(same, vals[1:], sentinel)
    else:
        shifted[0] = sentinel
        shifted[1:] = np.where(same, vals[:-1], sentinel)
    main = pa.table({
        "kind": pa.array(np.zeros(n, dtype=np.int8), pa.int8()),
        id_col: batch[id_col],
        part_col: batch[part_col],
        "__ts": pa.array(ts, pa.int64()),
        out_col: pa.array(shifted, schema_t),
        "__val": batch[value_col],
        "__blk": pa.array(np.full(n, int(ids[0]), dtype=np.int64), pa.int64()),
    })
    edge = [0, n - 1] if n > 1 else [0]
    edges = pa.table({
        "kind": pa.array(np.ones(len(edge), dtype=np.int8), pa.int8()),
        id_col: batch[id_col].take(pa.array(edge, pa.int64())),
        part_col: batch[part_col].take(pa.array(edge, pa.int64())),
        "__ts": pa.array(ts[edge], pa.int64()),
        out_col: pa.array([sentinel] * len(edge), schema_t),
        "__val": batch[value_col].take(pa.array(edge, pa.int64())),
        "__blk": pa.array(np.full(len(edge), int(ids[0]), dtype=np.int64), pa.int64()),
    })
    return pa.concat_tables([main, edges])


def as_of_prev(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
               sentinel=-1):
    """-> Dataset (id_col, part_col, prev_<value_col>): the previous row's
    value within the partition in (ts, id) order; ``sentinel`` for partition
    firsts. Distributed: one range sort + vectorized block lag + O(#blocks)
    driver stitch."""
    return _as_of(ds, part_col, ts_col, id_col, value_col, sentinel, lead=False)


def as_of_next(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
               sentinel=-1):
    """LEAD — -> Dataset (id_col, part_col, next_<value_col>): the NEXT
    row's value within the partition in (ts, id) order; ``sentinel`` for
    partition lasts. Same one-sort + O(#blocks) stitch as as_of_prev, with
    the lag direction and the boundary patch mirrored (a block's LAST row
    takes the following block's FIRST value)."""
    return _as_of(ds, part_col, ts_col, id_col, value_col, sentinel, lead=True)


def _as_of(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
           sentinel, lead: bool):
    prev_col = ("next_" if lead else "prev_") + value_col
    mixed = (
        _range_sort(ds, [(part_col, "ascending"), (ts_col, "ascending"), (id_col, "ascending")])
        .map_batches(lambda b: _block_lag(b, part_col, ts_col, id_col, value_col,
                                          sentinel, lead),
                     batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    main = mixed.filter(expr="kind == 0")
    edges = mixed.filter(expr="kind == 1").to_pandas()  # 2 rows per block
    patches: dict = {}
    if len(edges) > 1:
        edges = edges.sort_values([part_col, "__ts", id_col], kind="stable").reset_index(drop=True)
        for i in range(1, len(edges)):
            a, b = edges.iloc[i - 1], edges.iloc[i]
            # a block's FIRST row is preceded (globally) by the previous
            # block's LAST row when both share the partition value; in lead
            # mode the previous block's LAST row is followed by this
            # block's FIRST row
            if b["__blk"] != a["__blk"] and _same_part(b[part_col], a[part_col]):
                if lead:
                    patches[a[id_col]] = b["__val"]
                else:
                    patches[b[id_col]] = a["__val"]

    if patches:
        pk = np.array(sorted(patches), dtype=np.int64)
        pv = np.array([patches[k] for k in pk])

        def apply_patch(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            prev = b[prev_col].to_numpy(zero_copy_only=False).copy()
            pos = np.searchsorted(pk, ids)
            pos_c = np.clip(pos, 0, len(pk) - 1)
            hit = pk[pos_c] == ids
            # only rows still carrying the sentinel are block-firsts
            # (block-lasts in lead mode)
            hit &= prev == sentinel
            prev[hit] = pv[pos_c[hit]]
            return pa.table({id_col: b[id_col], part_col: b[part_col],
                             prev_col: pa.array(prev, b.schema.field(prev_col).type)})

        return main.map_batches(apply_patch, batch_format="pyarrow", zero_copy_batch=True)
    return main.map_batches(
        lambda b: b.select([id_col, part_col, prev_col]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# --- sessionization (round 3) ------------------------------------------------

def _block_sessions(batch: pa.Table, part_col: str, ts_col: str, id_col: str,
                    gap_us: int) -> pa.Table:
    """Sorted-stream block: kind=0 rows carry the IN-BLOCK per-partition
    session number (1-based; the block's first row of each partition segment
    tentatively starts a new session); kind=1 is the block's first row and
    kind=2 its last row, each carrying its segment's in-block session count —
    the O(#blocks) driver-stitch side channel."""
    n = batch.num_rows
    id_t = batch.schema.field(id_col).type
    part_t = batch.schema.field(part_col).type
    if n == 0:
        return pa.table({
            "kind": pa.array([], pa.int8()),
            id_col: pa.array([], id_t),
            part_col: pa.array([], part_t),
            "__ts": pa.array([], pa.int64()),
            "session_no": pa.array([], pa.int64()),
            "__blk": pa.array([], pa.int64()),
        })
    ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    seg_first = _group_starts(batch, [part_col])
    new = seg_first.copy()
    new[1:] |= ts[1:] - ts[:-1] > gap_us
    cs = np.cumsum(new)
    seg_start = np.maximum.accumulate(np.where(seg_first, np.arange(n), 0))
    session_no = cs - cs[seg_start] + 1  # per-partition, 1-based
    blk = np.full(n, int(ids[0]), dtype=np.int64)  # ids are globally unique
    main = pa.table({
        "kind": pa.array(np.zeros(n, dtype=np.int8), pa.int8()),
        id_col: batch[id_col],
        part_col: batch[part_col],
        "__ts": pa.array(ts, pa.int64()),
        "session_no": pa.array(session_no, pa.int64()),
        "__blk": pa.array(blk, pa.int64()),
    })
    # first-row edge carries the FIRST segment's session count; last-row edge
    # the LAST segment's (equal when the block holds a single partition)
    first_seg_end = int(np.argmax(seg_first[1:])) if seg_first[1:].any() else n - 1
    edge_idx = [0, n - 1]
    edge_cnt = [int(session_no[first_seg_end]), int(session_no[n - 1])]
    edges = pa.table({
        "kind": pa.array([1, 2], pa.int8()),
        id_col: batch[id_col].take(pa.array(edge_idx, pa.int64())),
        part_col: batch[part_col].take(pa.array(edge_idx, pa.int64())),
        "__ts": pa.array(ts[edge_idx], pa.int64()),
        "session_no": pa.array(edge_cnt, pa.int64()),
        "__blk": pa.array([int(ids[0])] * 2, pa.int64()),
    })
    return pa.concat_tables([main, edges])


def sessionize(ds, part_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", gap_us: int = 6 * 3600 * 1_000_000):
    """Gaps-and-islands sessionization: per ``part_col``, rows in (ts, id)
    order belong to one session until a gap > ``gap_us`` starts the next.
    -> Dataset (id_col, part_col, session_no) with session_no 1-based per
    partition — the exact SQL-window semantics
    (sum(new_flag) OVER (PARTITION BY part ORDER BY ts, id)).

    Distributed shape (100 TB): ONE global range sort co-locates each
    partition's order; the per-block pass is fully vectorized; only the
    2-rows-per-block side channel reaches the driver, which walks blocks in
    order carrying (partition, running session total, last ts) and emits an
    additive patch per block whose first segment continues a neighbor —
    the same O(#blocks) stitch as as_of_prev / the LSH candidate sort."""
    mixed = (
        _range_sort(ds, [(part_col, "ascending"), (ts_col, "ascending"), (id_col, "ascending")])
        .map_batches(lambda b: _block_sessions(b, part_col, ts_col, id_col, gap_us),
                     batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    main = mixed.filter(expr="kind == 0")
    edges = mixed.filter(expr="kind != 0").to_pandas()  # 2 rows per block

    patches: dict[int, tuple] = {}  # blk -> (first_part, delta)
    if len(edges):
        firsts = edges[edges["kind"] == 1].set_index("__blk")
        lasts = edges[edges["kind"] == 2].set_index("__blk")
        order = firsts.sort_values([part_col, "__ts", id_col], kind="stable").index
        carry_part, carry_total, carry_ts = _NO_PART, 0, 0
        for blk in order:
            f, l = firsts.loc[blk], lasts.loc[blk]
            delta = 0
            if carry_part is not _NO_PART and _same_part(f[part_col], carry_part):
                delta = carry_total
                if f["__ts"] - carry_ts <= gap_us:
                    delta -= 1  # block-first row continues the open session
                if delta:
                    patches[int(blk)] = (f[part_col], int(delta))
            if _same_part(l[part_col], f[part_col]):
                carry_total = int(l["session_no"]) + delta
            else:
                carry_total = int(l["session_no"])
            carry_part, carry_ts = l[part_col], int(l["__ts"])

    if patches:
        pb = np.array(sorted(patches), dtype=np.int64)
        pp = np.array([patches[int(k)][0] for k in pb], dtype=object)
        pd_ = np.array([patches[int(k)][1] for k in pb], dtype=np.int64)

        def apply_patch(b: pa.Table) -> pa.Table:
            blks = b["__blk"].to_numpy(zero_copy_only=False)
            parts = np.asarray(b[part_col].to_numpy(zero_copy_only=False), dtype=object)
            sess = b["session_no"].to_numpy(zero_copy_only=False).copy()
            pos = np.searchsorted(pb, blks)
            pos_c = np.clip(pos, 0, len(pb) - 1)
            hit = (pb[pos_c] == blks) & _same_part(pp[pos_c], parts)
            sess[hit] += pd_[pos_c[hit]]
            return pa.table({id_col: b[id_col], part_col: b[part_col],
                             "session_no": pa.array(sess, pa.int64())})

        return main.map_batches(apply_patch, batch_format="pyarrow", zero_copy_batch=True)
    return main.map_batches(
        lambda b: b.select([id_col, part_col, "session_no"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _block_ranks(batch: pa.Table, part_col: str, ord_col: str, id_col: str,
                 val_col: str | None) -> pa.Table:
    """Sorted-stream block pass for window_rank: kind=0 rows carry IN-BLOCK
    per-partition-segment row_number / rank / dense_rank / inclusive running
    sum; kind=1/2 are the block's first/last rows — the O(#blocks) driver
    side channel (same stitch shape as _block_sessions)."""
    n = batch.num_rows
    id_t = batch.schema.field(id_col).type
    part_t = batch.schema.field(part_col).type
    if n == 0:
        return pa.table({
            "kind": pa.array([], pa.int8()),
            id_col: pa.array([], id_t),
            part_col: pa.array([], part_t),
            "__ord": pa.array([], pa.int64()),
            "rn": pa.array([], pa.int64()),
            "rnk": pa.array([], pa.int64()),
            "drnk": pa.array([], pa.int64()),
            "rsum": pa.array([], pa.int64()),
            "__blk": pa.array([], pa.int64()),
        })
    ordv = batch[ord_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    val = (batch[val_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
           if val_col else np.zeros(n, dtype=np.int64))
    idx = np.arange(n, dtype=np.int64)
    seg_first = _group_starts(batch, [part_col])
    seg_start = np.maximum.accumulate(np.where(seg_first, idx, 0))
    rn = idx - seg_start + 1
    new_val = seg_first.copy()
    new_val[1:] |= ordv[1:] != ordv[:-1]
    cs_val = np.cumsum(new_val)
    drnk = cs_val - cs_val[seg_start] + 1
    grp_start = np.maximum.accumulate(np.where(new_val, idx, 0))
    rnk = grp_start - seg_start + 1
    cv = np.cumsum(val)
    rsum = cv - cv[seg_start] + val[seg_start]
    blk = np.full(n, int(ids[0]), dtype=np.int64)  # ids are globally unique
    main = pa.table({
        "kind": pa.array(np.zeros(n, dtype=np.int8), pa.int8()),
        id_col: batch[id_col],
        part_col: batch[part_col],
        "__ord": pa.array(ordv, pa.int64()),
        "rn": pa.array(rn, pa.int64()),
        "rnk": pa.array(rnk, pa.int64()),
        "drnk": pa.array(drnk, pa.int64()),
        "rsum": pa.array(rsum, pa.int64()),
        "__blk": pa.array(blk, pa.int64()),
    })
    edge_idx = pa.array([0, n - 1], pa.int64())
    edges = pa.table({
        "kind": pa.array([1, 2], pa.int8()),
        id_col: batch[id_col].take(edge_idx),
        part_col: batch[part_col].take(edge_idx),
        "__ord": pa.array(ordv[[0, n - 1]], pa.int64()),
        "rn": pa.array(rn[[0, n - 1]], pa.int64()),
        "rnk": pa.array(rnk[[0, n - 1]], pa.int64()),
        "drnk": pa.array(drnk[[0, n - 1]], pa.int64()),
        "rsum": pa.array(rsum[[0, n - 1]], pa.int64()),
        "__blk": pa.array([int(ids[0])] * 2, pa.int64()),
    })
    return pa.concat_tables([main, edges])


def window_rank(ds, part_col: str, ord_col: str, id_col: str,
                val_col: str | None = None):
    """Partitioned ranking window functions over a distributed stream —
    ROW_NUMBER / RANK / DENSE_RANK over (PARTITION BY part ORDER BY ord
    [, id]) plus, when ``val_col`` is given, the inclusive running sum
    SUM(val) OVER (... ROWS UNBOUNDED PRECEDING). ``ord_col`` must be
    integer-castable (int / timestamp); ``val_col`` integer (use cents for
    money); ``id_col`` must be INTEGER-valued and GLOBALLY UNIQUE — it is
    both the deterministic tie-breaker and the block key of the boundary
    stitch (a string id fails in _block_ranks with a TypeError).
    -> Dataset (id_col, part_col, rn, rnk, drnk[, rsum]), exact SQL
    window semantics with rn ties broken by id.

    Distributed shape (100 TB): ONE global range sort on (part, ord, id);
    each block computes its in-block ranks vectorized; only 2 rows per block
    reach the driver, which walks blocks in order carrying per-open-partition
    (row count R, distinct-value count D, last ord value, global rank of the
    last tie group G, running sum S) and emits one additive patch per block
    whose first segment continues a neighbor. rn/rsum stitch with +R/+S;
    drnk with +D or +(D-1) on a value tie at the boundary; rnk with +R except
    the leading tie run (in-block rnk==1, same ord as the carry) which is
    overridden to G. Same O(#blocks) side-channel pattern as sessionize /
    as_of_prev — the driver never sees a data row."""
    mixed = (
        _range_sort(ds, [(part_col, "ascending"), (ord_col, "ascending"), (id_col, "ascending")])
        .map_batches(lambda b: _block_ranks(b, part_col, ord_col, id_col, val_col),
                     batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    main = mixed.filter(expr="kind == 0")
    edges = mixed.filter(expr="kind != 0").to_pandas()  # 2 rows per block

    # blk -> (part, d_rn, d_drnk, d_rsum, group_override or -1)
    patches: dict[int, tuple] = {}
    if len(edges):
        firsts = edges[edges["kind"] == 1].set_index("__blk")
        lasts = edges[edges["kind"] == 2].set_index("__blk")
        order = firsts.sort_values([part_col, "__ord", id_col], kind="stable").index
        carry = None  # (part, R, D, last_ord, G, S)
        for blk in order:
            f, l = firsts.loc[blk], lasts.loc[blk]
            if carry is not None and _same_part(f[part_col], carry[0]):
                _, R, D, c_ord, G, S = carry
                tie = int(f["__ord"]) == c_ord
                patches[int(blk)] = (f[part_col], R, D - 1 if tie else D, S,
                                     G if tie else -1)
                if _same_part(l[part_col], f[part_col]):  # single-segment continuation
                    new_g = G if (int(l["rnk"]) == 1 and tie) else int(l["rnk"]) + R
                    carry = (f[part_col], R + int(l["rn"]),
                             D + int(l["drnk"]) - (1 if tie else 0),
                             int(l["__ord"]), new_g, S + int(l["rsum"]))
                else:
                    carry = (l[part_col], int(l["rn"]), int(l["drnk"]),
                             int(l["__ord"]), int(l["rnk"]), int(l["rsum"]))
            else:
                carry = (l[part_col], int(l["rn"]), int(l["drnk"]),
                         int(l["__ord"]), int(l["rnk"]), int(l["rsum"]))

    out_cols = [id_col, part_col, "rn", "rnk", "drnk"] + (["rsum"] if val_col else [])

    if patches:
        pb = np.array(sorted(patches), dtype=np.int64)
        pp = np.array([patches[int(k)][0] for k in pb], dtype=object)
        p_rn = np.array([patches[int(k)][1] for k in pb], dtype=np.int64)
        p_dr = np.array([patches[int(k)][2] for k in pb], dtype=np.int64)
        p_sm = np.array([patches[int(k)][3] for k in pb], dtype=np.int64)
        p_gv = np.array([patches[int(k)][4] for k in pb], dtype=np.int64)

        def apply_patch(b: pa.Table) -> pa.Table:
            blks = b["__blk"].to_numpy(zero_copy_only=False)
            parts = np.asarray(b[part_col].to_numpy(zero_copy_only=False), dtype=object)
            rn = b["rn"].to_numpy(zero_copy_only=False).copy()
            rnk = b["rnk"].to_numpy(zero_copy_only=False).copy()
            drnk = b["drnk"].to_numpy(zero_copy_only=False).copy()
            rsum = b["rsum"].to_numpy(zero_copy_only=False).copy()
            pos = np.searchsorted(pb, blks)
            pos_c = np.clip(pos, 0, len(pb) - 1)
            hit = (pb[pos_c] == blks) & _same_part(pp[pos_c], parts)
            # leading tie run detected BEFORE the additive patch
            ghit = hit & (rnk == 1) & (p_gv[pos_c] >= 0)
            rn[hit] += p_rn[pos_c[hit]]
            rnk[hit] += p_rn[pos_c[hit]]
            drnk[hit] += p_dr[pos_c[hit]]
            rsum[hit] += p_sm[pos_c[hit]]
            rnk[ghit] = p_gv[pos_c[ghit]]
            t = pa.table({id_col: b[id_col], part_col: b[part_col],
                          "rn": pa.array(rn, pa.int64()),
                          "rnk": pa.array(rnk, pa.int64()),
                          "drnk": pa.array(drnk, pa.int64()),
                          "rsum": pa.array(rsum, pa.int64())})
            return t.select(out_cols)

        return main.map_batches(apply_patch, batch_format="pyarrow", zero_copy_batch=True)
    return main.map_batches(lambda b: b.select(out_cols),
                            batch_format="pyarrow", zero_copy_batch=True)


def window_rank_stats(ds, part_col: str, ord_col: str, id_col: str,
                      ntile: int | None = None):
    """PERCENT_RANK and NTILE(k) per partition, composed on window_rank plus
    ONE broadcast per-partition row count: percent_rank = (rnk-1)/(N-1)
    (exact — a single IEEE division of exact ints, bit-identical to SQL),
    ntile by the standard first-(N%k)-buckets-get-ceil(N/k) rule, over
    (PARTITION BY part ORDER BY ord, id). -> Dataset
    (id_col, part_col, pctr[, bucket]).

    Scale contract: partition CARDINALITY must be bounded (counts are
    tree-aggregated, collected once on the driver, and ray.put-broadcast —
    a bounded-keys contract); row
    count per partition is unbounded. For unbounded partition keys use
    window_rank + an explicit join against the counts instead."""
    import pyarrow.compute as pc
    import ray

    from .agg import partial_groupby

    counts = partial_groupby(
        ds.select_columns([part_col]), [part_col],
        [(part_col, "count", "n_part")],
    )
    counts = pa.concat_tables([t for t in ray.get(counts.to_arrow_refs()) if t.num_columns])
    ref = ray.put((counts[part_col].combine_chunks(), counts["n_part"].to_numpy()))

    ranked = window_rank(ds, part_col, ord_col, id_col)

    def stats(b: pa.Table) -> pa.Table:
        k_arr, n_arr = ray.get(ref)
        # index_in matches a null key to the null partition's count
        N = n_arr[pc.index_in(b[part_col], value_set=k_arr).to_numpy(zero_copy_only=False)]
        rnk = b["rnk"].to_numpy(zero_copy_only=False)
        pctr = np.where(N > 1, (rnk - 1) / np.maximum(N - 1, 1), 0.0)
        cols = {id_col: b[id_col], part_col: b[part_col],
                "pctr": pa.array(pctr, pa.float64())}
        if ntile:
            rn = b["rn"].to_numpy(zero_copy_only=False)
            n_big = N % ntile
            size_big = N // ntile + 1
            size_small = np.maximum(N // ntile, 1)
            cut = n_big * size_big
            bucket = np.where(
                rn <= cut,
                (rn - 1) // size_big + 1,
                n_big + (rn - cut - 1) // size_small + 1,
            ).astype(np.int64)
            cols["bucket"] = pa.array(bucket, pa.int64())
        return pa.table(cols)

    return ranked.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def moving_window_sum(ds, part_col: str, ord_col: str, id_col: str,
                      val_col: str, k: int):
    """Moving k-row window aggregate — SUM(val) OVER (PARTITION BY part
    ORDER BY ord, id ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW), plus the
    actual window row count w_n = min(rn, k) and the window mean (one IEEE
    division of exact ints, SQL-bit-identical). -> Dataset
    (id_col, part_col, mov_sum, w_n, mov_avg).

    Composed from verified parts: window_rank supplies exact running sums
    (rsum) and row numbers (rn) off ONE global range sort; the k-row sum
    is then rsum[rn] - rsum[rn-k], recovered with one slim left-outer self
    spatial_join on (part, rn), null-safe on part — each side ships a few
    thin columns per row, the event payload never enters the exchange. Same
    integer contracts as window_rank (ord/val integer-castable, id integer +
    globally unique)."""
    import pyarrow.compute as pc

    from .join import spatial_join

    if k < 1:
        raise ValueError("k must be >= 1")

    def part_key(b: pa.Table) -> dict:
        # a join never matches a null key, but a null partition is one
        # partition: join on (null flag, key filled with a placeholder)
        col, t = b[part_col], b.schema.field(part_col).type
        return {"__pnull": pc.cast(col.is_null(), pa.int8()),
                "__pkey": pc.fill_null(col, pa.scalar("" if _var_width(t) else 0).cast(t))}

    m = window_rank(ds, part_col, ord_col, id_col, val_col)
    left = m.map_batches(
        lambda b: pa.table({**{c: b[c] for c in (id_col, part_col, "rn", "rsum")}, **part_key(b)}),
        batch_format="pyarrow", zero_copy_batch=True)
    right = m.map_batches(
        lambda b: pa.table({**part_key(b), "rn": pc.add(b["rn"], k), "__lag": b["rsum"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = spatial_join(left, right, how="left_outer", on=("__pnull", "__pkey", "rn"))

    def finish(b: pa.Table) -> pa.Table:
        rsum = b["rsum"].to_numpy(zero_copy_only=False)
        lag = pc.fill_null(b["__lag"], 0).to_numpy(zero_copy_only=False)
        rn = b["rn"].to_numpy(zero_copy_only=False)
        mov = rsum - lag
        w_n = np.minimum(rn, k)
        return pa.table({id_col: b[id_col], part_col: b[part_col],
                         "mov_sum": pa.array(mov, pa.int64()),
                         "w_n": pa.array(w_n, pa.int64()),
                         "mov_avg": pa.array(mov / w_n, pa.float64())})

    return j.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
