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

- ``as_of_prev`` / ``as_of_next``, ``sessionize``, ``window_rank``,
  ``window_rank_stats`` and ``moving_window_sum``: the partitioned window
  functions. Each is ONE ``agg.group_map`` on the partition key with
  (order, id) as the local order: after it a block holds whole partitions,
  so every window value is computed in place, vectorized per block, and
  nothing is stitched on the driver. The partition count is unbounded, but
  one partition must fit in one reducer block (``group_map``'s bound, as
  under Ray's ``map_groups``): a hot partition is not spread across
  reducers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import _group_starts, group_map


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


def as_of_prev(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
               sentinel=-1):
    """-> Dataset (id_col, part_col, prev_<value_col>): the previous row's
    value within the partition in (ts, id) order; ``sentinel`` for partition
    firsts. One ``group_map`` on the partition, a vectorized lag per block;
    a partition must fit in one reducer block."""
    return _as_of(ds, part_col, ts_col, id_col, value_col, sentinel, lead=False)


def as_of_next(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
               sentinel=-1):
    """LEAD — -> Dataset (id_col, part_col, next_<value_col>): the NEXT
    row's value within the partition in (ts, id) order; ``sentinel`` for
    partition lasts. Same one ``group_map`` as as_of_prev, with the shift
    mirrored."""
    return _as_of(ds, part_col, ts_col, id_col, value_col, sentinel, lead=True)


def _as_of(ds, part_col: str, ts_col: str, id_col: str, value_col: str,
           sentinel, lead: bool):
    out_col = ("next_" if lead else "prev_") + value_col

    def shift(b: pa.Table) -> pa.Table:
        n, new = b.num_rows, _group_starts(b, [part_col])
        # a partition's first row has no previous row, its last no next one
        edge = new if not lead else np.r_[new[1:], True][:n]
        src = np.clip(np.arange(n) + (1 if lead else -1), 0, max(n - 1, 0))
        vals = b[value_col]
        shifted = pc.if_else(pa.array(edge), pa.scalar(sentinel, vals.type),
                             vals.take(pa.array(src, pa.int64())))
        return pa.table({id_col: b[id_col], part_col: b[part_col], out_col: shifted})

    return group_map(ds, [part_col], shift, order=[ts_col, id_col])


# --- sessionization (round 3) ------------------------------------------------

def sessionize(ds, part_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", gap_us: int = 6 * 3600 * 1_000_000):
    """Gaps-and-islands sessionization: per ``part_col``, rows in (ts, id)
    order belong to one session until a gap > ``gap_us`` starts the next.
    -> Dataset (id_col, part_col, session_no) with session_no 1-based per
    partition — the exact SQL-window semantics
    (sum(new_flag) OVER (PARTITION BY part ORDER BY ts, id)).

    ONE ``group_map`` on the partition; each block numbers the sessions of
    its whole partitions, vectorized. A partition must fit in one reducer
    block."""

    def number(b: pa.Table) -> pa.Table:
        ts = b[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        seg_first = _group_starts(b, [part_col])
        new = seg_first.copy()
        new[1:] |= ts[1:] - ts[:-1] > gap_us
        cs = np.cumsum(new)
        seg_start = np.maximum.accumulate(np.where(seg_first, np.arange(b.num_rows), 0))
        return pa.table({id_col: b[id_col], part_col: b[part_col],
                         "session_no": pa.array(cs - cs[seg_start] + 1, pa.int64())})

    return group_map(ds, [part_col], number, order=[ts_col, id_col])


def _ranks(b: pa.Table, part_col: str, ord_col: str, val_col: str | None) -> dict:
    """Per-partition row_number / rank / dense_rank (and, with ``val_col``,
    the inclusive running sum) of a block sorted by (part, ord, id) that
    holds whole partitions, plus N, the partition's row count."""
    n = b.num_rows
    idx = np.arange(n, dtype=np.int64)
    seg_first = _group_starts(b, [part_col])
    seg_start = np.maximum.accumulate(np.where(seg_first, idx, 0))
    new_val = _group_starts(b, [part_col, ord_col])
    cs_val = np.cumsum(new_val)
    starts = np.flatnonzero(seg_first)
    sizes = np.diff(np.r_[starts, n])
    out = {"rn": idx - seg_start + 1,
           "rnk": np.maximum.accumulate(np.where(new_val, idx, 0)) - seg_start + 1,
           "drnk": cs_val - cs_val[seg_start] + 1,
           "N": np.repeat(sizes, sizes)}
    if val_col:
        val = b[val_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cv = np.cumsum(val)
        out["rsum"] = cv - cv[seg_start] + val[seg_start]
    return out


def window_rank(ds, part_col: str, ord_col: str, id_col: str,
                val_col: str | None = None):
    """Partitioned ranking window functions over a distributed stream —
    ROW_NUMBER / RANK / DENSE_RANK over (PARTITION BY part ORDER BY ord
    [, id]) plus, when ``val_col`` is given, the inclusive running sum
    SUM(val) OVER (... ROWS UNBOUNDED PRECEDING). ``val_col`` must be
    integer (use cents for money); ``id_col`` (any orderable type) is the
    deterministic tie-breaker and must make rows unique within a partition.
    -> Dataset (id_col, part_col, rn, rnk, drnk[, rsum]), exact SQL
    window semantics with rn ties broken by id.

    ONE ``group_map`` on the partition with (ord, id) as the local order;
    each block ranks its whole partitions, vectorized. A partition must fit
    in one reducer block."""
    names = ["rn", "rnk", "drnk"] + (["rsum"] if val_col else [])

    def rank(b: pa.Table) -> pa.Table:
        r = _ranks(b, part_col, ord_col, val_col)
        return pa.table({id_col: b[id_col], part_col: b[part_col],
                         **{c: pa.array(r[c], pa.int64()) for c in names}})

    return group_map(ds, [part_col], rank, order=[ord_col, id_col])


def window_rank_stats(ds, part_col: str, ord_col: str, id_col: str,
                      ntile: int | None = None):
    """PERCENT_RANK and NTILE(k) per partition: percent_rank = (rnk-1)/(N-1)
    (exact — a single IEEE division of exact ints, bit-identical to SQL),
    ntile by the standard first-(N%k)-buckets-get-ceil(N/k) rule, over
    (PARTITION BY part ORDER BY ord, id). -> Dataset
    (id_col, part_col, pctr[, bucket]).

    Same one ``group_map`` as window_rank: a block holds whole partitions,
    so N is the partition's length in the block. The partition count is
    unbounded; one partition must fit in one reducer block."""

    def stats(b: pa.Table) -> pa.Table:
        r = _ranks(b, part_col, ord_col, None)
        N, rnk = r["N"], r["rnk"]
        cols = {id_col: b[id_col], part_col: b[part_col],
                "pctr": pa.array(np.where(N > 1, (rnk - 1) / np.maximum(N - 1, 1), 0.0),
                                 pa.float64())}
        if ntile:
            rn = r["rn"]
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

    return group_map(ds, [part_col], stats, order=[ord_col, id_col])


def moving_window_sum(ds, part_col: str, ord_col: str, id_col: str,
                      val_col: str, k: int):
    """Moving k-row window aggregate — SUM(val) OVER (PARTITION BY part
    ORDER BY ord, id ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW), plus the
    actual window row count w_n = min(rn, k) and the window mean (one IEEE
    division of exact ints, SQL-bit-identical). -> Dataset
    (id_col, part_col, mov_sum, w_n, mov_avg).

    Same one ``group_map`` as window_rank: the k-row sum is the running sum
    rsum minus rsum k rows earlier in the same partition (0 for rn <= k).
    Same integer contract and one-reducer-block bound per partition as
    window_rank (val integer-castable)."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def moving(b: pa.Table) -> pa.Table:
        r = _ranks(b, part_col, ord_col, val_col)
        rn, rsum = r["rn"], r["rsum"]
        back = np.flatnonzero(rn > k)
        mov = rsum.copy()
        mov[back] -= rsum[back - k]
        w_n = np.minimum(rn, k)
        return pa.table({id_col: b[id_col], part_col: b[part_col],
                         "mov_sum": pa.array(mov, pa.int64()),
                         "w_n": pa.array(w_n, pa.int64()),
                         "mov_avg": pa.array(mov / w_n, pa.float64())})

    return group_map(ds, [part_col], moving, order=[ord_col, id_col])
