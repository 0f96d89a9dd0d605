"""Partial (combiner) aggregation — the scale pattern for groupbys
(GeoTrellis's combineByKey with map-side combine; SURVEY.md §2.5).

``partial_groupby`` aggregates each Arrow batch locally with
``pa.Table.group_by`` (vectorized, zero shuffle), so the final merge sees
only ~(#groups x #blocks) partial rows instead of the full input. At 10^12
rows with a handful of groups this is the difference between shuffling
terabytes and shuffling kilobytes. ``grouped_top_k`` is the same pattern
with a per-group top-k as the combiner.

Both end in ``_grouped_final``, which measures the partial stream once and
picks the merge from its size in bytes: on the driver up to
``_SINGLE_DRIVER_MAX_BYTES``, one whole block up to
``_SINGLE_FINAL_MAX_BYTES``, a range sort above (``sort_group_aggregate``
and ``sort_grouped_top_k``, built for #groups ~ #rows). No call site picks.
A driver answer comes back materialized, so reading it starts no second
Ray Data execution: when the partial stream is one block in which no group
repeats, that block is the answer and the stream itself is returned;
otherwise the driver rebuilds it (``_answer``).
Keyless ``grouped_top_k`` is ORDER BY ... LIMIT k. Exact grouped COUNT
DISTINCT and MODE are compositions of the two (``sort_group_count_distinct``,
``sort_group_mode``), so they take the same merges and null semantics.

Every grouping sort of the engine is ``group_map``: one null- and NaN-safe
range sort on the group keys, after which each block holds whole groups,
so a block answers its groups in place and nothing is stitched on the
driver. The only other sorts are the unique-id sorts of the token packers
and ``exact_quantiles``' sort of one null-free column.

Supported specs: ("col", "sum"), ("col", "min"), ("col", "max"),
("col", "count" -> output alias counts rows). Output column names are the
aliases given, matching the oracle SQL exactly.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

# up to this many bytes of partial rows the final merge runs on the DRIVER
# (concat of the materialized partial blocks): cheaper than even a
# repartition(1) (~0.1 s vs ~0.25 s for its all-to-all operator, measured)
_SINGLE_DRIVER_MAX_BYTES = 4 << 20
# up to this many bytes the merge reduces ONE block on one task: Ray Data's
# default target_max_block_size, so the block is no larger than one Ray
# would build itself. Bytes, not rows: partial rows with text keys are 10x
# the size of rows with integer keys. Above it the merge is a range sort.
_SINGLE_FINAL_MAX_BYTES = 128 << 20
# partial_groupby's combiner reduces batches of up to this many input rows:
# Ray bundles small blocks into one task until they hold this many rows, and
# the batch is a zero-copy chunked view of them
_COMBINE_BATCH_ROWS = 1 << 18


def _empty_input(ds) -> pa.Table | None:
    """A zero-row table with ``ds``'s schema (only the first block is read),
    or None when ``ds`` has no schema: Ray 2.49's map skips empty blocks,
    so a map over no rows has none."""
    sch = ds.schema(fetch_if_missing=True)
    return None if sch is None else pa.table({n: pa.array([], t) for n, t in zip(sch.names, sch.types)})


def _answer(t: pa.Table):
    """A driver-built table as a dataset that already holds its one block:
    reading it (``to_arrow_refs``, ``count``, ``take_all``) or materializing
    it again starts no streaming execution. ``from_blocks`` computes the
    block's metadata on the driver, where ``from_arrow`` runs a remote
    metadata task (~6 ms); ``materialize()`` of a source that holds its
    data skips execution and marks the plan executed. It still builds three
    Datasets (~1.3 ms each, a stats-actor round trip) and puts the block
    again, so ``_grouped_final`` calls it only when the partial stream is
    not already the answer."""
    import ray.data as rd

    return rd.from_blocks([t]).materialize()


def _typed_map(ds, fn):
    """``ds.map_batches(fn)`` over Arrow batches that stays typed when ``ds``
    has no rows: Ray 2.49's map skips empty blocks, so its output would have
    no schema for a later merge to read. An input with neither rows nor a
    schema (``limit(0)``, a map over no rows) comes back as it is."""
    ds = ds.materialize()
    if ds.count() == 0:
        t0 = _empty_input(ds)
        return ds if t0 is None else _answer(fn(t0))
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _grouped_final(ds, partial, reduce, sort, empty, site: str):
    """The last merge of ``partial``, the combined partial stream of ``ds``.
    ``reduce`` maps the concatenated partial rows to the answer; ``sort`` is
    the range-sort merge for a stream too large for one block; ``empty``
    maps a zero-row table with ``ds``'s schema to the typed answer when
    there are no partial rows at all. Logs ``{site, choice, partial_rows,
    partial_bytes, threshold, answer}`` at DEBUG; ``answer`` is "partial"
    when the stream itself is returned, else "rebuilt".

    The driver branch returns the materialized stream itself when it is
    one block that ``reduce`` leaves with the same row count and schema: no
    group repeats in it, so the block already is the answer. Otherwise the
    driver answer is rebuilt (``_answer``); keyless ``partial_groupby`` and
    ``grouped_top_k`` add or drop columns in ``reduce``, so they always
    are. Either way a driver answer is one materialized block, so reading
    it starts no second execution; an input with neither rows nor a schema
    gives an answer with neither. The stream is materialized to be
    measured, so on the sort branch its blocks stay in the object store
    while the sort runs (~2x the stream at the peak; the sort would hold its
    own copy of them anyway)."""
    partial = partial.materialize()
    n, size = partial.count(), partial.size_bytes()
    if n == 0 or size <= _SINGLE_DRIVER_MAX_BYTES:
        choice, threshold = "driver", _SINGLE_DRIVER_MAX_BYTES
    elif size <= _SINGLE_FINAL_MAX_BYTES:
        choice, threshold = "one_block", _SINGLE_FINAL_MAX_BYTES
    else:
        choice, threshold = "sort", _SINGLE_FINAL_MAX_BYTES
    out = _driver_final(ds, partial, n, reduce, empty) if choice == "driver" else None
    logger.debug("grouped final %s", {"site": site, "choice": choice, "partial_rows": n,
                                      "partial_bytes": size, "threshold": threshold,
                                      "answer": "partial" if out is partial else "rebuilt"})
    if out is not None:
        return out
    if choice == "one_block":
        # batch_size=None = the whole (single) block in one batch -> exact
        return partial.repartition(1).map_batches(
            reduce, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return sort(partial)


def _driver_final(ds, partial, n: int, reduce, empty):
    """``_grouped_final``'s driver answer for a materialized stream of ``n``
    rows: the stream itself when it is one block that ``reduce`` leaves
    unchanged in row count and schema, else one rebuilt block."""
    import ray

    if n == 0:
        t0 = _empty_input(ds)
        return partial if t0 is None else _answer(empty(t0))
    blocks = ray.get(partial.to_arrow_refs())
    parts = [t for t in blocks if t.num_rows]
    t = reduce(pa.concat_tables(parts))
    if len(blocks) == 1 and t.num_rows == n and t.schema.equals(parts[0].schema):
        return partial
    return _answer(t)


def _group_starts(t: pa.Table, keys) -> np.ndarray:
    """Mask of the rows of a key-sorted table that start a new group. Nulls
    equal nulls and NaN equals NaN, as in SQL GROUP BY."""
    new = np.zeros(t.num_rows, dtype=bool)
    new[:1] = True
    for c in keys:
        cur, prev = t[c].slice(1), t[c].slice(0, max(t.num_rows - 1, 0))
        same = pc.or_kleene(pc.equal(cur, prev), pc.and_(cur.is_null(), prev.is_null()))
        if pa.types.is_floating(t.schema.field(c).type):
            same = pc.or_kleene(same, pc.and_(pc.is_nan(cur), pc.is_nan(prev)))
        new[1:] |= ~pc.fill_null(same, False).to_numpy(zero_copy_only=False)
    return new


def _var_width(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def group_map(ds, keys, fn, order=()):
    """``fn`` over key-sorted blocks that hold only whole ``keys`` groups —
    the engine's one grouping sort. ``keys`` is one column name or a
    non-empty list; ``order`` is more sort columns, each a name (ascending)
    or a ``(name, "ascending"|"descending")`` pair.

    ONE range sort on ``keys`` alone: Ray 2.49's range partitioner cuts on
    the full sort-key tuple and each reducer returns one block, so the first
    ``map_batches(batch_size=None)`` after it sees every group in exactly
    one block (tests/test_sort_group.py pins this; a second fused map would
    re-chunk the block and split a hot key). That map is ``fn``'s: the block
    arrives sorted by ``keys`` (Arrow order: NaN, then null, last), is
    sorted locally by ``keys + order`` when an ``order`` is given, and is
    handed over whole; ``each_group`` adapts a per-group ``fn``.
    A group is bounded by one reducer block, as under Ray's ``map_groups``.

    The partitioner compares sampled rows as Python objects, which fails on
    a null in a string column and places NaN and null apart from Arrow's
    block sort. So each key is filled (NaN and null -> 0 or "") and sorted
    after an int8 class column (0 value, 1 NaN, 2 null); the key is restored
    before ``fn`` runs. Nulls equal nulls and NaN equals NaN, as in SQL
    GROUP BY.

    The answer comes back materialized. An input with no rows gives
    ``fn`` over a zero-row table with the input's schema; an input with
    neither rows nor a schema comes back as it is."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if not keys:
        raise ValueError("group_map needs at least one key column")
    local = [(c, "ascending") for c in keys] + [
        (c, "ascending") if isinstance(c, str) else tuple(c) for c in order]

    def fill(b: pa.Table) -> pa.Table:
        for i, c in enumerate(keys):
            col, t = b[c], b.schema.field(c).type
            cls = pc.if_else(col.is_null(), 2, 0)
            if pa.types.is_floating(t):
                cls = pc.if_else(pc.fill_null(pc.is_nan(col), False), 1, cls)
            zero = pa.scalar("" if _var_width(t) else 0).cast(t)
            b = b.set_column(b.schema.get_field_index(c), c, pc.if_else(pc.equal(cls, 0), col, zero))
            b = b.append_column(f"__cls{i}", pc.cast(cls, pa.int8()))
        return b

    def apply(b: pa.Table) -> pa.Table:
        for i, c in enumerate(keys):
            col, t, cls = b[c], b.schema.field(c).type, b[f"__cls{i}"]
            col = pc.if_else(pc.equal(cls, 2), pa.scalar(None, t), col)
            if pa.types.is_floating(t):
                col = pc.if_else(pc.equal(cls, 1), pa.scalar(float("nan"), t), col)
            b = b.set_column(b.schema.get_field_index(c), c, col)
        b = b.drop_columns([f"__cls{i}" for i in range(len(keys))])
        # the reducer's block is already sorted by the keys in Arrow's order
        # (the class column puts NaN, then null, last): only an ``order``
        # needs a local sort, which copies every column
        return fn(b.sort_by(local) if order else b)

    by = [name for i, c in enumerate(keys) for name in (f"__cls{i}", c)]
    out = (ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)
             .sort(by)
             .map_batches(apply, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
             .materialize())
    if out.count() == 0 and out.schema() is None:
        # Ray 2.49's map skips empty blocks, so a sort over no rows maps to
        # no schema
        t0 = _empty_input(ds)
        return out if t0 is None else _answer(fn(t0.sort_by(local)))
    return out


def each_group(keys, fn):
    """A ``group_map`` block function that calls ``fn`` once per group (a
    zero-copy slice of the block) and concatenates the answers: the shape of
    Ray's ``groupby(keys)`` group apply. No group gives a table with no
    columns."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def apply(b: pa.Table) -> pa.Table:
        starts = np.flatnonzero(_group_starts(b, keys))
        outs = [fn(b.slice(s, e - s)) for s, e in zip(starts, np.r_[starts[1:], b.num_rows])]
        return pa.concat_tables(outs, promote_options="default") if outs else pa.table({})

    return apply


def _batch_partial(batch: pa.Table, keys: list[str], specs: list[tuple[str, str, str]]) -> pa.Table:
    """One batch -> per-key partial rows. specs = [(col, fn, alias)].

    Arrow's semantics: nulls are skipped and an all-null group gives null;
    sum widens int->int64, uint->uint64, float->float64; count counts rows.
    NaN orders above every number, as in DuckDB: a float max is NaN if the
    group holds one, a float min only if the group holds nothing else."""
    if batch.num_rows == 0:
        def _promoted(col: str, fn: str) -> pa.DataType:
            # match Arrow group_by's aggregate output types so empty blocks
            # don't emit a mismatched schema (min/max keep the input type)
            t = batch.schema.field(col).type
            if fn == "count":
                return pa.int64()
            if fn == "sum":
                if pa.types.is_unsigned_integer(t):
                    return pa.uint64()
                if pa.types.is_integer(t):
                    return pa.int64()
                if pa.types.is_floating(t):
                    return pa.float64()
            return t

        fields = [(k, batch.schema.field(k).type) for k in keys] + [
            (alias, _promoted(col, fn)) for col, fn, alias in specs
        ]
        return pa.table({n: pa.array([], t) for n, t in fields})
    aggs = [([], "count_all") if fn == "count" else (col, fn) for col, fn, _ in specs]
    names = [alias for _c, _f, alias in specs]
    # Arrow's min/max skip NaN (and give +-inf for an all-NaN group): carry a
    # per-group NaN flag (any for max, all for min) and patch NaN back in.
    # int8, not bool: pyarrow 16's hash any/all misread sliced bool chunks.
    nan_flags = []
    for i, (col, fn, alias) in enumerate(specs):
        if fn in ("min", "max") and pa.types.is_floating(batch.schema.field(col).type):
            flag = f"__nan{i}"
            batch = batch.append_column(flag, pc.cast(pc.is_nan(batch[col]), pa.int8()))
            aggs.append((flag, fn))
            names.append(flag)
            nan_flags.append((alias, flag))
    cols = list(dict.fromkeys(keys + [c for c, _ in aggs if c]))
    # pyarrow 16's group_by splits groups when a string or binary key comes
    # before a fixed-width key and either holds nulls: group with those keys
    # last (a stable sort: no reorder otherwise), then restore keys' order
    by = sorted(keys, key=lambda k: _var_width(batch.schema.field(k).type))
    res = batch.select(cols).group_by(by).aggregate(aggs)
    # arrow names outputs "<col>_<fn>" in agg order around the keys; remap
    out = iter(names)
    res = res.rename_columns([n if n in keys else next(out) for n in res.schema.names])
    if by != keys:
        key_at = iter(keys)
        res = res.select([next(key_at) if n in keys else n for n in res.schema.names])
    for alias, flag in nan_flags:
        col = res[alias]
        fixed = pc.if_else(pc.fill_null(pc.equal(res[flag], 1), False), pa.scalar(float("nan"), col.type), col)
        res = res.set_column(res.schema.get_field_index(alias), alias, fixed)
    return res.drop_columns([f for _a, f in nan_flags])


_REDUCEAT = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _run_reduce(t: pa.Table, new: np.ndarray, specs) -> pa.Table:
    """The specs' aggregates over each run of a key-sorted table (``new``
    marks the first row of each run), in run order, with
    ``_batch_partial``'s semantics. Integer and float columns reduce with
    numpy ``reduceat``: nulls are filled with the reduction's identity and
    a run with no valid value gives null; float min uses ``fmin``, which
    gives NaN only for a run of NaN. Other columns take an Arrow group_by
    over the run ids."""
    starts = np.flatnonzero(new)
    if not all(fn == "count" or pa.types.is_integer(t.schema.field(c).type)
               or pa.types.is_floating(t.schema.field(c).type) for c, fn, _a in specs):
        seg = pa.array(np.cumsum(new) - 1)
        red = _batch_partial(t.append_column("__seg", seg), ["__seg"], specs)
        return red.sort_by("__seg").drop_columns(["__seg"])
    out = {}
    for col, fn, alias in specs:
        if fn == "count":
            out[alias] = pa.array(np.diff(np.r_[starts, t.num_rows]), pa.int64())
            continue
        a, typ = t[col], t.schema.field(col).type
        flt = pa.types.is_floating(typ)
        if fn == "sum":
            typ = (pa.float64() if flt else pa.uint64() if pa.types.is_unsigned_integer(typ)
                   else pa.int64())
            a = pc.cast(a, typ)
        ufunc = np.fmin if fn == "min" and flt else _REDUCEAT[fn]
        empty = None
        if a.null_count:
            fill = {"sum": 0, "min": np.nan if flt else np.iinfo(typ.to_pandas_dtype()).max,
                    "max": -np.inf if flt else np.iinfo(typ.to_pandas_dtype()).min}[fn]
            empty = ~np.logical_or.reduceat(a.is_valid().to_numpy(zero_copy_only=False), starts)
            a = pc.fill_null(a, pa.scalar(fill, typ))
        vals = ufunc.reduceat(a.to_numpy(zero_copy_only=False), starts)
        out[alias] = pa.array(vals, typ, mask=empty)
    return pa.table(out)


def partial_groupby(ds, keys, specs, final=None):
    """ds.groupby(keys) with map-side combine.

    specs: list of (col, fn, alias) with fn in {sum,min,max,count}.
    Count partials re-aggregate as sum; min/max/sum are self-mergeable.
    Returns a Dataset with columns keys + aliases; with no keys, one row
    (none for an empty input). Row order is not specified.

    The last merge is picked by ``_grouped_final`` from the partial
    stream's size: driver, one whole block, or above _SINGLE_FINAL_MAX_BYTES
    sort_group_aggregate (one range sort; Ray's sort-based Aggregate pays
    ~300x per group when #groups ~ #rows, r5 finding). No call site picks
    the merge: ``final`` is accepted and ignored, kept only because the
    benchmark's workloads (perfbench/workloads.py) still pass
    ``final="single"``.
    """
    keys = list(keys)
    specs = [tuple(s) for s in specs]
    # global (keyless) aggregate: constant dummy key, not in out_cols
    gkeys = keys or ["__g"]

    def combine(b: pa.Table) -> pa.Table:
        if not keys:
            b = b.append_column("__g", pa.array(np.zeros(b.num_rows, np.int8)))
        return _batch_partial(b, gkeys, specs)

    # one combiner map: Ray bundles small blocks into one task up to
    # _COMBINE_BATCH_ROWS rows, which get one group_by per batch, so many
    # small blocks leave few partial blocks (a task-based upstream map fuses
    # in and bundles the same way). A one-block stream with unique groups
    # is then the answer as it is (``_grouped_final``).
    partial = ds.map_batches(combine, batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=_COMBINE_BATCH_ROWS)
    # count partials re-merge as sum; min/max/sum are self-mergeable
    merge_specs = [(alias, "sum" if fn in ("sum", "count") else fn, alias) for _c, fn, alias in specs]
    out_cols = keys + [alias for _c, _f, alias in specs]

    def answer(t: pa.Table) -> pa.Table:
        return _batch_partial(t, gkeys, merge_specs).select(out_cols)

    return _grouped_final(
        ds, partial, answer,
        lambda p: sort_group_aggregate(p, gkeys, merge_specs).map_batches(
            lambda b: b.select(out_cols), batch_format="pyarrow", zero_copy_batch=True),
        lambda t0: answer(combine(t0)), "stages.agg.partial_groupby")


def sort_group_aggregate(ds, key_col, specs, having_min_count: int | None = None):
    """Grouped aggregate at UNBOUNDED key cardinality (#groups ~ #rows) —
    the regime where a map-side combine reduces nothing (keys are
    near-unique) and Ray's sort-based Aggregate pays a ~300x per-group
    overhead (measured on this host, 6.3M unique int64 keys: Dataset.sort
    0.6 s vs groupby().aggregate() 189.5 s — found by the r5 text-dedup
    rehearsal). ``key_col`` is one column name or a list of them.

    Shape: ONE ``group_map`` on the keys; each block reduces its whole
    groups in place (``_run_reduce``, numpy reduceat). Nothing reaches the
    driver. The group count is unbounded; one group must fit in one
    reducer block.

    specs: [(col, fn, alias)] with fn in {count,sum,min,max}, with
    partial_groupby's semantics (``_batch_partial``). ``having_min_count``
    (requires a count spec) pushes ``count >= N`` into the blocks —
    singleton groups never leave the block, which is the 99% case for
    duplicate-gram detection."""
    keys = [key_col] if isinstance(key_col, str) else list(key_col)
    specs = [tuple(s) for s in specs]
    count_aliases = [a for _c, f, a in specs if f == "count"]
    if having_min_count is not None and not count_aliases:
        raise ValueError("having_min_count requires a count spec")
    need_cols = list(dict.fromkeys(keys + [c for c, f, _a in specs if f != "count"]))

    def reduce(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _batch_partial(b, keys, specs)
        new = _group_starts(b, keys)
        red = _run_reduce(b, new, specs)
        out = b.select(keys).take(pa.array(np.flatnonzero(new)))
        for name in red.column_names:
            out = out.append_column(name, red[name])
        if having_min_count is not None:
            keep = np.ones(out.num_rows, dtype=bool)
            for a in count_aliases:
                keep &= out[a].to_numpy() >= having_min_count
            out = out.filter(pa.array(keep))
        return out

    return group_map(ds.select_columns(need_cols), keys, reduce)


def _head(t: pa.Table, keys, k: int, rank: bool = False) -> pa.Table:
    """The first k rows of each ``keys`` group of a key-sorted table, with a
    1-based int64 ``rank`` if asked."""
    new = _group_starts(t, keys)
    idx = np.arange(t.num_rows)
    pos = idx - np.maximum.accumulate(np.where(new, idx, 0))
    sel = np.flatnonzero(pos < k)
    t = t.take(pa.array(sel, pa.int64()))
    return t.append_column("rank", pa.array(pos[sel] + 1, pa.int64())) if rank else t


def _batch_top_k(t: pa.Table, keys, sort_keys, k: int, rank: bool = False) -> pa.Table:
    """The first k rows of each ``keys`` group in ``sort_keys`` order (Arrow
    sort: stable, NaN then null last), with a 1-based int64 ``rank`` if
    asked."""
    return _head(t.sort_by([(c, "ascending") for c in keys] + sort_keys), keys, k, rank)


def grouped_top_k(ds, keys, order_col: str, k: int, descending: bool = True,
                  tie_col: str | None = None):
    """Per-group top-k (the ROW_NUMBER() <= k window shape) with a PARTIAL
    top-k combiner: each batch keeps at most k rows per key, so the final
    merge sees <= k x groups x blocks rows, never the input; the final
    per-group head is picked by ``_grouped_final`` from their size
    (sort_grouped_top_k above _SINGLE_FINAL_MAX_BYTES).
    Adds a ``rank`` column (1-based). Ties break on ``tie_col`` ascending;
    NaN and null order values rank last in either direction."""
    keys = list(keys)
    sort_keys = [(order_col, "descending" if descending else "ascending")] + (
        [(tie_col, "ascending")] if tie_col else [])

    def head(t: pa.Table) -> pa.Table:
        return _batch_top_k(t, keys, sort_keys, k, rank=True)

    partial = ds.map_batches(lambda b: _batch_top_k(b, keys, sort_keys, k),
                             batch_format="pyarrow", zero_copy_batch=True)
    return _grouped_final(
        ds, partial, head,
        lambda p: sort_grouped_top_k(p, keys, order_col, k, descending, tie_col),
        head, "stages.agg.grouped_top_k")


def _block_offsets(sorted_ds, id_col: str, tokens_col: str):
    """The token prefix scan's side channel over a materialized, id-sorted
    dataset: one (first id, token sum) row per block reaches the driver,
    which cumsums the sums into exclusive block offsets and ``ray.put``s
    them. -> ``base(block)``, the offset of a block found by its first id
    (blocks must be the same ones: map them with batch_size=None)."""
    import ray

    def block_sum(b: pa.Table) -> pa.Table:
        return pa.table({"first_id": pa.array([int(b[id_col][0].as_py())], pa.int64()),
                         "s": pa.array([int(pc.sum(b[tokens_col]).as_py() or 0)], pa.int64())})

    sums = sorted_ds.map_batches(block_sum, batch_format="pyarrow", zero_copy_batch=True,
                                 batch_size=None)
    parts = [t for t in ray.get(sums.to_arrow_refs()) if t.num_rows]
    fids = offs = np.zeros(0, np.int64)
    if parts:
        side = pa.concat_tables(parts).sort_by("first_id")
        fids, offs = side["first_id"].to_numpy(), np.zeros(side.num_rows, np.int64)
        np.cumsum(side["s"].to_numpy()[:-1], out=offs[1:])
    ref = ray.put((fids, offs))

    def base(b: pa.Table) -> int:
        fids, offs = ray.get(ref)
        return int(offs[np.searchsorted(fids, int(b[id_col][0].as_py()))])

    return base


def pack_token_shards(ds, budget: int, id_col: str = "doc_id",
                      tokens_col: str = "n_tokens"):
    """GPT-style sequence packing: concatenate docs in id order into one
    token stream and assign each doc the shard where it STARTS —
    shard_id = exclusive_prefix // budget, offset_in_shard =
    exclusive_prefix % budget (docs may straddle shard boundaries, the
    training-data packing convention). -> Dataset (id_col, tokens_col,
    shard_id, offset_in_shard).

    Scale shape: ONE range sort by id (a global order is inherent to
    packing), then a distributed prefix scan — pass 1 emits one
    (first_id, block_sum) row per block; the driver cumsums that
    O(#blocks) side channel; pass 2 re-maps the SAME materialized blocks
    (batch_size=None = exactly one block per task, stable across both
    passes) adding the broadcast block offset to a local cumsum. The
    driver never sees a row, only block sums."""
    sorted_ds = ds.sort(id_col).materialize()
    base = _block_offsets(sorted_ds, id_col, tokens_col)

    def assign(b: pa.Table) -> pa.Table:
        # appends shard_id/offset_in_shard, preserving every input column
        # (chains carry extra per-doc columns like n_dupes through packing)
        if b.num_rows == 0:
            return b.append_column(
                "shard_id", pa.array([], pa.int64())).append_column(
                "offset_in_shard", pa.array([], pa.int64()))
        t = b[tokens_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ex = np.full(len(t), base(b), dtype=np.int64)
        ex[1:] += np.cumsum(t[:-1])
        return b.append_column(
            "shard_id", pa.array(ex // budget, pa.int64())).append_column(
            "offset_in_shard", pa.array(ex % budget, pa.int64()))

    return sorted_ds.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)


def pack_token_spans(ds, budget: int, id_col: str = "doc_id",
                     tokens_col: str = "n_tokens"):
    """Sequence packing WITH document splitting — the real pretraining
    convention (``pack_token_shards`` assigns each doc to the shard where it
    starts; this variant cuts docs at every shard boundary they straddle and
    emits one row per (doc, shard) overlap):
    (id_col, shard_id, tok_start, tok_end, offset_in_shard) with
    tok_start/tok_end the half-open token span WITHIN the doc and
    offset_in_shard where that span lands. Zero-token docs emit nothing.
    Every shard except the last is exactly ``budget`` tokens full.

    Same distributed shape as pack_token_shards: ONE range sort by id, an
    O(#blocks) block-sum side channel, then a vectorized per-block span
    explosion (np.repeat over span counts — no Python per-span loop)."""
    sorted_ds = ds.sort(id_col).materialize()
    base = _block_offsets(sorted_ds, id_col, tokens_col)

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "shard_id": pa.array([], pa.int64()),
                      "tok_start": pa.array([], pa.int64()),
                      "tok_end": pa.array([], pa.int64()),
                      "offset_in_shard": pa.array([], pa.int64())})

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        n = b[tokens_col].to_numpy(zero_copy_only=False).astype(np.int64)
        start = np.full(len(n), base(b), dtype=np.int64)
        start[1:] += np.cumsum(n[:-1])
        end = start + n
        keep = n > 0
        ids = b[id_col].to_numpy(zero_copy_only=False)[keep]
        s0, e0, nn = start[keep], end[keep], n[keep]
        first_shard = s0 // budget
        last_shard = (e0 - 1) // budget
        counts = (last_shard - first_shard + 1)
        if counts.sum() == 0:
            return empty
        ridx = np.repeat(np.arange(len(ids)), counts)
        # span k within doc i covers shard first_shard[i] + k
        k = np.arange(len(ridx)) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        shard = first_shard[ridx] + k
        lo = np.maximum(s0[ridx], shard * budget)          # global token lo
        hi = np.minimum(e0[ridx], (shard + 1) * budget)    # global token hi
        return pa.table({
            id_col: pa.array(np.repeat(ids, counts), pa.int64()),
            "shard_id": pa.array(shard, pa.int64()),
            "tok_start": pa.array(lo - s0[ridx], pa.int64()),
            "tok_end": pa.array(hi - s0[ridx], pa.int64()),
            "offset_in_shard": pa.array(lo - shard * budget, pa.int64()),
        })

    return sorted_ds.map_batches(explode, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)


def exact_quantiles(ds, col: str, quantiles: list[float]):
    """EXACT distributed quantiles (discrete: the smallest element whose
    cumulative fraction >= q, i.e. sorted index max(0, ceil(q*n)-1) —
    DuckDB's quantile_disc convention, verified empirically): ONE range sort
    of the single projected column, then the driver reads ONLY block
    row-counts (metadata) and fetches the handful of blocks holding the
    target indices. Never collects the column. Nulls are skipped, as in
    DuckDB; no value at all gives None."""
    sorted_ds = (ds.map_batches(lambda b: b.select([col]).drop_null(), batch_format="pyarrow",
                                zero_copy_batch=True)
                   .sort(col).materialize())
    # count() on a materialized Dataset is driver-side metadata — O(#blocks)
    total = sorted_ds.count()
    if total == 0:
        return {q: None for q in quantiles}
    want = {q: max(0, int(np.ceil(q * total)) - 1) for q in quantiles}
    # ONE public split_at_indices call carves out a 1-row Dataset per target
    # index (metadata-driven block slicing — only the blocks holding a target
    # row are touched); take(1) fetches each. No private Ray APIs (VERDICT
    # r02 #7 / ADVICE).
    idxs = sorted(set(want.values()))
    bounds: list[int] = []
    for i in idxs:
        bounds.extend((i, i + 1))
    splits = sorted_ds.split_at_indices(bounds)
    # splits alternate: [before, row_i0, gap, row_i1, gap, ...] — the 1-row
    # datasets are at positions 1, 3, 5, ...
    val_at = {}
    for j, i in enumerate(idxs):
        row = splits[2 * j + 1].take(1)[0]
        val_at[i] = float(row[col])
    return {q: val_at[want[q]] for q in quantiles}


def sort_grouped_top_k(ds, key_col, order_col: str, k: int,
                       descending: bool = True, tie_col: str | None = None):
    """Grouped top-k at UNBOUNDED key cardinality (#groups ~ #rows — the
    regime where a groupby pays Ray Aggregate's ~300x per-group overhead;
    see sort_group_aggregate). grouped_top_k's fallback above
    _SINGLE_FINAL_MAX_BYTES of partial rows. "Top k docs per
    canonical URL / content cluster" over a web corpus lives here.

    Shape: ONE ``group_map`` on the keys with (order[, tie]) as the local
    order, so each block keeps the first k rows of its whole groups; one
    group must fit in one reducer block. Rows ride whole through the sort:
    ship slim columns (key, order, id) and join payloads back by id.

    Ties: ``tie_col`` (ascending, must make rows unique) pins the SQL
    ROW_NUMBER order; without it, ranks among equal order values follow
    the block's row order. Adds ``rank`` (1-based). ``key_col`` is one
    column name or a list of them; order as in grouped_top_k (NaN, then
    null, last). No keys (ORDER BY ... LIMIT k) is one group under a
    constant key, so its rows meet in one reducer block, sorted in order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keys = [key_col] if isinstance(key_col, str) else list(key_col)
    sort_keys = [(order_col, "descending" if descending else "ascending")] + (
        [(tie_col, "ascending")] if tie_col else [])
    if keys:
        return group_map(ds, keys, lambda b: _head(b, keys, k, rank=True), order=sort_keys)

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("__g", pa.array(np.zeros(b.num_rows, np.int8)))

    def head(b: pa.Table) -> pa.Table:
        return _head(b, ["__g"], k, rank=True).drop_columns(["__g"])

    return group_map(_typed_map(ds, tag), ["__g"], head, order=sort_keys)


def sort_group_count_distinct(ds, key_col: str, val_col: str):
    """EXACT grouped COUNT(DISTINCT val) — the exact sibling of the HLL
    sketch path (stages/stats.py) for when the answer must be right, not
    approximate (distinct users per URL, distinct domains per n-gram).
    -> Dataset (key_col, n_distinct, n_rows).

    Two partial_groupby passes: the first collapses the input to its
    distinct (key, val) pairs with their row counts, the second counts a
    key's pairs with a non-null value and sums its rows. Each pass picks its
    own final merge by size, so #groups ~ #rows takes the range sort. SQL
    semantics: a null value is not a distinct value, n_rows counts every
    row, null keys form one group, NaN is one value."""
    pairs = partial_groupby(ds, [key_col, val_col], [(val_col, "count", "c")])

    def flag(b: pa.Table) -> pa.Table:
        return b.append_column("__valid", pc.cast(b[val_col].is_valid(), pa.int64()))

    return partial_groupby(_typed_map(pairs, flag), [key_col],
                           [("__valid", "sum", "n_distinct"), ("c", "sum", "n_rows")])


def exact_grouped_quantile(ds, key_col: str, val_col: str, q="0.5"):
    """EXACT per-group quantile at UNBOUNDED key cardinality —
    quantile_disc semantics: the element at ascending index ceil(n*q)-1
    of each group's n non-null values (index computed in exact rational
    arithmetic, Fraction(str(q)), which matches DuckDB bit-for-bit where
    float ceil(n*q) does not — probed: (100, 0.07)), null for a group with
    no value; n_rows counts every row and null keys form one group. The
    grouped sibling of exact_quantiles; median is q="0.5".

    Shape: ONE ``group_map`` on the key with the value as the local order.
    Nulls sort last, so a group's values precede its null values and each
    block picks every quantile of its whole groups by index. One group must
    fit in one reducer block.
    -> Dataset (key_col, q_val, n_rows)."""
    from fractions import Fraction

    frac = Fraction(str(q))
    if not (0 < frac <= 1):
        raise ValueError("q must be in (0, 1]")

    def pick(b: pa.Table) -> pa.Table:
        starts = np.flatnonzero(_group_starts(b, [key_col]))
        valid = b[val_col].is_valid().to_numpy(zero_copy_only=False).astype(np.int64)
        nv = np.add.reduceat(valid, starts)
        # ascending index of the quantile among nv values; a group with no
        # value gives a null q_val
        val_at = starts + (nv * frac.numerator + frac.denominator - 1) // frac.denominator - 1
        return pa.table({key_col: b[key_col].take(pa.array(starts, pa.int64())),
                         "q_val": b[val_col].take(pa.array(val_at, pa.int64(), mask=nv == 0)),
                         "n_rows": pa.array(np.diff(np.r_[starts, b.num_rows]), pa.int64())})

    return group_map(ds.select_columns([key_col, val_col]), [key_col], pick, order=[val_col])


def sort_group_mode(ds, key_col: str, val_col: str):
    """EXACT grouped MODE (most frequent value; ties to the SMALLEST
    value) — majority label per cluster / dominant language per domain.
    -> Dataset (key_col, mode_val, mode_cnt, n_rows).

    partial_groupby counts the (key, val) pairs; grouped_top_k keeps each
    key's top pair (count DESC, val ASC) and a second partial_groupby sums
    each key's rows over the same pairs. The two are stitched by a
    null-padded union and a max per key, not a join: joins never match
    null keys. GROUP BY semantics: null keys form one group, and a null
    value is a value that loses every tie."""
    pairs = partial_groupby(ds, [key_col, val_col],
                            [(val_col, "count", "mode_cnt")]).materialize()
    if pairs.schema() is None:  # an input with neither rows nor a schema
        return pairs
    val_t = pairs.schema().base_schema.field(val_col).type
    best = grouped_top_k(pairs, [key_col], "mode_cnt", 1, tie_col=val_col)
    totals = partial_groupby(pairs, [key_col], [("mode_cnt", "sum", "n_rows")])

    def pad_best(b: pa.Table) -> pa.Table:
        return (b.select([key_col, val_col, "mode_cnt"])
                 .rename_columns([key_col, "mode_val", "mode_cnt"])
                 .append_column("n_rows", pa.nulls(b.num_rows, pa.int64())))

    def pad_totals(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table([b[key_col], pa.nulls(n, val_t), pa.nulls(n, pa.int64()), b["n_rows"]],
                        names=[key_col, "mode_val", "mode_cnt", "n_rows"])

    both = _typed_map(best, pad_best).union(_typed_map(totals, pad_totals))
    return partial_groupby(both, [key_col],
                           [(c, "max", c) for c in ("mode_val", "mode_cnt", "n_rows")])
