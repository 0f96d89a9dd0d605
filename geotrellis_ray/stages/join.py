"""Layer-layer joins keyed on SpatialKey/sfc.

Re-expresses ref:spark/src/main/scala/geotrellis/spark/join/SpatialJoin.scala
(join / leftOuterJoin over SpacePartitioner, L:unverified — /root/reference
empty at survey time; SURVEY.md §2.4) as an equi-join on the sfc column that
broadcasts a small right side, one Arrow join per left batch of at least the
right side's rows, and hash-shuffles a large one (spatial_join), plus semi/anti
via broadcast key sets, an interval join (range_join; a small interval side
is broadcast like any other right side) and a partition-based (PBSM)
large-large spatial join built from ClipToGrid explode + equi-join on sfc.
Every engine equi-join goes through spatial_join: it is the one place that
calls Ray's ``Dataset.join``, the one place that sizes its partitions, and it
normalizes the blocks of the right side only. A broadcast ships the right
side's own blocks to the join tasks, never through the driver.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from ..core.sfc import zorder

logger = logging.getLogger(__name__)

# Broadcast costs about right bytes x left batches: each batch joins the whole
# right table; the shuffle pays ~1.5-3 s of repartitions and join actors. 1 MiB
# is the largest right side where broadcast won for every caller measured when
# each left block was its own batch (a plain equi-join won up to ~1,300 MiB x
# blocks; pbsm_spatial_join lost from 2 MiB); it was not re-measured since
# batches span blocks.
BROADCAST_MAX_BYTES = 1 << 20
# Every pa.Table.join call costs ~0.2 ms fixed plus a fresh hash table of the
# right side (~0.1 us per right row, against ~0.03 us per left row to probe).
# Left batches of max(right rows, this) rows amortize both: Ray bundles whole
# left blocks into each task, so build work scales with left rows, not blocks.
# On 4 CPUs 2^17 beat 2^15 at 8-160 left blocks of 3,750 or 37,500 rows; a
# left block larger than the batch is split into several joins.
_BROADCAST_MIN_BATCH_ROWS = 1 << 17
_BROADCAST_HOW = ("inner", "left_outer")


def _join_partitions() -> int:
    """Ray hash joins spawn num_partitions aggregator ACTORS; size to the
    cluster (chained joins beyond it deadlock silently)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, min(16, cpus // 2))


def _normalize_blocks(ds, n: int):
    """Workaround for Ray 2.49: groupby().aggregate() can emit an EMPTY block
    with an EMPTY schema; Dataset.join then fails with ArrowInvalid ("no
    match for key field on right side"). A repartition rebuilds uniform
    blocks. Applied to the right side only: the left passes through as given
    (see spatial_join)."""
    return ds.repartition(n)


def _broadcast_join(batch: pa.Table, *, right_refs, **join_kw) -> pa.Table:
    """One left batch joined against the whole broadcast right side, given
    as the refs of its blocks: the blocks that have columns are concatenated
    (aggregate lineage adds schema-less ones) and passed to the
    pa.Table.join call Ray 2.49's hash join makes on each partition
    (JoiningShuffleAggregation.finalize), so key coalescing, suffixes, null
    and duplicate keys and the output schema match the shuffle path."""
    import ray

    parts = [t for t in ray.get(right_refs) if t.num_columns]
    return batch.join(pa.concat_tables(parts, promote_options="default"), **join_kw)


def spatial_join(left, right, how: str = "inner", num_partitions: int | None = None,
                 on: tuple[str, ...] = ("sfc",), left_suffix: str = "", right_suffix: str = "_r"):
    """Equi-join two keyed layers on sfc (or any key tuple); how is a Ray join
    type. Result bounds = combined metadata (computed by the caller's
    aggregate pass when needed). Every engine equi-join goes through here.
    Both sides name their keys ``on``: callers rename a right key, which
    gives the schema a ``right_on`` join would (keys coalesce to the left's
    names).

    The right side is materialized once (unless it already is) and its size
    read, so callers put the slim or aggregate-lineage side on the right. An
    inner or left_outer join against a right side of at most
    BROADCAST_MAX_BYTES that has a schema broadcasts it: each task gets the
    refs of the right side's own blocks (the driver never fetches them) and
    runs one Arrow join per left batch of max(right rows,
    _BROADCAST_MIN_BATCH_ROWS) rows, no repartition, no join actors.
    Anything else repartitions the right side only (_normalize_blocks) into
    ``num_partitions`` (default _join_partitions()) and runs Ray's
    hash-partitioned ``Dataset.join``. The left passes through as given: any
    lineage Ray accepts there, including groupby-aggregate output with
    empty-schema blocks, a filter that leaves one non-empty block, and a
    leading empty block (pinned in tests/test_join_strategy.py). Same rows
    and schema either way (block boundaries and row order may differ); the
    choice is logged at DEBUG."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(right, MaterializedDataset):
        right = right.materialize()
    size = right.size_bytes()
    # size, row count and schema come from block metadata. Aggregate lineage
    # adds schema-less blocks; if all are, no key column is left to
    # broadcast and Ray 2.49's shuffle rejects it, as before
    broadcast = (how in _BROADCAST_HOW and size is not None and size <= BROADCAST_MAX_BYTES
                 and right.schema() is not None)
    batch_rows = max(right.count(), _BROADCAST_MIN_BATCH_ROWS) if broadcast else None
    logger.debug("join choice %s", {"site": "stages.join.spatial_join", "right_bytes": size,
                                    "choice": "broadcast" if broadcast else "shuffle",
                                    "threshold": BROADCAST_MAX_BYTES, "batch_rows": batch_rows})
    if broadcast:
        return left.map_batches(
            _broadcast_join, batch_format="pyarrow", batch_size=batch_rows, zero_copy_batch=True,
            fn_kwargs={"right_refs": right.to_arrow_refs(), "join_type": how.replace("_", " "),
                       "keys": list(on), "left_suffix": left_suffix, "right_suffix": right_suffix})
    n = num_partitions or _join_partitions()
    return left.join(_normalize_blocks(right, n), join_type=how, num_partitions=n, on=on,
                     left_suffix=left_suffix, right_suffix=right_suffix)


def semi_join_keys(ds, key_set, key_col: str = "sfc", anti: bool = False):
    """Semi/anti join against a SMALL key set: broadcast the set, filter
    inside map_batches — no shuffle (SURVEY.md §2.4)."""
    keys = np.fromiter((int(k) for k in key_set), dtype=np.uint64, count=len(key_set))

    def f(batch: pa.Table) -> pa.Table:
        v = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        hit = np.isin(v, keys)
        return batch.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def range_join(points_ds, intervals_ds, value_col: str, lo_col: str, hi_col: str,
               bucket_width: float, point_suffix: str = "", interval_suffix: str = "_r"):
    """Large-large interval join (the 1-D PBSM shape): match point rows to
    interval rows with ``lo <= value < hi``. Each point hashes to exactly ONE
    bucket (floor(value/width)); each interval EXPLODES to its covering
    buckets (flat map, no shuffle); an equi-join on the bucket co-locates
    candidates (spatial_join: a small interval side is broadcast, a large one
    shuffled); a vectorized refine applies the exact predicate. No pair can
    duplicate: it only materializes in the point's own bucket.

    ``bucket_width`` trades explosion factor against join selectivity — pick
    it near the typical interval length (driver mandate "range join";
    no reference counterpart)."""

    def pbucket(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        return b.append_column("__bucket", pa.array(
            np.floor(v / bucket_width).astype(np.int64), pa.int64()))

    def ibucket(b: pa.Table) -> pa.Table:
        lo = b[lo_col].to_numpy(zero_copy_only=False)
        hi = b[hi_col].to_numpy(zero_copy_only=False)
        first = np.floor(lo / bucket_width).astype(np.int64)
        # hi is exclusive: the last candidate bucket is the one containing
        # the largest value strictly below hi
        last = np.floor(np.nextafter(hi, -np.inf) / bucket_width).astype(np.int64)
        counts = np.maximum(last - first + 1, 0)
        idx = np.repeat(np.arange(len(b), dtype=np.int64), counts)
        offs = np.concatenate([np.arange(c) for c in counts]) if len(counts) else np.array([], np.int64)
        out = b.take(pa.array(idx, pa.int64()))
        return out.append_column("__bucket", pa.array(first[idx] + offs, pa.int64()))

    pts = points_ds.map_batches(pbucket, batch_format="pyarrow", zero_copy_batch=True)
    ivs = intervals_ds.map_batches(ibucket, batch_format="pyarrow", zero_copy_batch=True)
    joined = spatial_join(pts, ivs, on=("__bucket",), left_suffix=point_suffix,
                          right_suffix=interval_suffix)

    def refine(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        lo = b[lo_col].to_numpy(zero_copy_only=False)
        hi = b[hi_col].to_numpy(zero_copy_only=False)
        keep = (v >= lo) & (v < hi)
        return b.filter(pa.array(keep)).drop_columns(["__bucket"])

    return joined.map_batches(refine, batch_format="pyarrow", zero_copy_batch=True)


def pbsm_spatial_join(points_ds, polygons_ds, layout, zoom: int, wkb_col: str = "wkb"):
    """Large-large spatial join (partition-based spatial-merge): explode the
    polygon side to covering sfc keys via ClipToGrid, equi-join on sfc, then
    exact PIP refine per joined batch. Use when the polygon side is too large
    to broadcast (SURVEY.md §2.4 VectorJoin large-large variant)."""
    from ..core import wkb as wkb_mod
    from ..core.geom import point_in_polygon_geom
    from .clip import clip_to_grid_batch

    exploded = polygons_ds.map_batches(
        # drop the original geometry after clipping: clipped_wkb carries all
        # the refine needs, and the original would be re-shipped per joined row
        lambda b: clip_to_grid_batch(b, layout, wkb_col=wkb_col).drop_columns([wkb_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(
        lambda b: b.append_column(
            "sfc",
            pa.array(
                zorder(
                    b["key_col"].to_numpy(zero_copy_only=False),
                    b["key_row"].to_numpy(zero_copy_only=False),
                ),
                pa.uint64(),
            ),
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    joined = spatial_join(points_ds, exploded, how="inner")

    def refine(batch: pa.Table) -> pa.Table:
        # post-join row count is the biggest dataflow in a large-large join:
        # group the batch by clipped polygon, decode each polygon ONCE, and
        # run the vectorized PIP over all of its candidate points (same shape
        # as PolygonIndex.probe) — never per-row Python
        import pandas as pd

        full = batch["full"].to_numpy(zero_copy_only=False).astype(bool)
        keep = full.copy()
        nf = np.nonzero(~full)[0]
        if len(nf):
            xs = batch["lon"].to_numpy(zero_copy_only=False)
            ys = batch["lat"].to_numpy(zero_copy_only=False)
            wkbs = batch["clipped_wkb"].to_pylist()
            # object-dtype Series keeps python bytes intact (a bare list would
            # coerce to numpy S-dtype, which silently strips trailing NULs and
            # corrupts WKB)
            codes, uniques = pd.factorize(pd.Series([wkbs[i] for i in nf], dtype=object))
            for u, buf in enumerate(uniques):
                g = wkb_mod.decode(buf)
                if g["type"] not in ("Polygon", "MultiPolygon"):
                    continue
                sel = nf[codes == u]
                keep[sel] = point_in_polygon_geom(xs[sel], ys[sel], g)
        return batch.filter(pa.array(keep))

    return joined.map_batches(refine, batch_format="pyarrow", zero_copy_batch=True)
