"""SpaceTimeKey layer operators: (col, row, time_bin) keys with a Z3 SFC,
temporal subsetting, and the SpaceTime -> Spatial collapse.

Reference parity (L:unverified — /root/reference empty at survey time):
- SpaceTimeKey / TemporalKey: ref:layer/src/main/scala/geotrellis/layer/SpaceTimeKey.scala
- Between/At filters: ref:spark/.../filter/TileLayerRDDFilterMethods.scala
- toSpatial: ref:spark/.../filter/SpaceTimeToSpatialMethods.scala
Time is a KEY COMPONENT (event-time binning at rest), never a watermark —
mirrors the reference's strictly-batch model (SURVEY.md §2.9).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.sfc import zorder3

HOUR_US = 3_600_000_000


def assign_spacetime_key_batch(batch: pa.Table, ts_col: str = "warc_ts",
                               time_bin_us: int = HOUR_US) -> pa.Table:
    """Requires key_col/key_row already present (stages/enrich.assign_keys_batch);
    adds time_bin and the Z3 sfc3 shuffle/sort key."""
    ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    tb = ts // time_bin_us
    c = batch["key_col"].to_numpy(zero_copy_only=False)
    r = batch["key_row"].to_numpy(zero_copy_only=False)
    out = batch
    if "time_bin" not in batch.column_names:
        out = out.append_column("time_bin", pa.array(tb, pa.int64()))
    z3 = zorder3(c.astype(np.uint64), r.astype(np.uint64), tb.astype(np.uint64))
    return out.append_column("sfc3", pa.array(z3, pa.uint64()))


def filter_between(ds, t_min_bin: int, t_max_bin: int, col: str = "time_bin"):
    """Between(t1, t2) layer filter — inclusive bin range, predicate pushdown
    friendly (plain column comparison; when reading a written layer, push the
    same predicate into read_parquet instead)."""
    return ds.filter(expr=f"{col} >= {int(t_min_bin)} and {col} <= {int(t_max_bin)}")


def to_spatial(ds, agg_specs=None):
    """Collapse the temporal component. With agg_specs (partial_groupby
    format), same-SpatialKey rows across time bins are merged; without,
    time columns are simply dropped (caller dedups if needed)."""
    drop = [c for c in ("time_bin", "sfc3") if c in ds.schema().names]
    if agg_specs is None:
        return ds.drop_columns(drop) if drop else ds
    from .agg import partial_groupby

    return partial_groupby(ds.drop_columns(["sfc3"] if "sfc3" in ds.schema().names else []),
                           ["key_col", "key_row"], agg_specs)
