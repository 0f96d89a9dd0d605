"""Layer statistics: StreamingHistogram / FastMapHistogram aggregates
(partial per block -> merge), classBreaks quantiles, polygonal (zonal)
summaries.

Re-expresses (SURVEY.md §2.5):
- StatsTileRDDMethods.histogram / classBreaks
  ref:spark/src/main/scala/geotrellis/spark/summary/StatsTileRDDMethods.scala (L:unverified)
- PolygonalSummary ref:raster/.../summary/polygonal/PolygonalSummary.scala +
  ref:spark/.../summary/polygonal/RDDPolygonalSummaryMethods.scala (L:unverified)
- Zonal ops        ref:raster/.../mapalgebra/zonal/ (L:unverified)
(/root/reference empty at survey time — SURVEY.md §0.)

Shape: one sketch per block emitted by map_batches (the partial), merged on
the driver (a handful of sketch rows — NOT the data) or via groupby for
per-zone variants. This is the canonical partial+final aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.histogram import FastMapHistogram, StreamingHistogram


def _values_from_batch(batch: pa.Table, value_col: str) -> np.ndarray:
    col = batch[value_col]
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        arr = col.combine_chunks()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.chunk(0)
        return arr.values.to_numpy(zero_copy_only=False)
    return col.to_numpy(zero_copy_only=False)


def _tree_merge_sketches(sketch_ds, make_empty, from_dict, tree_batch: int = 4096):
    """One distributed re-merge round over the one-sketch-per-block stream
    (large batch_size, so ~tree_batch sketches collapse into one per task)
    before the final driver collect. Bounds the driver fetch at
    O(#blocks / tree_batch) instead of O(#blocks) — at 100 TB (~10^6 blocks
    x ~KB JSON each) the naive collect is GBs through the driver (VERDICT
    r02 #5)."""
    import json

    def remerge(batch: pa.Table) -> pa.Table:
        h = make_empty()
        for s in batch["sketch"].to_pylist():
            h.merge(from_dict(json.loads(s)))
        return pa.table({"sketch": pa.array([json.dumps(h.to_dict())], pa.string())})

    merged = sketch_ds.map_batches(
        remerge, batch_format="pyarrow", zero_copy_batch=True, batch_size=tree_batch
    )
    out = make_empty()
    for row in merged.take_all():
        out.merge(from_dict(json.loads(row["sketch"])))
    return out


def layer_histogram(ds, value_col: str, size: int = 80) -> StreamingHistogram:
    """Whole-layer StreamingHistogram: one sketch per block, tree-merged (one
    distributed combine round), tiny final merge on the driver. Only sketch
    rows cross the wire."""
    import json

    def partial(batch: pa.Table) -> pa.Table:
        h = StreamingHistogram(size).update(_values_from_batch(batch, value_col))
        return pa.table({"sketch": pa.array([json.dumps(h.to_dict())], pa.string())})

    sketches = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _tree_merge_sketches(sketches, lambda: StreamingHistogram(size),
                                StreamingHistogram.from_dict)


def layer_histogram_exact(ds, value_col: str) -> FastMapHistogram:
    import json

    def partial(batch: pa.Table) -> pa.Table:
        h = FastMapHistogram().update(_values_from_batch(batch, value_col))
        return pa.table({"sketch": pa.array([json.dumps(h.to_dict())], pa.string())})

    sketches = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _tree_merge_sketches(sketches, FastMapHistogram, FastMapHistogram.from_dict)


def class_breaks(ds, value_col: str, n: int) -> list[float]:
    """Approximate quantile breaks from the merged streaming sketch."""
    return layer_histogram(ds, value_col).quantile_breaks(n)


def class_breaks_exact(ds, value_col: str, n: int) -> list[int]:
    """EXACT quantile classBreaks over an integer column via the merged
    FastMap histogram (the GeoTrellis exact path for integer cell types).
    Integer CDF rule -> SQL-reproducible bit-exact."""
    return layer_histogram_exact(ds, value_col).quantile_breaks(n)


def layer_min_max_mean(ds, value_col: str) -> dict:
    from ray.data.aggregate import Count, Max, Mean, Min

    row = ds.aggregate(
        Min(value_col, alias_name="min"),
        Max(value_col, alias_name="max"),
        Mean(value_col, alias_name="mean"),
        Count(alias_name="n"),
    )
    return dict(row)


def polygonal_summary(joined_ds, group_col: str = "polygon_id", value_col: str = "n_tokens",
                      drop_unmatched: bool = True):
    """Zonal stats over PIP-joined rows: groupby polygon, Sum/Min/Max/Mean/
    Count via partial_groupby's map-side combine (polygon cardinality is
    bounded — the polygon side is the broadcast small side by design — so
    the final merge takes the driver/one-block path instead of Ray's
    sort-based Aggregate and its fixed floor; above 128 MiB of partial rows it
    takes the sort merge). Mean is derived as sum/n, the
    same double division Ray's Mean and DuckDB's avg perform.
    ``drop_unmatched`` removes polygon_id == -1 (no-hit rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .agg import partial_groupby

    ds = joined_ds
    if drop_unmatched:
        ds = ds.map_batches(
            lambda b: b.filter(pc.greater_equal(b[group_col], 0)),
            batch_format="pyarrow", zero_copy_batch=True,
        )
    g = partial_groupby(ds, [group_col], [
        (group_col, "count", "n"),
        (value_col, "sum", f"sum_{value_col}"),
        (value_col, "min", f"min_{value_col}"),
        (value_col, "max", f"max_{value_col}"),
    ])

    def add_mean(b: "pa.Table") -> "pa.Table":
        mean = pc.divide(pc.cast(b[f"sum_{value_col}"], pa.float64()),
                         pc.cast(b["n"], pa.float64()))
        return b.append_column(f"mean_{value_col}", mean)

    return g.map_batches(add_mean, batch_format="pyarrow",
                         zero_copy_batch=True)


class _FractionalSummarizer:
    """Actor-pool stage for FractionalRasterizer-semantics zonal stats:
    polygons are the broadcast small side (ray.put once, wkb decoded once
    per ACTOR here in __init__), tiles stream through __call__; output is
    one partial row per (polygon, batch) — cells never shuffle."""

    def __init__(self, polygons_ref, layout):
        import ray

        from ..core import wkb as _wkb

        tab = polygons_ref if isinstance(polygons_ref, pa.Table) else ray.get(polygons_ref)
        self.layout = layout
        self.polys = []
        ids = tab["polygon_id"].to_numpy(zero_copy_only=False)
        for i, buf in enumerate(tab["wkb"].to_pylist()):
            geom = _wkb.decode(buf)
            ring_sets = [geom["rings"]] if geom["type"] == "Polygon" else [
                p["rings"] for p in geom["parts"]]
            allpts = np.vstack([r for rs in ring_sets for r in rs])
            bbox = (allpts[:, 0].min(), allpts[:, 1].min(),
                    allpts[:, 0].max(), allpts[:, 1].max())
            self.polys.append((int(ids[i]), ring_sets, bbox))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        from ..core.geom import clip_polygon_rect, polygon_area
        from ..core.raster import decode_tile
        from ._arrow_groups import ints, views

        kc, kr = ints(batch, "key_col"), ints(batch, "key_row")
        tcs, trs = ints(batch, "cols"), ints(batch, "rows")
        cts = batch["cell_type"].to_pylist()
        cells_v = views(batch, "cells")
        # pid -> [n_cells, area, wsum, min_v, max_v]
        acc: dict[int, list] = {}
        for t in range(batch.num_rows):
            tile = decode_tile(cells_v[t], int(tcs[t]), int(trs[t]), cts[t])
            ext = self.layout.key_to_extent(int(kc[t]), int(kr[t]))
            nr, nc = tile.shape
            cw, ch = ext.width / nc, ext.height / nr
            for pid, ring_sets, (bx0, by0, bx1, by1) in self.polys:
                if bx1 <= ext.xmin or bx0 >= ext.xmax or by1 <= ext.ymin or by0 >= ext.ymax:
                    continue
                i0 = max(0, int(math.floor((bx0 - ext.xmin) / cw)))
                i1 = min(nc - 1, int(math.ceil((bx1 - ext.xmin) / cw)) - 1)
                j0 = max(0, int(math.floor((ext.ymax - by1) / ch)))
                j1 = min(nr - 1, int(math.ceil((ext.ymax - by0) / ch)) - 1)
                for j in range(j0, j1 + 1):
                    cy1 = ext.ymax - j * ch
                    cy0 = ext.ymax - (j + 1) * ch
                    for i in range(i0, i1 + 1):
                        v = tile[j, i]
                        if np.isnan(v):
                            continue
                        cx0 = ext.xmin + i * cw
                        cx1 = ext.xmin + (i + 1) * cw
                        area = 0.0
                        for rings in ring_sets:
                            shell = clip_polygon_rect(rings[0], cx0, cy0, cx1, cy1)
                            if shell is None or len(shell) < 3:
                                continue
                            a = polygon_area(shell)
                            for hole in rings[1:]:
                                hc = clip_polygon_rect(hole, cx0, cy0, cx1, cy1)
                                if hc is not None and len(hc) >= 3:
                                    a -= polygon_area(hc)
                            area += a
                        frac = area / (cw * ch)
                        if frac <= 0.0:
                            continue
                        st = acc.get(pid)
                        if st is None:
                            acc[pid] = [1, frac, frac * float(v), float(v), float(v)]
                        else:
                            st[0] += 1
                            st[1] += frac
                            st[2] += frac * float(v)
                            if v < st[3]:
                                st[3] = float(v)
                            if v > st[4]:
                                st[4] = float(v)
        pids = sorted(acc)
        return pa.table({
            "polygon_id": pa.array(pids, pa.int64()),
            "n_cells": pa.array([acc[p][0] for p in pids], pa.int64()),
            "area": pa.array([acc[p][1] for p in pids], pa.float64()),
            "wsum": pa.array([acc[p][2] for p in pids], pa.float64()),
            "min_v": pa.array([acc[p][3] for p in pids], pa.float64()),
            "max_v": pa.array([acc[p][4] for p in pids], pa.float64()),
        })


def polygonal_summary_fractional(tiles_ds, polygons_ref, layout, concurrency: int = 4):
    """Polygonal summary with FRACTIONAL cell weights — the GeoTrellis
    FractionalRasterizer semantics (ref:raster/src/main/scala/geotrellis/
    raster/rasterize/polygon/FractionalRasterizer.scala and
    ref:raster/.../summary/polygonal/PolygonalSummary.scala, L:unverified —
    /root/reference empty at survey time): every raster cell contributes
    weight = the exact area fraction of the cell covered by the polygon
    (Sutherland–Hodgman clip + shoelace — exact for dyadic-coordinate
    fixtures; the center-rule ``polygonal_summary`` is the weight∈{0,1}
    special case). NoData cells contribute nothing.

    Scale shape: polygons broadcast once; per-cell work is tile-local inside
    the actor pool; the shuffle carries one partial row per (polygon, batch),
    so the final merge moves O(polygons), never O(cells). Returns per
    polygon: n_cells (frac>0), area (Σ frac), wsum (Σ frac·v),
    wmean (wsum/area), min_v, max_v."""
    import pyarrow.compute as pc

    from .agg import partial_groupby

    partials = tiles_ds.map_batches(
        _FractionalSummarizer,
        fn_constructor_args=(polygons_ref, layout),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency,
    )
    g = partial_groupby(partials, ["polygon_id"], [
        ("n_cells", "sum", "n_cells"),
        ("area", "sum", "area"),
        ("wsum", "sum", "wsum"),
        ("min_v", "min", "min_v"),
        ("max_v", "max", "max_v"),
    ])

    def add_mean(b: pa.Table) -> pa.Table:
        return b.append_column("wmean", pc.divide(b["wsum"], b["area"]))

    return g.map_batches(add_mean, batch_format="pyarrow", zero_copy_batch=True)


def zonal_stats_fractional_grid(tiles_ds, scale_num: int, scale_den: int,
                                off_x_num: int, off_y_num: int):
    """Fractional zonal statistics against a NON-ALIGNED zone GRID — the
    raster-zone extension of ``polygonal_summary_fractional`` (VERDICT r04
    optional #9b; GeoTrellis pairs ref:raster/.../mapalgebra/zonal/ with
    FractionalRasterizer weights only through polygon zones — this covers
    the resolution/offset-mismatched zone-raster case the Scala API leaves
    to resample-then-zonal, L:unverified, /root/reference empty).

    The zone layer is an analytic grid over the value layer's GLOBAL cell
    coordinates: zone (jx, jy) covers
    x ∈ [ (off_x_num + jx·scale_num) / scale_den, … + scale_num/scale_den ),
    same for y — i.e. zone cells are scale_num/scale_den value cells wide
    with a rational offset. Every value cell contributes to each
    overlapping zone cell with weight = the EXACT rational overlap area, in
    integer sub-cell units of 1/scale_den² cell (``sum_w`` is exact int64;
    ``sum_wv`` is float64 but exact below 2^53 for integer-valued layers,
    so the whole op is SQL-replayable). Requires scale_num >= scale_den (zone cells at
    least one value cell wide → a value cell spans at most 2 zone cells per
    axis). NoData cells contribute nothing.

    Scale shape: the per-cell scatter is tile-local (np.add.at over the
    ≤ (cols/s+2)×(rows/s+2) zone window the tile touches); the shuffle
    carries one partial row per (zone, tile) — O(zones), never O(cells).
    Returns per zone: (zone_x, zone_y, sum_w, sum_wv, n_cells, wmean) with
    wmean = sum_wv/sum_w (one IEEE division)."""
    import pyarrow.compute as pc

    from ..core.raster import decode_tile, is_nodata
    from .agg import partial_groupby

    if scale_num < scale_den:
        raise ValueError("zone cells must be >= 1 value cell (scale_num >= scale_den)")
    q, s = int(scale_den), int(scale_num)

    def axis_pieces(gq: np.ndarray, off: int):
        """For global sub-unit cell starts gq (= global_coord * q): the zone
        index of the left piece, its weight, and the right piece's weight
        (0 when the cell lies inside one zone column)."""
        j0 = (gq - off) // s
        bq = off + (j0 + 1) * s          # right boundary of zone j0, sub-units
        wl = np.minimum(q, bq - gq)      # 1..q
        return j0, wl, q - wl

    def partial(batch: pa.Table) -> pa.Table:
        from ._arrow_groups import views

        kc = batch["key_col"].to_numpy(zero_copy_only=False)
        kr = batch["key_row"].to_numpy(zero_copy_only=False)
        cells_v = views(batch, "cells")  # zero-copy memoryviews
        tcs = batch["cols"].to_numpy(zero_copy_only=False)
        trs = batch["rows"].to_numpy(zero_copy_only=False)
        cts = batch["cell_type"].to_pylist()
        zx_o, zy_o, w_o, wv_o, n_o = [], [], [], [], []
        for t in range(batch.num_rows):
            tile = decode_tile(cells_v[t], int(tcs[t]), int(trs[t]), cts[t])
            rows_, cols_ = tile.shape
            gx = (int(kc[t]) * cols_ + np.arange(cols_, dtype=np.int64)) * q
            gy = (int(kr[t]) * rows_ + np.arange(rows_, dtype=np.int64)) * q
            jx0, wxl, wxr = axis_pieces(gx, off_x_num)
            jy0, wyl, wyr = axis_pieces(gy, off_y_num)
            valid = ~is_nodata(tile)
            # accumulate w·v in float64 (exact for integer layers below 2^53
            # since weights are ints; correct for float layers)
            v = np.where(valid, tile, 0).astype(np.float64, copy=False)
            # local zone window this tile touches (+1 col/row for the right pieces)
            x0, y0 = int(jx0[0]), int(jy0[0])
            nx = int(jx0[-1]) - x0 + 2
            ny = int(jy0[-1]) - y0 + 2
            sw = np.zeros((ny, nx), np.int64)
            swv = np.zeros((ny, nx), np.float64)
            nc = np.zeros((ny, nx), np.int64)
            lx, ly = jx0 - x0, jy0 - y0
            for dx, wx in ((0, wxl), (1, wxr)):
                for dy, wy in ((0, wyl), (1, wyr)):
                    w2 = wy[:, None] * wx[None, :]          # per-cell weight
                    w2 = np.where(valid, w2, 0)
                    idx = ((ly + dy)[:, None] * nx + (lx + dx)[None, :]).ravel()
                    np.add.at(sw.ravel(), idx, w2.ravel())
                    np.add.at(swv.ravel(), idx, (w2 * v).ravel())
                    np.add.at(nc.ravel(), idx, (w2 > 0).ravel().astype(np.int64))
            nz = sw.ravel() > 0
            gyx, gxx = np.divmod(np.nonzero(nz)[0], nx)
            zx_o.append(gxx + x0)
            zy_o.append(gyx + y0)
            w_o.append(sw.ravel()[nz])
            wv_o.append(swv.ravel()[nz])
            n_o.append(nc.ravel()[nz])
        if not zx_o:
            return pa.table({"zone_x": pa.array([], pa.int64()),
                             "zone_y": pa.array([], pa.int64()),
                             "sum_w": pa.array([], pa.int64()),
                             "sum_wv": pa.array([], pa.float64()),
                             "n_cells": pa.array([], pa.int64())})
        return pa.table({"zone_x": pa.array(np.concatenate(zx_o)),
                         "zone_y": pa.array(np.concatenate(zy_o)),
                         "sum_w": pa.array(np.concatenate(w_o)),
                         "sum_wv": pa.array(np.concatenate(wv_o)),
                         "n_cells": pa.array(np.concatenate(n_o))})

    partials = tiles_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    g = partial_groupby(partials, ["zone_x", "zone_y"], [
        ("sum_w", "sum", "sum_w"),
        ("sum_wv", "sum", "sum_wv"),
        ("n_cells", "sum", "n_cells"),
    ])

    def add_mean(b: pa.Table) -> pa.Table:
        return b.append_column("wmean", pc.divide(
            pc.cast(b["sum_wv"], pa.float64()), pc.cast(b["sum_w"], pa.float64())))

    return g.map_batches(add_mean, batch_format="pyarrow", zero_copy_batch=True)


def approx_distinct_sketch(ds, value_col: str, p: int = 12):
    """The distributed half of approx_distinct, returning the merged
    HyperLogLog itself: one ~4 KB register sketch per block (map_batches
    partial), one distributed tree-merge round, tiny driver merge. The
    sketch is the mergeable/persistable artifact (cross-run union via
    register max), and on integer columns its registers are a pure
    splitmix64 function of the values — the q_hll_registers SQL oracle
    replays them bit-for-bit."""
    import json

    from ..core.sketch import HyperLogLog

    def partial(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p).update(_values_from_batch(batch, value_col))
        return pa.table({"sketch": pa.array([json.dumps(h.to_dict())], pa.string())})

    sketches = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _tree_merge_sketches(sketches, lambda: HyperLogLog(p),
                                HyperLogLog.from_dict)


def approx_distinct(ds, value_col: str, p: int = 12) -> float:
    """COUNT(DISTINCT) at corpus scale: HyperLogLog (core/sketch.py) via
    approx_distinct_sketch. Error ~1.04/sqrt(2^p) (~1.6% at the default
    p=12); the data itself never shuffles."""
    return approx_distinct_sketch(ds, value_col, p).estimate()


def approx_top_k(ds, value_col: str, k: int = 10, capacity: int = 2048,
                 exact_recount: bool = True):
    """Heavy hitters at corpus scale: Misra-Gries sketch per block (bounded
    ``capacity`` keys regardless of stream size), tree-merged; optionally a
    second streaming pass re-counts ONLY the candidate keys exactly
    (broadcast filter + partial_groupby over a candidate-sized stream), so
    the result is exact whenever every true top-k key stays in the sketch
    (guaranteed when its frequency exceeds N/(capacity+1)).
    -> list[(key, count)] sorted by count desc, key asc."""
    import json

    from ..core.sketch import TopKSketch
    from .agg import partial_groupby

    def partial(batch: pa.Table) -> pa.Table:
        s = TopKSketch(capacity).update(_values_from_batch(batch, value_col))
        return pa.table({"sketch": pa.array([json.dumps(s.to_dict())], pa.string())})

    sketches = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged = _tree_merge_sketches(sketches, lambda: TopKSketch(capacity),
                                  TopKSketch.from_dict)
    cand = [key for key, _ in merged.top(max(k * 4, k + 8))]
    if not exact_recount:
        return merged.top(k)
    cand_arr = np.sort(np.asarray(cand, dtype=object))

    def filt(batch: pa.Table) -> pa.Table:
        vals = np.asarray(_values_from_batch(batch, value_col), dtype=object)
        pos = np.searchsorted(cand_arr, vals.astype(str))
        pos_c = np.clip(pos, 0, len(cand_arr) - 1)
        keep = cand_arr[pos_c] == vals
        return pa.table({value_col: pa.array(vals[keep])})

    counts = partial_groupby(
        ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True),
        [value_col], [(value_col, "count", "n")])
    df = counts.to_pandas().sort_values(["n", value_col], ascending=[False, True])
    return [(row[value_col], int(row["n"])) for _, row in df.head(k).iterrows()]


def approx_counts(ds, value_col: str, query_values, width: int = 2048,
                  depth: int = 5) -> dict:
    """Point frequency estimates at corpus scale: Count-min sketch
    (core/sketch.py) — one (depth x width) int64 table per block
    (map_batches partial), lossless additive tree-merge, tiny driver
    merge, then O(1) per-key queries for ``query_values``. One-sided:
    est >= truth always, overestimate bounded by eps*N w.h.p.; the data
    itself never shuffles. Returns {value: estimated_count}."""
    import json

    from ..core.sketch import CountMinSketch

    def partial(batch: pa.Table) -> pa.Table:
        s = CountMinSketch(width, depth).update(
            _values_from_batch(batch, value_col))
        return pa.table({"sketch": pa.array([json.dumps(s.to_dict())], pa.string())})

    sketches = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged = _tree_merge_sketches(sketches, lambda: CountMinSketch(width, depth),
                                  CountMinSketch.from_dict)
    qv = list(query_values)
    est = merged.query(qv)
    return {v: int(e) for v, e in zip(qv, est)}


def jenks_breaks(values_ds, value_col: str, k: int, max_bins: int = 4096):
    """Jenks/Fisher natural breaks: the k-class 1-D classification
    minimizing within-class weighted SSE (the classic cartographic
    classBreaks alternative to quantiles; GeoTrellis exposes quantile
    breaks — this is the optimal-breaks upgrade, engine addition).

    Scale shape: ONE slim distinct-value count aggregate (map-side
    combined; the same FastMap contract as equalize_layer — guarded), the
    exact O(k m^2) Fisher DP runs on the DRIVER over at most ``max_bins``
    distinct values (above that, values pre-bin to max_bins quantile bins
    of the distinct-value distribution, keeping the DP exact over bins).
    Returns the k-1 UPPER break values (class i = values in
    (breaks[i-1], breaks[i]])."""
    from .agg import partial_groupby

    hist = partial_groupby(values_ds, [value_col],
                           [(value_col, "count", "c")]).take_all()
    if not hist:
        return []
    vals = np.array([r[value_col] for r in hist], dtype=np.float64)
    cnts = np.array([r["c"] for r in hist], dtype=np.float64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    if len(vals) > max_bins:
        # exact DP over quantile bins of the distinct-value distribution
        q = np.cumsum(cnts) / cnts.sum()
        edges = np.searchsorted(q, np.linspace(0, 1, max_bins + 1)[1:-1])
        bins = np.split(np.arange(len(vals)), np.unique(edges))
        vals = np.array([vals[b].max() for b in bins if len(b)])
        cnts = np.array([cnts[b].sum() for b in bins if len(b)])
    m = len(vals)
    k = min(k, m)
    w = np.concatenate([[0.0], np.cumsum(cnts)])
    wx = np.concatenate([[0.0], np.cumsum(cnts * vals)])
    wx2 = np.concatenate([[0.0], np.cumsum(cnts * vals * vals)])

    def sse(a, b):
        """Vectorized SSE of value-index range [a..b] (a array, b scalar)."""
        W = w[b + 1] - w[a]
        S = wx[b + 1] - wx[a]
        S2 = wx2[b + 1] - wx2[a]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = S2 - S * S / W
        return np.where(W > 0, out, np.inf)

    INF = np.inf
    dp = np.full((k + 1, m), INF)
    back = np.zeros((k + 1, m), dtype=np.int64)
    dp[1] = np.array([sse(np.array([0]), i)[0] for i in range(m)])
    for j in range(2, k + 1):
        for i in range(j - 1, m):
            s = np.arange(j - 1, i + 1)           # first index of class j
            cand = dp[j - 1][s - 1] + sse(s, i)
            b = int(np.argmin(cand))
            dp[j][i] = cand[b]
            back[j][i] = s[b]
    # backtrack upper break values
    breaks = []
    i = m - 1
    for j in range(k, 1, -1):
        s = back[j][i]
        breaks.append(float(vals[s - 1]))
        i = s - 1
    return sorted(breaks)


def approx_distinct_by(ds, key_col: str, value_col: str, p: int = 12):
    """Grouped COUNT(DISTINCT) at corpus scale: a HyperLogLog per key,
    built from two partial_groupby passes. Each row maps to (key, register,
    rank) with the hash and register math of ``HyperLogLog.update_hashes``.
    The first pass keeps the max rank per (register, key) -- the sketch's
    register merge, so the final merge sees at most 2^p rows per key and
    block. The second sums 2^-rank and counts the registers present per key
    (zero registers = 2^p - count), and ``hll_estimate`` gives the answer.
    Null keys form one group. Returns a Dataset (key_col, approx_distinct)
    with each key's estimate equal to a HyperLogLog(p) over its values."""
    from ..core.sketch import hll_estimate, hll_registers, hash_values
    from .agg import _typed_map, partial_groupby

    def registers(batch: pa.Table) -> pa.Table:
        idx, rho = hll_registers(hash_values(_values_from_batch(batch, value_col)), p)
        return pa.table({key_col: batch[key_col], "reg": pa.array(idx, pa.int32()),
                         "rho": pa.array(rho, pa.uint8())})

    def powers(batch: pa.Table) -> pa.Table:
        # every term is a power of two and the per-key total is at most 2^p,
        # so while rho <= 52 - p the sum is exact in a double: every
        # summation order (and the sketch's own np.sum) gives the same value
        rho = batch["rho"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({key_col: batch[key_col], "inv": np.ldexp(1.0, -rho)})

    def estimate(batch: pa.Table) -> pa.Table:
        n_reg = batch["n_reg"].to_numpy(zero_copy_only=False)
        zeros = (1 << p) - n_reg
        inv_sum = batch["inv_sum"].to_numpy(zero_copy_only=False) + zeros
        return pa.table({key_col: batch[key_col],
                         "approx_distinct": pa.array(hll_estimate(p, inv_sum, zeros), pa.float64())})

    # an input with neither rows nor a schema passes through every step as it is
    regs = partial_groupby(_typed_map(ds, registers), ["reg", key_col], [("rho", "max", "rho")])
    sums = partial_groupby(_typed_map(regs, powers), [key_col],
                           [("inv", "sum", "inv_sum"), ("inv", "count", "n_reg")])
    return _typed_map(sums, estimate)
