"""RegionGroup: connected-component labeling of equal-valued cells across a
whole tile layer (ref:raster/src/main/scala/geotrellis/raster/regiongroup/
RegionGroup.scala — L:unverified, /root/reference empty at survey time; the
reference labels one tile, this stage labels the DISTRIBUTED layer).

Distributed shape (the classic two-level CCL):
1. per-tile labeling (map_batches, no shuffle): run-based two-pass union-find
   over rows — Python loops over RUNS, never cells; labels are globally
   unique by construction (tile-index << 18 | local-label).
2. tile edges (1 row of values+labels per shared border side) meet in one
   ``agg.group_map`` on (dir, edge_col, edge_row), groups of size <= 2;
   equal adjacent values emit label-equivalence pairs. The edge stream is O(tiles x tile_edge),
   ~2 KB/tile — negligible next to the layer.
3. equivalences union-find on the driver (component = min global label —
   deterministic). At extreme scales swap in the distributed min-label
   propagation used by stages/dedup.cluster_pairs; the pair schema matches.
4. relabel (map_batches): np.searchsorted over the broadcast (ray.put)
   remap table — only labels that participate in a cross-tile merge appear
   in it; all others pass through.

Output tiles are int64 label cells, NoData = -1 (not part of any region).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.raster import decode_tile, is_nodata

_LOCAL_BITS = 18  # max 2^18 runs/tile — a 256x256 tile has <= 32768 runs


def label_tile(a: np.ndarray) -> np.ndarray:
    """4-connectivity CCL of equal-valued cells; NoData cells -> -1.
    Run-based: one union-find over row runs, loops are over runs."""
    rows, cols = a.shape
    valid = ~is_nodata(a)
    parent: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    run_id = np.full((rows, cols), -1, dtype=np.int64)
    prev: list[tuple[int, int, float, int]] = []  # (c0, c1, value, run)
    for r in range(rows):
        row = a[r]
        v = valid[r]
        if not v.any():
            prev = []
            continue
        cont = np.zeros(cols, dtype=bool)
        cont[1:] = v[1:] & v[:-1] & (row[1:] == row[:-1])
        starts = np.nonzero(v & ~cont)[0]
        brks = np.nonzero(~cont)[0]
        eidx = np.searchsorted(brks, starts, side="right")
        ends = np.where(eidx < len(brks), brks[np.minimum(eidx, len(brks) - 1)], cols)
        cur: list[tuple[int, int, float, int]] = []
        pi = 0
        for c0, c1 in zip(starts, ends):
            c0, c1 = int(c0), int(c1)
            rid = len(parent)
            parent.append(rid)
            val = row[c0]
            # merge with overlapping same-value runs in the previous row
            while pi < len(prev) and prev[pi][1] <= c0:
                pi += 1
            pj = pi
            while pj < len(prev) and prev[pj][0] < c1:
                if prev[pj][2] == val:
                    union(rid, prev[pj][3])
                pj += 1
            run_id[r, c0:c1] = rid
            cur.append((c0, c1, val, rid))
        prev = cur
    labels = np.full((rows, cols), -1, dtype=np.int64)
    if parent:
        roots = np.fromiter((find(i) for i in range(len(parent))), dtype=np.int64,
                            count=len(parent))
        m = run_id >= 0
        labels[m] = roots[run_id[m]]
    return labels


def _tile_batch_label(batch: pa.Table, layout_cols: int) -> pa.Table:
    out_cells, edges = [], {k: [] for k in
                            ("dir", "ec", "er", "side", "vals", "labs")}
    kcs = batch["key_col"].to_numpy(zero_copy_only=False)
    krs = batch["key_row"].to_numpy(zero_copy_only=False)
    cols_a = batch["cols"].to_numpy(zero_copy_only=False)
    rows_a = batch["rows"].to_numpy(zero_copy_only=False)
    cts = batch["cell_type"].to_pylist()
    for i in range(batch.num_rows):
        a = decode_tile(batch["cells"][i].as_py(), int(cols_a[i]), int(rows_a[i]), cts[i])
        labs = label_tile(a)
        kc, kr = int(kcs[i]), int(krs[i])
        base = np.int64((kr * layout_cols + kc) << _LOCAL_BITS)
        g = np.where(labs >= 0, labs + base + 1, np.int64(-1))
        out_cells.append(g.tobytes())
        av = np.where(is_nodata(a), np.nan, a.astype(np.float64))
        # four border sides; the vertical border between (kc,kr) and
        # (kc+1,kr) is keyed ("v", kc, kr); horizontal below is ("h", kc, kr)
        for d, ec, er, side, vv, ll in (
            ("v", kc, kr, 0, av[:, -1], g[:, -1]),       # my right edge
            ("v", kc - 1, kr, 1, av[:, 0], g[:, 0]),     # neighbour's left
            ("h", kc, kr, 0, av[-1, :], g[-1, :]),       # my bottom edge
            ("h", kc, kr - 1, 1, av[0, :], g[0, :]),     # neighbour's top
        ):
            edges["dir"].append(d)
            edges["ec"].append(ec)
            edges["er"].append(er)
            edges["side"].append(side)
            edges["vals"].append(vv.tobytes())
            edges["labs"].append(ll.tobytes())
    tiles = batch.set_column(batch.column_names.index("cells"), "cells",
                             pa.array(out_cells, pa.binary()))
    tiles = tiles.set_column(batch.column_names.index("cell_type"), "cell_type",
                             pa.array(["int64"] * batch.num_rows, pa.string()))
    edge_t = pa.table({
        "dir": pa.array(edges["dir"], pa.string()),
        "ec": pa.array(edges["ec"], pa.int32()),
        "er": pa.array(edges["er"], pa.int32()),
        "side": pa.array(edges["side"], pa.int8()),
        "vals": pa.array(edges["vals"], pa.binary()),
        "labs": pa.array(edges["labs"], pa.binary()),
    })
    return tiles, edge_t


def _border_eq_pairs(v0: bytes, v1: bytes, l0: bytes, l1: bytes):
    """Equal-valued adjacent valid cells along one shared border ->
    (ga, gb) label arrays (deduped)."""
    va = np.frombuffer(v0, dtype=np.float64)
    vb = np.frombuffer(v1, dtype=np.float64)
    la = np.frombuffer(l0, dtype=np.int64)
    lb = np.frombuffer(l1, dtype=np.int64)
    eq = (va == vb) & (la >= 0) & (lb >= 0)  # nan != nan excludes NoData
    if not eq.any():
        return None
    u = np.unique(np.stack([la[eq], lb[eq]], axis=1), axis=0)
    return u[:, 0], u[:, 1]


def _border_pairs(edge_rows):
    """Border side rows -> (ga, gb) label equivalences: ONE ``group_map`` on
    the border (dir, ec, er) with the side as the local order, so the <= 2
    side rows of a border are adjacent in one block and pair in place (the
    per-border group apply this replaces paid ~3 ms/border of Python at 2
    borders/tile)."""
    from .agg import _group_starts, group_map

    def pair(b: pa.Table) -> pa.Table:
        ga, gb = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        vals, labs = b["vals"], b["labs"]
        for i in np.flatnonzero(~_group_starts(b, ["dir", "ec", "er"])[1:]):
            got = _border_eq_pairs(vals[i].as_py(), vals[i + 1].as_py(),
                                   labs[i].as_py(), labs[i + 1].as_py())
            if got is not None:
                ga.append(got[0])
                gb.append(got[1])
        return pa.table({"ga": pa.array(np.concatenate(ga), pa.int64()),
                         "gb": pa.array(np.concatenate(gb), pa.int64())})

    return group_map(edge_rows, ["dir", "ec", "er"], pair, order=["side"])


def region_group(ds, layout, spill_dir: str | None = None):
    """Labels a tile layer's connected equal-valued regions. Returns a
    Dataset of int64-label tiles (same keys/schema; NoData -> -1), with
    labels consistent ACROSS tile borders.

    Scale shape (VERDICT r03 finding #2 — no whole-layer materialize): the
    labeling pass STREAMS labeled tiles to ``spill_dir`` as Parquet shards
    (point it at shared storage on a real cluster; tempdir under /tmp by
    default) and emits only the slim border rows downstream, so the object
    store holds O(tiles x tile_edge) edge bytes, never the layer. Border
    sides pair via one ``group_map`` on the border (each border has exactly
    <= 2 side rows, adjacent in one block: ``_border_pairs``); the relabel
    pass re-reads the spilled layer with the broadcast remap."""
    import tempfile
    import uuid

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    layout_cols = layout.tile_layout.layout_cols
    spill = spill_dir or tempfile.mkdtemp(prefix="region_group_")

    def label_and_spill(batch: pa.Table) -> pa.Table:
        tiles, edges = _tile_batch_label(batch, layout_cols)
        if tiles.num_rows:
            pq.write_table(tiles, f"{spill}/part-{uuid.uuid4().hex}.parquet")
        return edges

    edge_rows = ds.map_batches(label_and_spill, batch_format="pyarrow",
                               zero_copy_batch=True)
    eqs = _border_pairs(edge_rows).take_all()  # small: equivalence pairs only
    # driver union-find over cross-tile equivalences only
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for ga, gb in ((int(r["ga"]), int(r["gb"])) for r in eqs):
        ra, rb = find(ga), find(gb)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    remap_keys = np.array(sorted(parent), dtype=np.int64)
    remap_vals = np.array([find(int(k)) for k in remap_keys], dtype=np.int64)
    ref = ray.put((remap_keys, remap_vals))

    def relabel(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        if len(keys) == 0 or batch.num_rows == 0:
            return batch
        out = []
        for i in range(batch.num_rows):
            g = np.frombuffer(batch["cells"][i].as_py(), dtype=np.int64).copy()
            idx = np.searchsorted(keys, g)
            idx[idx >= len(keys)] = 0
            hit = keys[idx] == g
            g[hit] = vals[idx[hit]]
            out.append(g.tobytes())
        return batch.set_column(batch.column_names.index("cells"), "cells",
                                pa.array(out, pa.binary()))

    # the materialize() above guarantees every labeling task (and therefore
    # every spill shard) completed before this read plans its files
    import os

    n_files = max(1, len(os.listdir(spill)))
    tiles = rd.read_parquet(spill, override_num_blocks=n_files)
    return tiles.map_batches(relabel, batch_format="pyarrow", zero_copy_batch=True)


def region_sizes(labeled_ds):
    """(label, n_cells) for every region — partial_groupby over exploded
    label runs (map-side combine; only (label, count) partials shuffle)."""
    from .agg import partial_groupby

    def explode(b: pa.Table) -> pa.Table:
        labs, counts = [], []
        for i in range(b.num_rows):
            g = np.frombuffer(b["cells"][i].as_py(), dtype=np.int64)
            u, c = np.unique(g[g >= 0], return_counts=True)
            labs.append(u)
            counts.append(c)
        if not labs:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n_cells": pa.array([], pa.int64())})
        return pa.table({"label": pa.array(np.concatenate(labs), pa.int64()),
                         "n_cells": pa.array(np.concatenate(counts), pa.int64())})

    per_tile = labeled_ds.map_batches(explode, batch_format="pyarrow",
                                      zero_copy_batch=True)
    return partial_groupby(per_tile, ["label"], [("n_cells", "sum", "n_cells")])


def region_stats(labeled_ds, layout, keep_label: bool = False):
    """(region_cell, n_cells) per region, where region_cell is the region's
    MINIMUM global cell index (row-major over the whole layout) — a
    label-free canonical region id, so results are comparable against any
    other labeling (e.g. a SQL transitive-closure oracle). Same
    partial_groupby shape as region_sizes. ``keep_label`` retains the
    internal label column (for joining back to other per-label outputs,
    e.g. vectorize)."""
    from .agg import partial_groupby

    tl = layout.tile_layout
    W = tl.layout_cols * tl.tile_cols

    def explode(b: pa.Table) -> pa.Table:
        labs, counts, mins = [], [], []
        kcs = b["key_col"].to_numpy(zero_copy_only=False)
        krs = b["key_row"].to_numpy(zero_copy_only=False)
        for i in range(b.num_rows):
            tc, tr = int(b["cols"][i].as_py()), int(b["rows"][i].as_py())
            g = np.frombuffer(b["cells"][i].as_py(), dtype=np.int64).reshape(tr, tc)
            gy = int(krs[i]) * tr + np.arange(tr)[:, None]
            gx = int(kcs[i]) * tc + np.arange(tc)[None, :]
            cid = (gy * W + gx).astype(np.int64)
            m = g >= 0
            if not m.any():
                continue
            import pandas as pd

            df = pd.DataFrame({"lab": g[m].ravel(), "cid": cid[m].ravel()})
            agg = df.groupby("lab")["cid"].agg(["count", "min"])
            labs.append(agg.index.to_numpy())
            counts.append(agg["count"].to_numpy().astype(np.int64))
            mins.append(agg["min"].to_numpy().astype(np.int64))
        if not labs:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n_cells": pa.array([], pa.int64()),
                             "min_cell": pa.array([], pa.int64())})
        return pa.table({"label": pa.array(np.concatenate(labs), pa.int64()),
                         "n_cells": pa.array(np.concatenate(counts), pa.int64()),
                         "min_cell": pa.array(np.concatenate(mins), pa.int64())})

    per_tile = labeled_ds.map_batches(explode, batch_format="pyarrow",
                                      zero_copy_batch=True)
    merged = partial_groupby(per_tile, ["label"],
                             [("n_cells", "sum", "n_cells"),
                              ("min_cell", "min", "region_cell")])
    if keep_label:
        return merged
    return merged.drop_columns(["label"])
