"""Distance-threshold point clustering: connected components of the
eps-neighbor graph (DBSCAN with min_pts<=2 / single-linkage at radius eps —
the hotspot-grouping step of a spatial pipeline; engine addition, no
GeoTrellis core counterpart).

Ray shape: pair generation is grid-bucketed (PBSM pattern) — every point
lands in its floor(x/eps, y/eps) cell plus the 8 neighbor cells (own flag
marks the home copy), so any two points within eps share at least one
bucket; per-bucket pairs are own x all (vectorized distance, dedup by
ordered id), and the component labeling reuses the shared
labels_from_edges engine (driver union-find over sparse EDGES only, with
the distributed min-label fallback above 5M edges). Nothing corpus-sized
ever reaches the driver.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import each_group, group_map

__all__ = ["eps_neighbor_pairs", "cluster_eps"]


def eps_neighbor_pairs(ds, eps: float, id_col: str = "pt_id",
                       x_col: str = "x", y_col: str = "y"):
    """All unordered point pairs within Euclidean distance eps."""

    def explode(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        x = b[x_col].to_numpy(zero_copy_only=False)
        y = b[y_col].to_numpy(zero_copy_only=False)
        cx = np.floor(x / eps).astype(np.int64)
        cy = np.floor(y / eps).astype(np.int64)
        out_i, out_x, out_y, out_cx, out_cy, out_own = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out_i.append(ids)
                out_x.append(x)
                out_y.append(y)
                out_cx.append(cx + dx)
                out_cy.append(cy + dy)
                out_own.append(np.full(len(ids), dx == 0 and dy == 0))
        return pa.table({
            id_col: pa.array(np.concatenate(out_i)),
            x_col: pa.array(np.concatenate(out_x), pa.float64()),
            y_col: pa.array(np.concatenate(out_y), pa.float64()),
            "cell_x": pa.array(np.concatenate(out_cx), pa.int64()),
            "cell_y": pa.array(np.concatenate(out_cy), pa.int64()),
            "own": pa.array(np.concatenate(out_own), pa.bool_()),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        own = g.filter(g["own"])
        id_t = g.schema.field(id_col).type
        if own.num_rows == 0 or g.num_rows < 2:
            return pa.table({"id_a": pa.array([], id_t), "id_b": pa.array([], id_t)})
        oi, ox, oy = (own[c].to_numpy() for c in (id_col, x_col, y_col))
        ai, axx, ayy = (g[c].to_numpy() for c in (id_col, x_col, y_col))
        d2 = (ox[:, None] - axx[None, :]) ** 2 + (oy[:, None] - ayy[None, :]) ** 2
        hit = (d2 <= eps * eps) & (oi[:, None] < ai[None, :])
        ii, jj = np.nonzero(hit)
        return pa.table({"id_a": pa.array(oi[ii], id_t), "id_b": pa.array(ai[jj], id_t)})

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    keys = ["cell_x", "cell_y"]
    pairs = group_map(exploded, keys, each_group(keys, bucket_pairs))
    # a pair can surface from up to 3 shared buckets: grouped-first dedup
    from .agg import partial_groupby

    return partial_groupby(pairs, ["id_a", "id_b"],
                           [("id_a", "count", "n_buckets")]).drop_columns(
        ["n_buckets"])


def cluster_eps(ds, eps: float, id_col: str = "pt_id",
                x_col: str = "x", y_col: str = "y"):
    """-> Dataset (id_col, cluster_id): cluster_id = min point id of the
    eps-connected component; isolated points label themselves."""
    from .dedup import labels_from_edges

    edges = eps_neighbor_pairs(ds, eps, id_col, x_col, y_col).materialize()
    return labels_from_edges(ds.select_columns([id_col]), edges, id_col)
