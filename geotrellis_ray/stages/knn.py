"""kNN: k nearest records to query point(s).

Re-expresses ref:spark/src/main/scala/geotrellis/spark/knn/KNearestRDD.scala
(takeOrdered(k) with distance ordering, L:unverified — /root/reference empty
at survey time; SURVEY.md §2.4) in three Ray-native shapes:

1. ``knn_single``: global top-k = keyless ``grouped_top_k``: per-batch
   partial top-k, then one small merge. Only k rows per block ever move.
2. ``knn_multi``: many queries at once — broadcast the query matrix, compute
   the per-batch distance matrix vectorized (numpy), keep per-batch top-k per
   query, then ``grouped_top_k`` per query over the k x blocks rows.
3. Cell-pruned variant for huge inputs: pre-filter candidate hex cells by
   ring expansion (``hex_disk``) before the exact pass; partitioning
   assumption: points carry ``cell_hexlike`` at a resolution where a k-disk
   holds >> k points.

Distance: haversine meters; ties broken by id (deterministic).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.cellid import hex_disk, hex_unpack
from ..core.mercator import haversine_m


def knn_single(ds, qlat: float, qlon: float, k: int, id_col: str = "url"):
    """k nearest rows to one query point -> small Dataset (id, lat, lon,
    dist_m), ascending by (dist_m, id): keyless ``grouped_top_k``, whose
    per-batch top-k keeps only k rows per block."""
    from .agg import grouped_top_k

    def dist(batch: pa.Table) -> pa.Table:
        d = haversine_m(batch["lat"].to_numpy(zero_copy_only=False),
                        batch["lon"].to_numpy(zero_copy_only=False), qlat, qlon)
        return batch.append_column("dist_m", pa.array(d, pa.float64()))

    near = ds.map_batches(dist, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_top_k(near, [], "dist_m", k, descending=False,
                         tie_col=id_col).drop_columns(["rank"])


def knn_multi(ds, queries: pd.DataFrame, k: int, id_col: str = "url", metric: str = "haversine"):
    """Batched kNN for many queries. ``queries``: DataFrame(query_id, lat,
    lon). Returns Dataset (query_id, rank, id, dist). The query matrix rides
    into each task by closure capture (small side broadcast)."""
    qlat = queries["lat"].to_numpy()
    qlon = queries["lon"].to_numpy()
    qid = queries["query_id"].to_numpy()

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        ids = batch[id_col]
        if metric == "haversine":
            # (nq, nb) distance matrix, vectorized
            dm = haversine_m(lat[None, :], lon[None, :], qlat[:, None], qlon[:, None])
        else:
            dm = (lat[None, :] - qlat[:, None]) ** 2 + (lon[None, :] - qlon[:, None]) ** 2
        kk = min(k, dm.shape[1])
        part = np.argpartition(dm, kk - 1, axis=1)[:, :kk]  # (nq, kk)
        # vectorized flatten: np.repeat/take instead of per-query Python
        out_q = np.repeat(np.asarray(qid, dtype=np.int64), kk)
        out_i = part.ravel()
        out_d = np.take_along_axis(dm, part, axis=1).ravel()
        t = pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: ids.take(pa.array(out_i, pa.int64())),
                "dist": pa.array(out_d, pa.float64()),
            }
        )
        return t

    from .agg import grouped_top_k

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_top_k(part, ["query_id"], "dist", k, descending=False, tie_col=id_col)


def knn_cell_pruned(ds, queries: pd.DataFrame, k: int, hex_res: int, rings: int = 2,
                    id_col: str = "url", metric: str = "haversine"):
    """Scale path: restrict the exact kNN to points whose hex cell lies in a
    ``rings``-disk around each query's cell, then run knn_multi on the
    filtered stream. Correct iff the disk holds >= k true neighbours (callers
    widen ``rings`` or lower ``hex_res`` when the partial result is short —
    documented partitioning assumption)."""
    from ..core.cellid import cell_hexlike

    qcells = cell_hexlike(queries["lat"].to_numpy(), queries["lon"].to_numpy(), hex_res)
    cand: set[int] = set()
    for c in qcells:
        q, r, _ = hex_unpack(np.array([c], dtype=np.uint64))
        for qq, rr in hex_disk(int(q[0]), int(r[0]), rings):
            from ..core.cellid import hex_pack

            cand.add(int(hex_pack(np.array([qq]), np.array([rr]), hex_res)[0]))
    cand_arr = np.fromiter(cand, dtype=np.uint64, count=len(cand))

    def prefilter(batch: pa.Table) -> pa.Table:
        cells = batch["cell_hexlike"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.filter(pa.array(np.isin(cells, cand_arr)))

    pruned = ds.map_batches(prefilter, batch_format="pyarrow", zero_copy_batch=True)
    return knn_multi(pruned, queries, k, id_col=id_col, metric=metric)
