"""Hydrology: D8 flow direction + flow accumulation over a DEM tile layer
(ref:raster/src/main/scala/geotrellis/raster/hydrology/ — FlowDirection /
Accumulation, L:unverified — /root/reference empty at survey time; the last
scoped-out §2 family).

- ``flow_direction``: per cell, the 8-neighbor direction of steepest
  distance-weighted descent ((z_c - z_n) / dist, diagonals /sqrt(2)); ties
  break on the fixed D8 order E, SE, S, SW, W, NW, N, NE (codes 1, 2, 4, 8,
  16, 32, 64, 128 — the ESRI convention); cells with no lower neighbor
  (pits/flats) get 0; NoData stays NoData. One BufferTiles collar, pure
  vectorized map — no iteration.

- ``flow_accumulation``: acc(c) = number of cells draining through c
  (upstream count, NOT including c — the common convention). The linear
  recurrence acc = indeg-sum over inflowing neighbors is solved by Jacobi
  iteration on the BSP collar-exchange frame (stages/costdistance.bsp_round):
  starting from 0 every estimate is a LOWER bound that grows monotonically to
  the exact DAG fixpoint; rounds <= longest flow path in tiles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .costdistance import bsp_round
from .layer_ops import batch_to_cube, buffer_tiles, _tile_table

_SQRT2 = float(np.sqrt(2.0))
# ESRI D8: (dr, dc, code, dist) in tie-break order E, SE, S, SW, W, NW, N, NE
D8 = [
    (0, 1, 1, 1.0), (1, 1, 2, _SQRT2), (1, 0, 4, 1.0), (1, -1, 8, _SQRT2),
    (0, -1, 16, 1.0), (-1, -1, 32, _SQRT2), (-1, 0, 64, 1.0), (-1, 1, 128, _SQRT2),
]


def d8_direction(buffered: np.ndarray, m: int = 1) -> np.ndarray:
    """Collar-buffered DEM -> D8 code plane for the CORE cells."""
    core = buffered[m:-m, m:-m]
    best_drop = np.zeros_like(core)
    best_code = np.zeros(core.shape, dtype=np.float64)
    R, C = core.shape
    for dr, dc, code, dist in D8:
        nb = buffered[m + dr : m + dr + R, m + dc : m + dc + C]
        with np.errstate(invalid="ignore"):
            drop = (core - nb) / dist
        drop = np.where(np.isnan(drop), -np.inf, drop)
        better = drop > best_drop
        best_drop = np.where(better, drop, best_drop)
        best_code = np.where(better, float(code), best_code)
    best_code[np.isnan(core)] = np.nan
    return best_code


def flow_direction(dem_ds):
    """DEM layer -> layer whose ``cells`` plane holds the D8 code
    (0 = pit/flat, NaN = NoData)."""
    buffered = buffer_tiles(dem_ds, margin=1)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        out = np.stack([d8_direction(cube[i]) for i in range(cube.shape[0])])
        return _tile_table(batch, out)

    return buffered.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def accumulation_relax(acc_buf: np.ndarray, dir_buf: np.ndarray, _kc, _kr, _m) -> np.ndarray:
    """Jacobi sweeps to local fixpoint: acc = sum over inflowing neighbors of
    (acc_n + 1). dir_buf holds D8 codes."""
    rows, cols = acc_buf.shape
    acc = np.nan_to_num(acc_buf, nan=0.0)
    d = dir_buf
    for _ in range(rows + cols):
        prev = acc
        total = np.zeros_like(acc)
        for dr, dc, code, _dist in D8:
            # the neighbor at offset (-dr, -dc) from a cell flows INTO it
            # when that neighbor's code is `code` (code means "I flow to
            # (+dr, +dc)"): dst(i, j) reads src(i - dr, j - dc)
            rs_dst = slice(max(0, dr), rows + min(0, dr))
            cs_dst = slice(max(0, dc), cols + min(0, dc))
            rs_src = slice(max(0, -dr), rows + min(0, -dr))
            cs_src = slice(max(0, -dc), cols + min(0, -dc))
            inflow = np.zeros_like(acc)
            src_d = d[rs_src, cs_src]
            src_a = acc[rs_src, cs_src]
            inflow[rs_dst, cs_dst] = np.where(src_d == code, src_a + 1.0, 0.0)
            total += inflow
        acc = np.maximum(acc, total)  # monotone lower-bound growth
        if np.array_equal(acc, prev):
            break
    acc[np.isnan(dir_buf)] = np.nan
    return acc


def flow_accumulation(dir_ds, max_rounds: int = 64):
    """D8-direction layer -> layer with an ``acc`` plane (upstream cell
    count). BSP rounds until no tile's core changes."""

    def init(batch: pa.Table) -> pa.Table:
        accs = []
        for row in batch.to_pylist():
            shape = (int(row["rows"]), int(row["cols"]))
            accs.append(np.zeros(shape).astype("<f8").tobytes())
        return batch.append_column("acc", pa.array(accs, pa.binary()))

    cur = dir_ds.map_batches(init, batch_format="pyarrow", zero_copy_batch=True)
    for _round in range(max_rounds):
        nxt = bsp_round(cur, accumulation_relax, margin=1, plane_col="acc",
                        collar_fill=0.0).materialize()
        n_changed = nxt.filter(expr="changed == True").count()
        cur = nxt.drop_columns(["changed"])
        if n_changed == 0:
            break
    return cur


def acc_tile(row: dict) -> np.ndarray:
    return np.frombuffer(row["acc"], dtype="<f8").reshape(int(row["rows"]), int(row["cols"]))
