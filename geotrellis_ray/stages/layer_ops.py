"""Tile-LAYER operators: map algebra between layers, layer merge/union,
BufferTiles, and focal ops over a Dataset of keyed tiles.

Layer = Dataset with rows (key_col:int32, key_row:int32, sfc:uint64,
cells:binary, cols:int32, rows:int32, cell_type:string) — see
sources/layer.py. All per-tile math decodes the batch to one (n, rows, cols)
numpy cube (zero-copy frombuffer per tile), applies a ufunc over the whole
cube, and re-encodes — no per-cell Python.

Reference parity (paths L:unverified, /root/reference empty at survey time):
- local map algebra: ref:raster/src/main/scala/geotrellis/raster/mapalgebra/local/*.scala
- binary layer ops need the key join first: ref:spark/.../join/SpatialJoin.scala
- layer merge: ref:spark/src/main/scala/geotrellis/spark/merge/RDDLayoutMergeMethods.scala
- BufferTiles: ref:spark/src/main/scala/geotrellis/spark/buffer/BufferTiles.scala
- focal ops: ref:raster/src/main/scala/geotrellis/raster/mapalgebra/focal/*.scala
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

from ..core.raster import INT_NODATA, decode_tile, encode_tile, merge as tile_merge
from ._arrow_groups import ints, one_tile, tile_table, views
from .agg import each_group, group_map

TILE_COLS = ["key_col", "key_row", "sfc", "cells", "cols", "rows", "cell_type"]

# unary ops exposed by name (NoData = NaN propagates through numpy naturally)
UNARY_OPS: dict[str, Callable] = {
    "sqrt": np.sqrt, "abs": np.abs, "ceil": np.ceil, "floor": np.floor,
    "round": np.round, "log": np.log, "log10": np.log10, "negate": np.negative,
    "not": lambda a: np.where(np.isnan(a), np.nan, (a == 0).astype(np.float64)),
    "defined": lambda a: (~np.isnan(a)).astype(np.float64),
    "undefined": lambda a: np.isnan(a).astype(np.float64),
}

BINARY_OPS: dict[str, Callable] = {
    "add": np.add, "subtract": np.subtract, "multiply": np.multiply,
    "divide": np.divide, "pow": np.power, "min": np.fmin, "max": np.fmax,
    "equal": lambda a, b: _cmp(a, b, np.equal),
    "unequal": lambda a, b: _cmp(a, b, np.not_equal),
    "greater": lambda a, b: _cmp(a, b, np.greater),
    "greater_or_equal": lambda a, b: _cmp(a, b, np.greater_equal),
    "less": lambda a, b: _cmp(a, b, np.less),
    "less_or_equal": lambda a, b: _cmp(a, b, np.less_equal),
    "and": lambda a, b: _cmp(a, b, lambda x, y: (x != 0) & (y != 0)),
    "or": lambda a, b: _cmp(a, b, lambda x, y: (x != 0) | (y != 0)),
    "xor": lambda a, b: _cmp(a, b, lambda x, y: (x != 0) ^ (y != 0)),
}


def _cmp(a, b, op):
    out = op(a, b).astype(np.float64)
    out[np.isnan(a)] = np.nan
    if isinstance(b, np.ndarray):
        out[np.isnan(b)] = np.nan
    return out


def batch_to_cube(batch: pa.Table, cells_col: str = "cells") -> np.ndarray:
    """(n, rows, cols) float64 cube from a uniform tile batch."""
    if batch.num_rows == 0:
        return np.empty((0, 0, 0))
    rows = int(batch["rows"][0].as_py())
    cols = int(batch["cols"][0].as_py())
    ct = batch["cell_type"][0].as_py()
    vals = batch[cells_col].to_pylist()
    return np.stack([decode_tile(v, cols, rows, ct) for v in vals])


def cube_to_cells(cube: np.ndarray) -> tuple[pa.Array, int, int, str]:
    enc = [encode_tile(cube[i]) for i in range(cube.shape[0])]
    if not enc:
        return pa.array([], pa.binary()), 0, 0, "float64"
    return pa.array([e[0] for e in enc], pa.binary()), enc[0][2], enc[0][1], enc[0][3]


def _tile_table(batch: pa.Table, cube: np.ndarray) -> pa.Table:
    cells, rows, cols, ct = cube_to_cells(cube)
    n = batch.num_rows
    return pa.table(
        {
            "key_col": batch["key_col"], "key_row": batch["key_row"], "sfc": batch["sfc"],
            "cells": cells,
            "cols": pa.array(np.full(n, cols, np.int32), pa.int32()),
            "rows": pa.array(np.full(n, rows, np.int32), pa.int32()),
            "cell_type": pa.array([ct] * n, pa.string()),
        }
    )


def layer_local_unary(ds, op: str):
    """Local map algebra, one layer: e.g. layer_local_unary(ds, "sqrt")."""
    f = UNARY_OPS[op]

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return _tile_table(batch, f(batch_to_cube(batch)))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def layer_local_scalar(ds, op: str, scalar: float):
    """Local map algebra against a constant: layer op scalar per cell."""
    f = BINARY_OPS[op]

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return _tile_table(batch, f(batch_to_cube(batch), scalar))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def layer_local_binary(ds_a, ds_b, op: str):
    """Local map algebra between two layers: equi-join on sfc (spatial_join,
    SpatialJoin semantics) then the cell-wise op on each matched tile pair."""
    from .join import spatial_join

    f = BINARY_OPS[op]
    b2 = ds_b.map_batches(
        lambda b: pa.table(
            {"sfc": b["sfc"], "cells_r": b["cells"], "cols_r": b["cols"],
             "rows_r": b["rows"], "cell_type_r": b["cell_type"]}
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    joined = spatial_join(ds_a, b2)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({c: pa.array([]) for c in TILE_COLS})
        a = batch_to_cube(batch, "cells")
        b = batch_to_cube(
            batch.select(["cells_r", "cols_r", "rows_r", "cell_type_r"]).rename_columns(
                ["cells", "cols", "rows", "cell_type"]
            )
        )
        return _tile_table(batch, f(a, b))

    return joined.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def merge_layers(ds_a, ds_b):
    """Union two layers; same-key tiles merge left-wins-non-NoData (a wins).
    Tag sides so the merge order is deterministic under shuffle."""

    def tag(v):
        return lambda b: b.append_column("side", pa.array(np.full(b.num_rows, v, np.int8), pa.int8()))

    u = ds_a.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        ds_b.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def merge_group(g: pa.Table) -> pa.Table:
        cols = int(g["cols"][0].as_py()); rows = int(g["rows"][0].as_py())
        ct = g["cell_type"][0].as_py()
        cv = views(g, "cells")
        out = decode_tile(cv[0], cols, rows, ct)
        for i in range(1, g.num_rows):
            out = tile_merge(out, decode_tile(cv[i], cols, rows, ct))
        cells, c, r, ct2 = encode_tile(out)
        return one_tile(int(g["key_col"][0].as_py()), int(g["key_row"][0].as_py()),
                        cells, c, r, ct2, sfc=int(g["sfc"][0].as_py()))

    keys = ["key_col", "key_row"]
    return group_map(u, keys, each_group(keys, merge_group), order=["side"])


# ---------------------------------------------------------------------------
# BufferTiles + focal ops
# ---------------------------------------------------------------------------

def buffer_tiles(ds, margin: int = 1):
    """Each tile gains a ``margin``-cell collar sampled from its 8 neighbors
    (NoData where no neighbor). Ray shape: every tile EXPLODES into <=9
    (target_key, piece) messages (flat map_batches, no state), then a
    groupby(target_key) assembles the (rows+2m, cols+2m) buffered tile.
    Output schema: TILE_COLS with cols/rows grown by 2*margin and an
    ``own`` flag marking keys that existed in the input (collar-only
    assemblies are dropped).

    Equivalent of ref:spark/.../buffer/BufferTiles.scala's cogroup."""
    m = margin

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"t_col": pa.array([], pa.int32()), "t_row": pa.array([], pa.int32()),
                 "dc": pa.array([], pa.int8()), "dr": pa.array([], pa.int8()),
                 "piece": pa.array([], pa.binary()), "p_rows": pa.array([], pa.int32()),
                 "p_cols": pa.array([], pa.int32()), "cell_type": pa.array([], pa.string())}
            )
        cube = batch_to_cube(batch)
        if not np.issubdtype(cube.dtype, np.floating):
            # integer layers mark NoData with INT_NODATA; the collar travels
            # as float64, so map the sentinel to NaN HERE — downstream
            # consumers (focal nan-aware reduces, kernel-reproject
            # sample_points) all key NoData off np.isnan.
            nd = cube == INT_NODATA
            cube = cube.astype(np.float64)
            cube[nd] = np.nan
        kc = batch["key_col"].to_numpy(zero_copy_only=False)
        kr = batch["key_row"].to_numpy(zero_copy_only=False)
        ct = batch["cell_type"][0].as_py()
        t_col, t_row, dcs, drs, pieces, prs, pcs = [], [], [], [], [], [], []
        for i in range(cube.shape[0]):
            a = cube[i]
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    # piece of THIS tile that lands in neighbor (dc, dr)'s
                    # collar: the edge strip FACING that neighbor (row index
                    # grows downward, so the neighbor below gets our BOTTOM
                    # rows; the neighbor right gets our RIGHTMOST cols)
                    rs = slice(0, a.shape[0]) if dr == 0 else (slice(a.shape[0] - m, a.shape[0]) if dr == 1 else slice(0, m))
                    cs = slice(0, a.shape[1]) if dc == 0 else (slice(a.shape[1] - m, a.shape[1]) if dc == 1 else slice(0, m))
                    p = np.ascontiguousarray(a[rs, cs])
                    t_col.append(kc[i] + dc); t_row.append(kr[i] + dr)
                    dcs.append(dc); drs.append(dr)
                    pieces.append(p.astype(np.float64).tobytes())
                    prs.append(p.shape[0]); pcs.append(p.shape[1])
        return pa.table(
            {"t_col": pa.array(np.array(t_col, np.int32), pa.int32()),
             "t_row": pa.array(np.array(t_row, np.int32), pa.int32()),
             "dc": pa.array(np.array(dcs, np.int8), pa.int8()),
             "dr": pa.array(np.array(drs, np.int8), pa.int8()),
             "piece": pa.array(pieces, pa.binary()),
             "p_rows": pa.array(np.array(prs, np.int32), pa.int32()),
             "p_cols": pa.array(np.array(pcs, np.int32), pa.int32()),
             "cell_type": pa.array([ct] * len(pieces), pa.string())}
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def assemble(g: pa.Table) -> pa.Table:
        dcs, drs = ints(g, "dc"), ints(g, "dr")
        own = np.flatnonzero((dcs == 0) & (drs == 0))
        if len(own) == 0:
            return tile_table(None)
        prs, pcs = ints(g, "p_rows"), ints(g, "p_cols")
        pieces = views(g, "piece")
        o = own[0]
        rows = int(prs[o]); cols = int(pcs[o])
        out = np.full((rows + 2 * m, cols + 2 * m), np.nan)
        for i in range(g.num_rows):
            p = np.frombuffer(pieces[i], dtype=np.float64).reshape(prs[i], pcs[i])
            # piece from neighbor at offset (dc, dr) relative to TARGET:
            # dc=+1 means source is to the LEFT... offsets were emitted as
            # target = source + (dc, dr), so source sits at (-dc, -dr) of
            # target. Place accordingly in the collar frame.
            if drs[i] == 0:
                r0 = m
            elif drs[i] == 1:   # source is ABOVE target (row-1): its bottom rows -> top collar
                r0 = 0
            else:               # source below: top rows -> bottom collar
                r0 = m + rows
            if dcs[i] == 0:
                c0 = m
            elif dcs[i] == 1:
                c0 = 0
            else:
                c0 = m + cols
            out[r0:r0 + prs[i], c0:c0 + pcs[i]] = p
        c = int(ints(g, "t_col")[o]); r = int(ints(g, "t_row")[o])
        cells, cc, rr, ct = encode_tile(out)
        return one_tile(c, r, cells, cc, rr, ct)

    keys = ["t_col", "t_row"]
    return group_map(exploded, keys, each_group(keys, assemble))


def focal_op(ds, op: str = "mean", margin: int = 1,
             neighborhood: str = "square"):
    """Focal mean/sum/min/max/median/mode/stddev over a square OR circle
    (disk: dx^2 + dy^2 <= margin^2, center included — GeoTrellis
    Circle(radius) semantics) neighborhood ACROSS tile boundaries:
    buffer_tiles supplies each tile its neighbor collar; the window reduce
    is vectorized (integral image for square mean/sum, nan-aware
    shift-stack otherwise); the collar is cropped off the result. NoData
    centers stay NoData; NoData neighbors are excluded from the statistic
    (GeoTrellis focal semantics, ref:raster/.../mapalgebra/focal/,
    L:unverified)."""
    if neighborhood not in ("square", "circle"):
        raise ValueError(f"unknown neighborhood {neighborhood!r}")
    m = margin
    k = 2 * m + 1
    buffered = buffer_tiles(ds, margin=m)
    if neighborhood == "circle":
        dy, dx = np.mgrid[-m:m + 1, -m:m + 1]
        disk = (dx * dx + dy * dy) <= m * m

        def fcirc(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch
            cube = batch_to_cube(batch)
            R = cube.shape[1] - 2 * m
            C = cube.shape[2] - 2 * m
            center_def = ~np.isnan(cube[:, m:-m, m:-m])
            offs = [(r, c) for r in range(k) for c in range(k) if disk[r, c]]
            stack = np.stack([cube[:, dr:dr + R, dc:dc + C] for dr, dc in offs])
            with np.errstate(invalid="ignore"), np.testing.suppress_warnings() as sup:
                sup.filter(RuntimeWarning)
                if op == "mean":
                    out = np.nanmean(stack, axis=0)
                elif op == "sum":
                    out = np.nansum(stack, axis=0)
                elif op == "min":
                    out = np.nanmin(stack, axis=0)
                elif op == "max":
                    out = np.nanmax(stack, axis=0)
                elif op == "median":
                    out = np.nanmedian(stack, axis=0)
                elif op == "stddev":
                    # same spec operand order as the square path
                    n = (~np.isnan(stack)).sum(axis=0).astype(np.float64)
                    s = np.nansum(stack, axis=0)
                    s2 = np.nansum(stack * stack, axis=0)
                    with np.errstate(invalid="ignore", divide="ignore"):
                        out = np.sqrt(np.maximum(s2 / n - (s / n) ** 2, 0.0))
                else:
                    raise ValueError(f"circle neighborhood: unsupported op {op!r}")
            out = np.where(center_def, out, np.nan)
            return _tile_table(batch, out)

        return buffered.map_batches(fcirc, batch_format="pyarrow",
                                    zero_copy_batch=True)

    def fm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)  # (n, R+2m, C+2m)
        center_def = ~np.isnan(cube[:, m:-m, m:-m])
        if op in ("mean", "sum", "stddev"):
            vals = np.nan_to_num(cube, nan=0.0)
            cnt = (~np.isnan(cube)).astype(np.float64)

            def win(a):
                cs = np.cumsum(np.cumsum(a, axis=1), axis=2)
                cs = np.pad(cs, ((0, 0), (1, 0), (1, 0)))
                return (cs[:, k:, k:] - cs[:, :-k, k:] - cs[:, k:, :-k] + cs[:, :-k, :-k])

            s = win(vals)
            n = win(cnt)
            with np.errstate(invalid="ignore", divide="ignore"):
                if op == "stddev":
                    # population sd; the exact operand order (s2/n - (s/n)^2)
                    # is part of the spec so the DuckDB oracle reproduces it
                    # bit-for-bit on integer-valued layers
                    s2 = win(vals * vals)
                    var = np.maximum(s2 / n - (s / n) ** 2, 0.0)
                    out = np.where((n > 0) & center_def, np.sqrt(var), np.nan)
                else:
                    out = np.where((n > 0) & center_def, s / n if op == "mean" else s, np.nan)
        else:
            # shift-stack: (k*k, n, R, C) views of the buffered frame
            R = cube.shape[1] - 2 * m
            C = cube.shape[2] - 2 * m
            stack = np.stack([
                cube[:, dr:dr + R, dc:dc + C] for dr in range(k) for dc in range(k)
            ])
            with np.errstate(invalid="ignore"), np.testing.suppress_warnings() as sup:
                sup.filter(RuntimeWarning)
                if op == "min":
                    out = np.nanmin(stack, axis=0)
                elif op == "max":
                    out = np.nanmax(stack, axis=0)
                elif op == "median":
                    out = np.nanmedian(stack, axis=0)
                elif op == "mode":
                    # vectorized window mode, ties -> SMALLEST value (spec,
                    # so the SQL oracle's ORDER BY c DESC, v ASC agrees).
                    # sort puts NaN last; NaN counts stay 0 via != compare.
                    s = np.sort(stack, axis=0)
                    kk = s.shape[0]
                    cnt = np.zeros_like(s)
                    for a in range(kk):
                        for bb in range(kk):
                            cnt[a] += (s[a] == s[bb])
                    best_c = np.zeros(s.shape[1:])
                    out = np.full(s.shape[1:], np.nan)
                    for a in range(kk):  # ascending values: first strict max wins
                        take = cnt[a] > best_c
                        out = np.where(take, s[a], out)
                        best_c = np.maximum(best_c, cnt[a])
                else:
                    raise ValueError(f"unknown focal op {op!r}")
            out = np.where(center_def, out, np.nan)
        return _tile_table(batch, out)

    return buffered.map_batches(fm, batch_format="pyarrow", zero_copy_batch=True)


def focal_mean(ds, margin: int = 1):
    return focal_op(ds, "mean", margin)


def focal_convolve(ds, kernel):
    """Kernel convolution — geotrellis.raster.mapalgebra.focal.Convolve with
    an arbitrary odd-square Kernel (ref:raster/.../mapalgebra/focal/
    Convolve.scala + raster/.../Kernel.scala, L:unverified):
    out[y, x] = sum over offsets (dy, dx) in [-m, m]^2 of
    kernel[m+dy, m+dx] * v[y+dy, x+dx], with NoData NEIGHBORS contributing
    nothing (their weight is dropped, not renormalized — GeoTrellis Kernel
    semantics) and NoData CENTERS staying NoData. Correlation orientation:
    the kernel is applied as given (row 0 = the northern row), not flipped.

    Cross-tile windows via buffer_tiles (collar exchange); the reduce is a
    shift-stack weighted accumulation in row-major offset order — with an
    integer kernel over an integer-valued layer every partial sum is exact
    in float64, which is what lets the q_convolve_grid SQL oracle replay the
    surface bit-for-bit. Scale shape: identical to focal_op — one collar
    shuffle of 2m-wide edge strips, then per-tile vectorized maps."""
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 2 or kern.shape[0] != kern.shape[1] or kern.shape[0] % 2 == 0:
        raise ValueError(f"kernel must be odd-square, got shape {kern.shape}")
    m = kern.shape[0] // 2
    k = 2 * m + 1
    buffered = buffer_tiles(ds, margin=m)

    def fc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)  # (n, R+2m, C+2m)
        R = cube.shape[1] - 2 * m
        C = cube.shape[2] - 2 * m
        center_def = ~np.isnan(cube[:, m:-m, m:-m])
        out = np.zeros((cube.shape[0], R, C))
        for dr in range(k):
            for dc in range(k):
                w = kern[dr, dc]
                if w == 0.0:
                    continue
                v = cube[:, dr:dr + R, dc:dc + C]
                out += np.where(np.isnan(v), 0.0, w * v)
        out = np.where(center_def, out, np.nan)
        return _tile_table(batch, out)

    return buffered.map_batches(fc, batch_format="pyarrow", zero_copy_batch=True)


def layer_resample(ds, out_cols: int, out_rows: int, method: str = "nearest"):
    """Per-tile resample to (out_cols, out_rows) with any RESAMPLE_KERNELS
    method (nearest/bilinear/cubic/cubic-spline/lanczos/average/median/mode/
    max/min/sum — ref:raster/.../resample/*.scala, L:unverified). Pure
    per-tile map, no shuffle; pair with tile_to_layout for cross-tile
    regridding."""
    from ..core.raster import resample

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        out = np.stack([resample(cube[i], out_cols, out_rows, method) for i in range(cube.shape[0])])
        return _tile_table(batch, out)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _horn_gradients(cube: np.ndarray, cell_width: float, cell_height: float):
    """Horn's method gradients over a margin-1 buffered cube (n, R+2, C+2):
    returns (zx, zy) for the centers. NaN neighbors are substituted with the
    center value (standard DEM edge practice); NaN centers stay NaN.
    zy is oriented so +y = north (row index grows southward)."""
    c = cube[:, 1:-1, 1:-1]
    def nb(dr, dc):
        v = cube[:, 1 + dr : cube.shape[1] - 1 + dr, 1 + dc : cube.shape[2] - 1 + dc]
        return np.where(np.isnan(v), c, v)

    tl, t, tr = nb(-1, -1), nb(-1, 0), nb(-1, 1)
    l_, r_ = nb(0, -1), nb(0, 1)
    bl, b, br = nb(1, -1), nb(1, 0), nb(1, 1)
    zx = ((tr + 2 * r_ + br) - (tl + 2 * l_ + bl)) / (8.0 * cell_width)
    zy = ((tl + 2 * t + tr) - (bl + 2 * b + br)) / (8.0 * cell_height)
    return zx, zy


def focal_slope(ds, cell_width: float, cell_height: float, z_factor: float = 1.0):
    """Slope in DEGREES via Horn's method across tile boundaries
    (BufferTiles collar — ref:raster/.../mapalgebra/focal/Slope.scala,
    L:unverified)."""
    buffered = buffer_tiles(ds, margin=1)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        zx, zy = _horn_gradients(cube, cell_width, cell_height)
        out = np.degrees(np.arctan(z_factor * np.hypot(zx, zy)))
        out[np.isnan(cube[:, 1:-1, 1:-1])] = np.nan
        return _tile_table(batch, out)

    return buffered.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def focal_aspect(ds, cell_width: float, cell_height: float):
    """Aspect in compass DEGREES (0 = north, clockwise; flat cells -> 0.0,
    NaN centers stay NaN — ref:raster/.../mapalgebra/focal/Aspect.scala,
    L:unverified)."""
    buffered = buffer_tiles(ds, margin=1)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        zx, zy = _horn_gradients(cube, cell_width, cell_height)
        az = np.degrees(np.arctan2(-zx, zy))  # downslope direction from north
        az = np.mod(az + 360.0, 360.0)
        flat = (zx == 0) & (zy == 0)
        out = np.where(flat, 0.0, az)
        out[np.isnan(cube[:, 1:-1, 1:-1])] = np.nan
        return _tile_table(batch, out)

    return buffered.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def focal_hillshade(ds, cell_width: float, cell_height: float,
                    azimuth: float = 315.0, altitude: float = 45.0, z_factor: float = 1.0):
    """Hillshade 0..255 (standard illumination model over Horn gradients —
    ref:raster/.../mapalgebra/focal/Hillshade.scala, L:unverified)."""
    buffered = buffer_tiles(ds, margin=1)
    zenith = np.radians(90.0 - altitude)
    az_math = np.radians(360.0 - azimuth + 90.0)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        zx, zy = _horn_gradients(cube, cell_width, cell_height)
        slope = np.arctan(z_factor * np.hypot(zx, zy))
        aspect = np.arctan2(zy, -zx)  # math convention for the illumination dot
        shade = (np.cos(zenith) * np.cos(slope)
                 + np.sin(zenith) * np.sin(slope) * np.cos(az_math - aspect))
        out = np.round(255.0 * np.clip(shade, 0.0, 1.0))
        out[np.isnan(cube[:, 1:-1, 1:-1])] = np.nan
        return _tile_table(batch, out)

    return buffered.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def layer_mask(ds, geom: dict, layout, invert: bool = False):
    """Mask(geometry) over a tile layer: cells outside (or inside, with
    ``invert``) the geometry become NoData. Pure per-tile numpy
    (core.raster.mask_geom); the geometry travels by closure (small)."""
    from ..core.raster import mask_geom

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        kc = batch["key_col"].to_numpy(zero_copy_only=False)
        kr = batch["key_row"].to_numpy(zero_copy_only=False)
        out = np.empty_like(cube)
        for i in range(cube.shape[0]):
            ext = layout.key_to_extent(int(kc[i]), int(kr[i]))
            out[i] = mask_geom(cube[i], ext, geom, invert=invert)
        return _tile_table(batch, out)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def layer_reclassify(ds, breaks):
    """Reclassify a layer into integer classes by ascending break values
    (GeoTrellis Tile.classify / BreakMap with LessThan semantics,
    ref:raster/.../render/BreakMap.scala, L:unverified): class(v) = number
    of breaks STRICTLY below v (so v <= breaks[0] -> 0, v > breaks[-1] ->
    len(breaks)). Pure per-tile searchsorted, no shuffle; NoData stays
    NoData. SQL-reproducible bit-exact (integer output)."""
    br = np.asarray(sorted(breaks), dtype=np.float64)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        out = np.searchsorted(br, cube.ravel(), side="left").astype(np.float64)
        out = out.reshape(cube.shape)
        out[np.isnan(cube)] = np.nan
        return _tile_table(batch, out)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def focal_tobler(ds, cell_width: float, cell_height: float):
    """Tobler hiking speed (km/h) from the terrain surface (GeoTrellis
    SlopeMethods.tobler, ref:raster/.../mapalgebra/focal/, L:unverified):
    speed = 6 * exp(-3.5 * |tan(slope) + 0.05|) with tan(slope) =
    hypot(zx, zy) from the same Horn collar-exchange frame as focal_slope."""
    buffered = buffer_tiles(ds, margin=1)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cube = batch_to_cube(batch)
        zx, zy = _horn_gradients(cube, cell_width, cell_height)
        out = 6.0 * np.exp(-3.5 * np.abs(np.hypot(zx, zy) + 0.05))
        out[np.isnan(cube[:, 1:-1, 1:-1])] = np.nan
        return _tile_table(batch, out)

    return buffered.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
