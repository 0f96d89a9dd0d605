"""Temporal raster aggregates over SpaceTime layers: per-pixel composites
(median/mean/min/max across time — the cloud-free-composite pattern) and
per-pixel linear trend (OLS slope of value vs time bin).

GeoTrellis exposes these through SpaceTimeKey layers + temporal resampling
(ref:spark/src/main/scala/geotrellis/spark/mapalgebra/temporal/,
L:unverified — /root/reference empty at survey time). Rebuilt Ray-Data-
first: ONE groupby((key_col, key_row)) co-locates a pixel column's T tiles
(the unavoidable shuffle — payload moves once), then the per-group reduce
is a vectorized (T, R, C) numpy stack operation. NoData: a cell is NaN in
the output iff it is NaN in ANY input layer (strict intersection — keeps
the SQL oracle exact; relax upstream by filling if needed).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.raster import decode_tile, encode_tile
from ._arrow_groups import one_tile, views
from .agg import each_group, group_map

_KEYS = ["key_col", "key_row"]

__all__ = ["temporal_composite", "temporal_trend", "temporal_theil_sen"]

_OPS = {"median": np.median, "mean": np.mean, "min": np.min, "max": np.max}


def _group_stack(g: pa.Table):
    g = g.sort_by("time_bin")
    cols = int(g["cols"][0].as_py())
    rows = int(g["rows"][0].as_py())
    ct = g["cell_type"][0].as_py()
    cube = np.stack([decode_tile(v, cols, rows, ct) for v in views(g, "cells")])
    return g, cube


def _tile_row(g: pa.Table, out: np.ndarray) -> pa.Table:
    cells, c, r, ct = encode_tile(out)
    return one_tile(int(g["key_col"][0].as_py()), int(g["key_row"][0].as_py()),
                    cells, c, r, ct, sfc=int(g["sfc"][0].as_py()))


def temporal_composite(st_ds, op: str = "median"):
    """SpaceTime layer (rows keyed (key_col, key_row, time_bin)) -> spatial
    layer of the per-pixel ``op`` across time bins."""
    fn = _OPS[op]

    def comp(g: pa.Table) -> pa.Table:
        g, cube = _group_stack(g)
        out = fn(cube, axis=0)
        out[np.isnan(cube).any(axis=0)] = np.nan
        return _tile_row(g, out)

    return group_map(st_ds, _KEYS, each_group(_KEYS, comp))


def temporal_trend(st_ds):
    """Per-pixel OLS slope of value vs time_bin:
    slope = (T*sum(t*v) - sum(t)*sum(v)) / (T*sum(t^2) - sum(t)^2) — the
    fixed operand order is the spec so a SQL oracle reproduces it bit-exact
    on integer inputs. Cells NaN in any bin (or with a single bin) are
    NaN."""

    def trend(g: pa.Table) -> pa.Table:
        g, cube = _group_stack(g)
        t = g["time_bin"].to_numpy(zero_copy_only=False).astype(np.float64)
        T = float(len(t))
        if len(t) < 2:
            return _tile_row(g, np.full(cube.shape[1:], np.nan))
        sv = cube.sum(axis=0)
        stv = (t[:, None, None] * cube).sum(axis=0)
        st = t.sum()
        st2 = (t * t).sum()
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (T * stv - st * sv) / (T * st2 - st * st)
        out[np.isnan(cube).any(axis=0)] = np.nan
        return _tile_row(g, out)

    return group_map(st_ds, _KEYS, each_group(_KEYS, trend))


def temporal_theil_sen(st_ds):
    """Per-pixel Theil–Sen robust trend: the MEDIAN of all pairwise slopes
    (v_j - v_i) / (t_j - t_i), i < j — insensitive to single-bin outliers
    (cloud shadows, sensor glitches) where OLS is not. Same co-location
    groupby as temporal_trend; the pairwise slopes are a vectorized
    (T*(T-1)/2, R, C) stack. NaN-in-any-bin cells are NaN."""

    def ts(g: pa.Table) -> pa.Table:
        g, cube = _group_stack(g)
        t = g["time_bin"].to_numpy(zero_copy_only=False).astype(np.float64)
        T = len(t)
        if T < 2:
            return _tile_row(g, np.full(cube.shape[1:], np.nan))
        slopes = [
            (cube[j] - cube[i]) / (t[j] - t[i])
            for i in range(T) for j in range(i + 1, T)
        ]
        out = np.median(np.stack(slopes), axis=0)
        out[np.isnan(cube).any(axis=0)] = np.nan
        return _tile_row(g, out)

    return group_map(st_ds, _KEYS, each_group(_KEYS, ts))
