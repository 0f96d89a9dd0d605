"""Brute-force oracles for the fractional-cell polygonal summary
(stages/stats.polygonal_summary_fractional — FractionalRasterizer
semantics). The rect fixture is checked EXACTLY against analytic interval
overlap; a general (non-axis-aligned) triangle and a polygon with a hole
are checked against dense supersampling."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
from geotrellis_ray.core.raster import encode_tile
from geotrellis_ray.core.sfc import zorder
from geotrellis_ray.core.wkb import encode_polygon
from geotrellis_ray.fixtures import gen_halfcell_rects
from geotrellis_ray.stages.stats import polygonal_summary_fractional

LAYOUT = LayoutDefinition(Extent(0.0, 0.0, 48.0, 48.0), TileLayout(3, 3, 16, 16))


def _grid_layer():
    import ray.data

    rows = []
    for kr in range(3):
        for kc in range(3):
            gy = kr * 16 + np.arange(16)[:, None]
            gx = kc * 16 + np.arange(16)[None, :]
            a = ((gx * 2654435761 + gy * 40503) % 251).astype(np.float64)
            cells, cols, trows, ct = encode_tile(a)
            rows.append({"key_col": kc, "key_row": kr, "sfc": int(zorder(kc, kr)),
                         "cells": cells, "cols": cols, "rows": trows, "cell_type": ct})
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def _values():
    gx = np.arange(48)[None, :]
    gy = np.arange(48)[:, None]
    return ((gx * 2654435761 + gy * 40503) % 251).astype(np.float64)


def _run(polys: pa.Table):
    import ray

    out = polygonal_summary_fractional(_grid_layer(), ray.put(polys), LAYOUT)
    return {int(r["polygon_id"]): r for r in out.take_all()}


def test_fractional_rects_exact(ray_session):
    """Exact analytic interval-overlap oracle over every fixture rect."""
    polys = gen_halfcell_rects()
    got = _run(polys)
    v = _values()
    hx0 = polys["hx0"].to_numpy()
    hy0 = polys["hy0"].to_numpy()
    hx1 = polys["hx1"].to_numpy()
    hy1 = polys["hy1"].to_numpy()
    x = np.arange(48)
    for k in range(len(polys)):
        # cell (x raster col, y raster row): world half-units
        fx = np.clip(np.minimum(hx1[k], 2 * x + 2) - np.maximum(hx0[k], 2 * x), 0, None)
        fy = np.clip(np.minimum(hy1[k], 96 - 2 * x) - np.maximum(hy0[k], 94 - 2 * x), 0, None)
        frac = (fx[None, :] * fy[:, None]) / 4.0  # [row, col]
        touched = frac > 0
        r = got[k]
        assert r["n_cells"] == int(touched.sum())
        assert r["area"] == float(frac.sum())
        assert r["wsum"] == float((frac * v).sum())
        assert r["min_v"] == float(v[touched].min())
        assert r["max_v"] == float(v[touched].max())
        assert r["wmean"] == float(frac.sum() and (frac * v).sum() / frac.sum())


def _supersample_fracs(rings, ss=64):
    """Dense-subsample coverage fractions of every 1x1 cell (48x48 world)."""
    from geotrellis_ray.core.geom import point_in_polygon_geom

    step = 1.0 / ss
    xs = np.arange(0, 48, step) + step / 2
    gxx, gyy = np.meshgrid(xs, xs)
    geom = {"type": "Polygon", "rings": rings}
    inside = point_in_polygon_geom(gxx.ravel(), gyy.ravel(), geom).reshape(gxx.shape)
    frac = inside.reshape(48, ss, 48, ss).sum(axis=(1, 3)) / (ss * ss)
    # world y row 0 is the BOTTOM; raster row 0 is the TOP
    return frac[::-1, :]


@pytest.mark.parametrize("rings,name", [
    ([np.array([[3.2, 5.1], [11.7, 6.3], [6.1, 13.9]])], "triangle"),
    ([np.array([[20.0, 20.0], [30.0, 20.0], [30.0, 30.0], [20.0, 30.0]]),
      np.array([[23.0, 23.0], [27.0, 23.0], [27.0, 27.0], [23.0, 27.0]])], "hole"),
])
def test_fractional_general_polygon(ray_session, rings, name):
    polys = pa.table({"polygon_id": pa.array([0], pa.int64()),
                      "wkb": pa.array([encode_polygon(rings)], pa.binary())})
    got = _run(polys)[0]
    frac = _supersample_fracs(rings)
    v = _values()
    tol = 48.0 * 2.0 / 64  # perimeter x subsample resolution bound
    assert abs(got["area"] - frac.sum()) < tol * 0.5
    assert abs(got["wsum"] - (frac * v).sum()) < tol * 251
    # interior cells are exact: fully-covered cells have frac exactly 1
    full = frac > 1.0 - 1e-12
    if full.any():
        assert got["area"] >= full.sum()


def _zonal_brute(vals, nodata_mask, s_num, s_den, ox_num, oy_num):
    """Fraction-exact per-cell overlap against the analytic zone grid.
    Returns {(zone_x, zone_y): [sum_w_subunits, sum_wv_subunits, n_cells]}
    with weights in integer 1/s_den^2-cell units."""
    from collections import defaultdict
    from fractions import Fraction

    q, s = s_den, s_num
    acc = defaultdict(lambda: [0, Fraction(0), 0])
    H, W = vals.shape
    for y in range(H):
        for x in range(W):
            if nodata_mask[y, x]:
                continue
            # exact 1D overlaps of [x, x+1) with zone columns
            def pieces(g, off):
                out = {}
                j = (g * q - off) // s
                while True:
                    lo = Fraction(off + j * s, q)        # zone j bounds, cells
                    hi = Fraction(off + (j + 1) * s, q)
                    ov = min(Fraction(g + 1), hi) - max(Fraction(g), lo)
                    if ov <= 0:
                        break
                    out[j] = ov * q  # sub-units (integer-valued Fraction)
                    j += 1
                return out
            # zone cells span >= 1 cell so <= 2 pieces each axis
            pxs = pieces(x, ox_num)
            pys = pieces(y, oy_num)
            for jx, wx in pxs.items():
                for jy, wy in pys.items():
                    w = wx * wy
                    assert w.denominator == 1
                    e = acc[(jx, jy)]
                    e[0] += int(w)
                    e[1] += w * Fraction(vals[y, x])
                    e[2] += 1
    return acc


@pytest.mark.parametrize("s_num,s_den,ox,oy", [
    (5, 2, -1, -3),   # the q_zonal_fractional_grid configuration
    (3, 1, 0, 0),     # aligned integer zones (degenerate: no fractions)
    (7, 3, -2, -1),   # thirds
])
def test_zonal_fractional_grid_brute(ray_session, s_num, s_den, ox, oy):
    import ray.data

    from geotrellis_ray.stages.stats import zonal_stats_fractional_grid

    vals = _values()
    # punch NoData holes deterministically
    mask = ((np.arange(48)[:, None] * 7 + np.arange(48)[None, :] * 13) % 29) == 0
    v2 = vals.copy()
    v2[mask] = np.nan

    rows = []
    for kr in range(3):
        for kc in range(3):
            a = v2[kr * 16:(kr + 1) * 16, kc * 16:(kc + 1) * 16]
            cells, cols, trows, ct = encode_tile(a)
            rows.append({"key_col": kc, "key_row": kr, "sfc": int(zorder(kc, kr)),
                         "cells": cells, "cols": cols, "rows": trows,
                         "cell_type": ct})
    exp = _zonal_brute(vals, mask, s_num, s_den, ox, oy)

    for nblocks in (1, 4):
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(nblocks)
        got = zonal_stats_fractional_grid(
            ds, scale_num=s_num, scale_den=s_den,
            off_x_num=ox, off_y_num=oy).to_pandas()
        got = got.set_index(["zone_x", "zone_y"]).sort_index()
        assert len(got) == len(exp)
        for (jx, jy), (sw, swv, nc) in exp.items():
            r = got.loc[(jx, jy)]
            assert int(r["sum_w"]) == sw
            assert float(r["sum_wv"]) == float(swv)
            assert int(r["n_cells"]) == nc
            assert float(r["wmean"]) == float(swv) / sw


def test_zonal_fractional_requires_coarser_zones(ray_session):
    from geotrellis_ray.stages.stats import zonal_stats_fractional_grid

    with pytest.raises(ValueError):
        zonal_stats_fractional_grid(None, scale_num=1, scale_den=2,
                                    off_x_num=0, off_y_num=0)
