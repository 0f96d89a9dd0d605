"""Layer-operator tests: distributed result == single-machine numpy oracle
(the RasterizeRDDSpec pattern — SURVEY.md §5)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

ray = pytest.importorskip("ray")
import ray.data  # noqa: E402

from geotrellis_ray.core.raster import decode_tile, encode_tile  # noqa: E402
from geotrellis_ray.core.sfc import zorder  # noqa: E402
from geotrellis_ray.stages.layer_ops import (  # noqa: E402
    buffer_tiles,
    focal_mean,
    layer_local_binary,
    layer_local_scalar,
    layer_local_unary,
    merge_layers,
)

T = 8  # tile size


def tile_values(c: int, r: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(1000 * seed + 10 * c + r)
    a = rng.uniform(1.0, 9.0, size=(T, T))
    a[rng.random((T, T)) < 0.15] = np.nan  # NoData holes
    return a


def make_layer(keys, seed=0):
    rows = []
    for c, r in keys:
        cells, cols, trows, ct = encode_tile(tile_values(c, r, seed))
        rows.append({"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                     "cells": cells, "cols": cols, "rows": trows, "cell_type": ct})
    t = pa.Table.from_pylist(rows)
    return ray.data.from_arrow(t)


def layer_to_dict(ds):
    out = {}
    for row in ds.take_all():
        out[(row["key_col"], row["key_row"])] = decode_tile(
            row["cells"], row["cols"], row["rows"], row["cell_type"]
        )
    return out


KEYS = [(c, r) for c in range(3) for r in range(3)]


def test_local_unary_sqrt(ray_session):
    got = layer_to_dict(layer_local_unary(make_layer(KEYS), "sqrt"))
    assert set(got) == set(KEYS)
    for k in KEYS:
        np.testing.assert_allclose(got[k], np.sqrt(tile_values(*k)), equal_nan=True)


def test_local_scalar_and_binary(ray_session):
    got = layer_to_dict(layer_local_scalar(make_layer(KEYS), "multiply", 3.0))
    for k in KEYS:
        np.testing.assert_allclose(got[k], tile_values(*k) * 3.0, equal_nan=True)

    a = make_layer(KEYS, seed=0)
    b = make_layer(KEYS[:5], seed=1)  # partial overlap -> inner join keeps 5
    got = layer_to_dict(layer_local_binary(a, b, "add"))
    assert set(got) == set(KEYS[:5])
    for k in KEYS[:5]:
        np.testing.assert_allclose(got[k], tile_values(*k, 0) + tile_values(*k, 1), equal_nan=True)


def test_merge_layers_left_wins(ray_session):
    a = make_layer(KEYS[:4], seed=0)
    b = make_layer(KEYS[2:6], seed=1)
    got = layer_to_dict(merge_layers(a, b))
    assert set(got) == set(KEYS[:6])
    for k in KEYS[:2]:
        np.testing.assert_allclose(got[k], tile_values(*k, 0), equal_nan=True)
    for k in KEYS[4:6]:
        np.testing.assert_allclose(got[k], tile_values(*k, 1), equal_nan=True)
    for k in KEYS[2:4]:  # overlap: a wins where defined, b fills a's NoData
        av, bv = tile_values(*k, 0), tile_values(*k, 1)
        exp = np.where(np.isnan(av), bv, av)
        np.testing.assert_allclose(got[k], exp, equal_nan=True)


def _mosaic(keys, seed=0):
    """Single-machine oracle: stitch the 3x3 layer into one (3T, 3T) array."""
    big = np.full((3 * T, 3 * T), np.nan)
    for c, r in keys:
        big[r * T:(r + 1) * T, c * T:(c + 1) * T] = tile_values(c, r, seed)
    return big


def test_buffer_tiles_matches_mosaic_windows(ray_session):
    m = 2
    got = layer_to_dict(buffer_tiles(make_layer(KEYS), margin=m))
    assert set(got) == set(KEYS)
    big = np.pad(_mosaic(KEYS), m, constant_values=np.nan)
    for (c, r), tile in got.items():
        assert tile.shape == (T + 2 * m, T + 2 * m)
        exp = big[r * T:r * T + T + 2 * m, c * T:c * T + T + 2 * m]
        np.testing.assert_allclose(tile, exp, equal_nan=True)


def test_focal_mean_matches_bruteforce(ray_session):
    got = layer_to_dict(focal_mean(make_layer(KEYS), margin=1))
    big = _mosaic(KEYS)
    pad = np.pad(big, 1, constant_values=np.nan)
    exp_big = np.full_like(big, np.nan)
    for i in range(big.shape[0]):
        for j in range(big.shape[1]):
            if np.isnan(big[i, j]):
                continue
            w = pad[i:i + 3, j:j + 3]
            exp_big[i, j] = np.nanmean(w)
    for (c, r), tile in got.items():
        assert tile.shape == (T, T)
        exp = exp_big[r * T:(r + 1) * T, c * T:(c + 1) * T]
        np.testing.assert_allclose(tile, exp, equal_nan=True)


def test_layer_mask(ray_session):
    """Mask(geometry) over a layer == per-tile numpy oracle."""
    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.core.raster import mask_geom
    from geotrellis_ray.stages.layer_ops import layer_mask

    layout = LayoutDefinition(Extent(0.0, 0.0, 3.0, 3.0), TileLayout(3, 3, T, T))
    geom = {"type": "Polygon", "rings": [np.array([(0.5, 0.5), (2.5, 0.5), (2.5, 2.5), (0.5, 2.5), (0.5, 0.5)])]}
    got = layer_to_dict(layer_mask(make_layer(KEYS), geom, layout))
    assert set(got) == set(KEYS)
    for (c, r), tile in got.items():
        exp = mask_geom(tile_values(c, r), layout.key_to_extent(c, r), geom)
        np.testing.assert_allclose(tile, exp, equal_nan=True)


@pytest.mark.parametrize("op,npfn", [("sum", np.nansum), ("min", np.nanmin),
                                     ("max", np.nanmax), ("median", np.nanmedian),
                                     ("stddev", np.nanstd)])
def test_focal_ops_match_bruteforce(ray_session, op, npfn):
    from geotrellis_ray.stages.layer_ops import focal_op

    got = layer_to_dict(focal_op(make_layer(KEYS), op, margin=1))
    big = _mosaic(KEYS)
    pad = np.pad(big, 1, constant_values=np.nan)
    exp_big = np.full_like(big, np.nan)
    for i in range(big.shape[0]):
        for j in range(big.shape[1]):
            if np.isnan(big[i, j]):
                continue
            w = pad[i:i + 3, j:j + 3]
            exp_big[i, j] = npfn(w)
    for (c, r), tile in got.items():
        exp = exp_big[r * T:(r + 1) * T, c * T:(c + 1) * T]
        np.testing.assert_allclose(tile, exp, equal_nan=True)


def _brute_horn(big, cw, ch):
    """Per-cell Horn gradients on the stitched mosaic: NaN neighbors replaced
    by the center value; NaN centers stay NaN. Returns (zx, zy)."""
    pad = np.pad(big, 1, constant_values=np.nan)
    zx = np.full_like(big, np.nan)
    zy = np.full_like(big, np.nan)
    for i in range(big.shape[0]):
        for j in range(big.shape[1]):
            c = big[i, j]
            if np.isnan(c):
                continue
            w = pad[i:i + 3, j:j + 3].copy()
            w[np.isnan(w)] = c
            zx[i, j] = ((w[0, 2] + 2 * w[1, 2] + w[2, 2]) - (w[0, 0] + 2 * w[1, 0] + w[2, 0])) / (8 * cw)
            zy[i, j] = ((w[0, 0] + 2 * w[0, 1] + w[0, 2]) - (w[2, 0] + 2 * w[2, 1] + w[2, 2])) / (8 * ch)
    return zx, zy


def test_focal_slope_aspect_hillshade_match_bruteforce(ray_session):
    from geotrellis_ray.stages.layer_ops import focal_aspect, focal_hillshade, focal_slope

    cw, ch = 30.0, 30.0
    big = _mosaic(KEYS)
    zx, zy = _brute_horn(big, cw, ch)

    got_slope = layer_to_dict(focal_slope(make_layer(KEYS), cw, ch))
    exp_slope = np.degrees(np.arctan(np.hypot(zx, zy)))
    for (c, r), tile in got_slope.items():
        np.testing.assert_allclose(tile, exp_slope[r * T:(r + 1) * T, c * T:(c + 1) * T],
                                   equal_nan=True, atol=1e-9)

    got_aspect = layer_to_dict(focal_aspect(make_layer(KEYS), cw, ch))
    az = np.mod(np.degrees(np.arctan2(-zx, zy)) + 360.0, 360.0)
    exp_aspect = np.where((zx == 0) & (zy == 0), 0.0, az)
    exp_aspect[np.isnan(big)] = np.nan
    for (c, r), tile in got_aspect.items():
        np.testing.assert_allclose(tile, exp_aspect[r * T:(r + 1) * T, c * T:(c + 1) * T],
                                   equal_nan=True, atol=1e-9)

    got_hs = layer_to_dict(focal_hillshade(make_layer(KEYS), cw, ch))
    zen = np.radians(45.0)
    azm = np.radians(360.0 - 315.0 + 90.0)
    slope_r = np.arctan(np.hypot(zx, zy))
    aspect_m = np.arctan2(zy, -zx)
    shade = np.cos(zen) * np.cos(slope_r) + np.sin(zen) * np.sin(slope_r) * np.cos(azm - aspect_m)
    exp_hs = np.round(255.0 * np.clip(shade, 0.0, 1.0))
    exp_hs[np.isnan(big)] = np.nan
    for (c, r), tile in got_hs.items():
        np.testing.assert_allclose(tile, exp_hs[r * T:(r + 1) * T, c * T:(c + 1) * T],
                                   equal_nan=True, atol=1e-9)


def _brute_resample(a, oc, orr, method):
    """Loop-based oracle for the aggregating and interpolating kernels."""
    rows, cols = a.shape
    out = np.full((orr, oc), np.nan)
    if method in ("average", "median", "mode", "min", "max", "sum"):
        for i in range(orr):
            for j in range(oc):
                rs = [r for r in range(rows) if r * orr // rows == i]
                cs = [c for c in range(cols) if c * oc // cols == j]
                vals = np.array([a[r, c] for r in rs for c in cs])
                vals = vals[~np.isnan(vals)]
                if len(vals) == 0:
                    continue
                if method == "average":
                    out[i, j] = vals.mean()
                elif method == "median":
                    out[i, j] = np.median(vals)
                elif method == "min":
                    out[i, j] = vals.min()
                elif method == "max":
                    out[i, j] = vals.max()
                elif method == "sum":
                    out[i, j] = vals.sum()
                else:
                    u, n = np.unique(vals, return_counts=True)
                    out[i, j] = u[np.argmax(n)]  # unique is sorted: min value on tie
        return out
    if method == "bilinear":
        for i in range(orr):
            for j in range(oc):
                fy = (i + 0.5) * rows / orr - 0.5
                fx = (j + 0.5) * cols / oc - 0.5
                y0 = int(np.clip(np.floor(fy), 0, rows - 1)); y1 = min(y0 + 1, rows - 1)
                x0 = int(np.clip(np.floor(fx), 0, cols - 1)); x1 = min(x0 + 1, cols - 1)
                wy = np.clip(fy - y0, 0, 1); wx = np.clip(fx - x0, 0, 1)
                num = den = 0.0
                for (yy, xx, w) in ((y0, x0, (1 - wy) * (1 - wx)), (y0, x1, (1 - wy) * wx),
                                    (y1, x0, wy * (1 - wx)), (y1, x1, wy * wx)):
                    v = a[yy, xx]
                    if not np.isnan(v):
                        num += v * w; den += w
                if den > 0:
                    out[i, j] = num / den
        return out
    raise ValueError(method)


@pytest.mark.parametrize("method", ["average", "median", "mode", "bilinear",
                                    "min", "max", "sum"])
def test_resample_kernels_match_bruteforce(method):
    from geotrellis_ray.core.raster import resample

    rng = np.random.default_rng(11)
    a = rng.uniform(0, 10, (16, 12))
    if method == "mode":
        a = np.floor(a)  # categorical
    a[rng.random(a.shape) < 0.2] = np.nan
    for oc, orr in [(6, 8), (4, 4), (24, 20)] if method == "bilinear" else [(6, 8), (4, 4)]:
        got = resample(a, oc, orr, method)
        exp = _brute_resample(a, oc, orr, method)
        np.testing.assert_allclose(got, exp, equal_nan=True, atol=1e-12)


def test_resample_lanczos_properties():
    """Lanczos(a=3): exact interpolation at integer source positions
    (identity resample reproduces the tile bit-for-bit up to fp), constant
    preservation at any scale, and the cubic-style bilinear NoData
    fallback."""
    from geotrellis_ray.core.raster import resample, resample_bilinear

    rng = np.random.default_rng(7)
    a = rng.uniform(-5, 5, (16, 12))
    # same-size resample: every target lands exactly on a source center
    np.testing.assert_allclose(resample(a, 12, 16, "lanczos"), a, atol=1e-9)
    # constants survive any resample (normalized window)
    c = np.full((16, 12), 3.25)
    np.testing.assert_allclose(resample(c, 30, 21, "lanczos"), 3.25, atol=1e-12)
    a2 = a.copy(); a2[8, 6] = np.nan
    got = resample(a2, 24, 32, "lanczos")
    bil = resample_bilinear(a2, 24, 32)
    fy = (np.arange(32) + 0.5) * 16 / 32 - 0.5
    fx = (np.arange(24) + 0.5) * 12 / 24 - 0.5
    # support=3: any target whose 6x6 window touches (8,6) falls back
    sel = np.ix_(np.arange(32)[(fy >= 6) & (fy <= 10)],
                 np.arange(24)[(fx >= 4) & (fx <= 8)])
    np.testing.assert_allclose(got[sel], bil[sel], equal_nan=True)


def test_resample_cubic_spline_properties():
    """Cubic B-spline: linear precision on the interior (partition of unity
    + symmetry), output bounded by input range (all-positive weights), and
    smoothing (NOT interpolating) — the identity resample may differ from
    the source, unlike lanczos."""
    from geotrellis_ray.core.raster import resample

    y, x = np.mgrid[0:16, 0:12]
    a = (2.0 * x + 3.0 * y).astype(np.float64)
    got = resample(a, 24, 32, "cubic-spline")
    fy = (np.arange(32) + 0.5) * 16 / 32 - 0.5
    fx = (np.arange(24) + 0.5) * 12 / 24 - 0.5
    exp = 2.0 * fx[None, :] + 3.0 * fy[:, None]
    interior = np.ix_(np.arange(32)[(fy >= 1) & (fy <= 14)],
                      np.arange(24)[(fx >= 1) & (fx <= 10)])
    np.testing.assert_allclose(got[interior], exp[interior], atol=1e-9)
    rng = np.random.default_rng(5)
    r = rng.uniform(2, 9, (16, 12))
    out = resample(r, 30, 21, "cubic-spline")
    assert out.min() >= r.min() - 1e-12 and out.max() <= r.max() + 1e-12


def test_resample_cubic_properties():
    """Cubic: matches the analytic surface away from NoData (Catmull-Rom
    reproduces linear surfaces exactly) and falls back to bilinear near
    NoData."""
    from geotrellis_ray.core.raster import resample, resample_bilinear

    y, x = np.mgrid[0:16, 0:12]
    a = (2.0 * x + 3.0 * y).astype(np.float64)
    got = resample(a, 24, 32, "cubic")
    # linear surface: cubic interpolation is exact at interior targets
    fy = (np.arange(32) + 0.5) * 16 / 32 - 0.5
    fx = (np.arange(24) + 0.5) * 12 / 24 - 0.5
    exp = 2.0 * np.clip(fx, 0, 11)[None, :] + 3.0 * np.clip(fy, 0, 15)[:, None]
    interior = np.ix_(np.arange(32)[(fy >= 1) & (fy <= 14)], np.arange(24)[(fx >= 1) & (fx <= 10)])
    np.testing.assert_allclose(got[interior], exp[interior], atol=1e-9)

    a2 = a.copy(); a2[8, 6] = np.nan
    got2 = resample(a2, 24, 32, "cubic")
    bil = resample_bilinear(a2, 24, 32)
    # cells whose 4x4 support touches the NaN must equal the bilinear fallback
    bad_y = (fy >= 6) & (fy <= 10); bad_x = (fx >= 4) & (fx <= 8)
    sel = np.ix_(np.arange(32)[bad_y], np.arange(24)[bad_x])
    np.testing.assert_allclose(got2[sel], bil[sel], equal_nan=True)


def test_layer_resample(ray_session):
    from geotrellis_ray.stages.layer_ops import layer_resample
    from geotrellis_ray.core.raster import resample

    got = layer_to_dict(layer_resample(make_layer(KEYS), 4, 4, "average"))
    for k in KEYS:
        np.testing.assert_allclose(got[k], resample(tile_values(*k), 4, 4, "average"),
                                   equal_nan=True)


def test_focal_mode_matches_bruteforce(ray_session):
    """Focal mode (ties -> smallest value) vs a window brute oracle over a
    small categorical mosaic with NoData."""
    from collections import Counter

    from geotrellis_ray.stages.layer_ops import focal_op

    big = _mosaic(KEYS)
    # quantize to a few categories so ties actually happen
    bigq = np.where(np.isnan(big), np.nan, np.floor(big) % 4)
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_ray.core.sfc import zorder as _z

    T2 = big.shape[0] // 2
    rows = []
    for kr in range(2):
        for kc in range(2):
            t = bigq[kr * T2:(kr + 1) * T2, kc * T2:(kc + 1) * T2]
            rows.append({"key_col": kc, "key_row": kr, "sfc": int(_z(kc, kr)),
                         "cells": t.astype(np.float64).tobytes(), "cols": T2,
                         "rows": T2, "cell_type": "float64"})
    lay = rd.from_arrow(pa.Table.from_pylist(rows))
    out = {}
    for r in focal_op(lay, "mode", margin=1).take_all():
        out[(r["key_col"], r["key_row"])] = np.frombuffer(
            r["cells"], dtype=np.float64).reshape(T2, T2)
    pad = np.pad(bigq, 1, constant_values=np.nan)
    exp = np.full_like(bigq, np.nan)
    for i in range(bigq.shape[0]):
        for j in range(bigq.shape[1]):
            if np.isnan(bigq[i, j]):
                continue
            w = pad[i:i + 3, j:j + 3].ravel()
            w = w[~np.isnan(w)]
            cnt = Counter(w)
            best = max(cnt.items(), key=lambda kv: (kv[1], -kv[0]))
            exp[i, j] = best[0]
    for (c, r), tile in out.items():
        e = exp[r * T2:(r + 1) * T2, c * T2:(c + 1) * T2]
        np.testing.assert_allclose(tile, e, equal_nan=True)


def test_focal_tobler_matches_bruteforce(ray_session):
    from geotrellis_ray.stages.layer_ops import focal_tobler

    cw, ch = 30.0, 30.0
    big = _mosaic(KEYS)
    zx, zy = _brute_horn(big, cw, ch)
    got = layer_to_dict(focal_tobler(make_layer(KEYS), cw, ch))
    exp = 6.0 * np.exp(-3.5 * np.abs(np.hypot(zx, zy) + 0.05))
    exp[np.isnan(big)] = np.nan
    for (c, r), tile in got.items():
        np.testing.assert_allclose(tile, exp[r * T:(r + 1) * T, c * T:(c + 1) * T],
                                   equal_nan=True, atol=1e-12)
    # flat terrain walks fastest: ~5.04 km/h on perfectly flat cells
    flat = layer_to_dict(focal_tobler(
        make_layer([(0, 0)], seed=0), cw, ch))  # has NaN holes but bounded
    vals = flat[(0, 0)]
    assert np.nanmax(vals) <= 6.0 * np.exp(-3.5 * 0.05) + 1e-12


@pytest.mark.parametrize("op,npfn", [("mean", np.nanmean), ("sum", np.nansum),
                                     ("min", np.nanmin), ("median", np.nanmedian)])
def test_focal_circle_matches_bruteforce(ray_session, op, npfn):
    """Circle(r) neighborhood (GeoTrellis disk semantics) vs a per-cell
    disk-masked brute oracle at r=2 (13-cell disk, crosses tile edges)."""
    from geotrellis_ray.stages.layer_ops import focal_op

    m = 2
    got = layer_to_dict(focal_op(make_layer(KEYS), op, margin=m,
                                 neighborhood="circle"))
    big = _mosaic(KEYS)
    pad = np.pad(big, m, constant_values=np.nan)
    dy, dx = np.mgrid[-m:m + 1, -m:m + 1]
    disk = (dx * dx + dy * dy) <= m * m
    exp_big = np.full_like(big, np.nan)
    for i in range(big.shape[0]):
        for j in range(big.shape[1]):
            if np.isnan(big[i, j]):
                continue
            w = pad[i:i + 2 * m + 1, j:j + 2 * m + 1].copy()
            w[~disk] = np.nan
            exp_big[i, j] = npfn(w)
    for (c, r), tile in got.items():
        np.testing.assert_allclose(tile, exp_big[r * T:(r + 1) * T, c * T:(c + 1) * T],
                                   equal_nan=True)


def test_focal_convolve_matches_bruteforce(ray_session):
    """Arbitrary asymmetric 5x5 kernel across tile boundaries with NoData
    holes: distributed convolve == per-cell double-loop weighted sum that
    skips NaN neighbors; NaN centers stay NaN."""
    from geotrellis_ray.stages.layer_ops import focal_convolve

    rng = np.random.default_rng(42)
    kern = rng.integers(-3, 7, size=(5, 5)).astype(np.float64)
    m = 2
    got = layer_to_dict(focal_convolve(make_layer(KEYS), kern))
    big = _mosaic(KEYS)
    pad = np.pad(big, m, constant_values=np.nan)
    exp_big = np.full_like(big, np.nan)
    for i in range(big.shape[0]):
        for j in range(big.shape[1]):
            if np.isnan(big[i, j]):
                continue
            w = pad[i:i + 2 * m + 1, j:j + 2 * m + 1]
            exp_big[i, j] = np.sum(np.where(np.isnan(w), 0.0, kern * w))
    for (c, r), tile in got.items():
        assert tile.shape == (T, T)
        exp = exp_big[r * T:(r + 1) * T, c * T:(c + 1) * T]
        np.testing.assert_allclose(tile, exp, equal_nan=True, rtol=1e-12)


def test_focal_convolve_rejects_even_kernel(ray_session):
    from geotrellis_ray.stages.layer_ops import focal_convolve

    with pytest.raises(ValueError):
        focal_convolve(make_layer(KEYS[:1]), np.ones((2, 2)))


def test_focal_mean_int_layer_nodata_sentinel(ray_session):
    """Integer layers mark NoData with INT_NODATA (int32 min). buffer_tiles
    ships collars as float64 — the sentinel must become NaN BEFORE the
    collar exchange, or focal reduces blend -2^31 into every window that
    touches a hole (including across tile seams). Oracle: the float-coded
    twin of the same layer."""
    from geotrellis_ray.core.raster import INT_NODATA

    def int_tile(c, r):
        rng = np.random.default_rng(77 + 10 * c + r)
        a = rng.integers(1, 100, size=(T, T)).astype(np.int32)
        a[rng.random((T, T)) < 0.2] = INT_NODATA
        return a

    rows_i, rows_f = [], []
    for c, r in KEYS:
        a = int_tile(c, r)
        cells, cols, trows, ct = encode_tile(a)
        rows_i.append({"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                       "cells": cells, "cols": cols, "rows": trows, "cell_type": ct})
        f = a.astype(np.float64)
        f[a == INT_NODATA] = np.nan
        cells, cols, trows, ct = encode_tile(f)
        rows_f.append({"key_col": c, "key_row": r, "sfc": int(zorder(c, r)),
                       "cells": cells, "cols": cols, "rows": trows, "cell_type": ct})

    got_i = layer_to_dict(focal_mean(ray.data.from_arrow(pa.Table.from_pylist(rows_i))))
    got_f = layer_to_dict(focal_mean(ray.data.from_arrow(pa.Table.from_pylist(rows_f))))
    assert set(got_i) == set(KEYS)
    for k in KEYS:
        np.testing.assert_allclose(got_i[k], got_f[k], equal_nan=True)
        # the sentinel (or its window-mean shadow) must never leak through
        assert not (np.abs(got_i[k][~np.isnan(got_i[k])]) > 1e6).any()
