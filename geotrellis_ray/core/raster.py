"""Tiles as numpy arrays + the raster operator set: local map algebra with
NoData, crop/merge/mask/split, nearest/average resample, and the cell-center
rasterizer.

Re-expresses (from scratch, vectorized — SURVEY.md §2.2/§2.5):
- Tile/ArrayTile/CellType   ref:raster/src/main/scala/geotrellis/raster/Tile.scala, CellType.scala (L:unverified)
- mapalgebra.local.*        ref:raster/.../mapalgebra/local/*.scala (L:unverified)
- crop/merge/split/mask     ref:raster/.../crop/, merge/, split/, mask/ (L:unverified)
- resample                  ref:raster/.../resample/*.scala (L:unverified)
- Rasterizer / PolygonRasterizer  ref:raster/.../rasterize/Rasterizer.scala, polygon/PolygonRasterizer.scala (L:unverified)
(/root/reference empty at survey time — SURVEY.md §0.)

Conventions (pinned by tests — OUR RasterizeSpec semantics):
- A tile is a 2-D numpy array shaped (rows, cols); row 0 = north.
- NoData: float tiles use NaN; int tiles use a sentinel (default int32 min),
  mirroring GeoTrellis's constant-NoData cell types.
- Rasterize inclusion rule: a cell is painted iff its CENTER is inside the
  geometry (even-odd PIP, half-open edge rule from core.geom) — for lines,
  iff the line passes within the cell (Bresenham-style DDA traversal).
- Overlap priority (RasterizeRDD z-index): higher zindex wins; tie -> larger
  value wins (documented OUR spec, FIXTURES.md §4).

Arrow encoding of a tile row (layer schema): cells serialized as a binary
column (``np.ndarray.tobytes()``, C order) + ``cols, rows, cell_type``
columns; ``np.frombuffer`` gives a zero-copy view on decode (the Arrow-native
stand-in for Avro TileCodecs — ref:store/.../avro/codecs/TileCodecs.scala).
"""

from __future__ import annotations

import numpy as np

from .geom import point_in_polygon_geom
from .layout import Extent

INT_NODATA = np.int32(np.iinfo(np.int32).min)

_CELL_DTYPES = {
    "int8": np.int8, "uint8": np.uint8, "int16": np.int16, "uint16": np.uint16,
    "int32": np.int32, "int64": np.int64, "float32": np.float32, "float64": np.float64,
}


def nodata_value(dtype) -> float | int:
    return np.nan if np.issubdtype(np.dtype(dtype), np.floating) else INT_NODATA


def is_nodata(a: np.ndarray) -> np.ndarray:
    if np.issubdtype(a.dtype, np.floating):
        return np.isnan(a)
    return a == INT_NODATA


# --- codec (cells <-> binary column) ---------------------------------------

def encode_tile(a: np.ndarray) -> tuple[bytes, int, int, str]:
    return a.tobytes(), a.shape[1], a.shape[0], str(a.dtype)


def decode_tile(cells: bytes, cols: int, rows: int, cell_type: str) -> np.ndarray:
    return np.frombuffer(cells, dtype=_CELL_DTYPES[cell_type]).reshape(rows, cols)


# --- local map algebra ------------------------------------------------------

def _nodata_mask(*tiles):
    m = is_nodata(tiles[0])
    for t in tiles[1:]:
        m = m | is_nodata(t)
    return m


def local_binary(a: np.ndarray, b, op) -> np.ndarray:
    """Binary cell-wise op with NoData propagation; b is a tile or scalar."""
    bs = b if np.isscalar(b) else b
    mask = is_nodata(a) if np.isscalar(b) else _nodata_mask(a, b)
    with np.errstate(all="ignore"):
        out = op(a.astype(np.float64), bs if np.isscalar(bs) else bs.astype(np.float64))
    out = np.where(mask, np.nan, out)
    return out


def local_unary(a: np.ndarray, op) -> np.ndarray:
    mask = is_nodata(a)
    with np.errstate(all="ignore"):
        out = op(a.astype(np.float64))
    return np.where(mask, np.nan, out)


LOCAL_BINARY_OPS = {
    "add": np.add, "subtract": np.subtract, "multiply": np.multiply,
    "divide": np.divide, "pow": np.power, "min": np.minimum, "max": np.maximum,
    "equal": np.equal, "unequal": np.not_equal, "greater": np.greater,
    "greater_or_equal": np.greater_equal, "less": np.less, "less_or_equal": np.less_equal,
    "and": lambda a, b: np.logical_and(a != 0, b != 0).astype(np.float64),
    "or": lambda a, b: np.logical_or(a != 0, b != 0).astype(np.float64),
    "xor": lambda a, b: np.logical_xor(a != 0, b != 0).astype(np.float64),
}

LOCAL_UNARY_OPS = {
    "sqrt": np.sqrt, "abs": np.abs, "ceil": np.ceil, "floor": np.floor,
    "round": np.round, "log": np.log, "log10": np.log10, "negate": np.negative,
    "not": lambda a: np.logical_not(a != 0).astype(np.float64),
}


def local_defined(a: np.ndarray) -> np.ndarray:
    return (~is_nodata(a)).astype(np.uint8)


# --- crop / merge / split / mask -------------------------------------------

def crop(a: np.ndarray, col0: int, row0: int, col1: int, row1: int) -> np.ndarray:
    """Inclusive cell-bounds crop."""
    return a[row0 : row1 + 1, col0 : col1 + 1]


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Left-wins-non-NoData merge (GeoTrellis Tile.merge semantics)."""
    return np.where(is_nodata(a), b, a)


def split(a: np.ndarray, tile_cols: int, tile_rows: int) -> list[tuple[int, int, np.ndarray]]:
    """Split into (tile_col, tile_row, subarray) chunks."""
    rows, cols = a.shape
    out = []
    for tr in range(0, rows, tile_rows):
        for tc in range(0, cols, tile_cols):
            out.append((tc // tile_cols, tr // tile_rows, a[tr : tr + tile_rows, tc : tc + tile_cols]))
    return out


def mask_geom(a: np.ndarray, extent: Extent, geom: dict, invert: bool = False) -> np.ndarray:
    """Mask (or InverseMask) a tile by a geometry: cells whose center falls
    outside (inside, if invert) become NoData."""
    rows, cols = a.shape
    inside = rasterize_mask(geom, extent, cols, rows)
    keep = ~inside if invert else inside
    nd = nodata_value(a.dtype) if np.issubdtype(a.dtype, np.floating) else INT_NODATA
    return np.where(keep, a, nd)


# --- resample ---------------------------------------------------------------

def resample_nearest(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    rows, cols = a.shape
    ri = np.minimum(((np.arange(out_rows) + 0.5) * rows / out_rows).astype(np.int64), rows - 1)
    ci = np.minimum(((np.arange(out_cols) + 0.5) * cols / out_cols).astype(np.int64), cols - 1)
    return a[np.ix_(ri, ci)]


def _src_frac_coords(n_out: int, n_src: int) -> np.ndarray:
    """Fractional source coordinates of target cell centers (pixel-center
    alignment: target center t maps to source coord (t+0.5)*n_src/n_out-0.5)."""
    return (np.arange(n_out) + 0.5) * n_src / n_out - 0.5


def resample_bilinear(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware bilinear: NaN neighbors drop out of the weighted sum and
    the remaining weights renormalize; all-4-NaN -> NaN.
    (ref:raster/.../resample/BilinearResample.scala, L:unverified)."""
    rows, cols = a.shape
    fy = _src_frac_coords(out_rows, rows)
    fx = _src_frac_coords(out_cols, cols)
    y0 = np.clip(np.floor(fy).astype(np.int64), 0, rows - 1)
    x0 = np.clip(np.floor(fx).astype(np.int64), 0, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    x1 = np.minimum(x0 + 1, cols - 1)
    wy = np.clip(fy - y0, 0.0, 1.0)[:, None]
    wx = np.clip(fx - x0, 0.0, 1.0)[None, :]
    f = a.astype(np.float64)
    corners = (
        (f[np.ix_(y0, x0)], (1 - wy) * (1 - wx)),
        (f[np.ix_(y0, x1)], (1 - wy) * wx),
        (f[np.ix_(y1, x0)], wy * (1 - wx)),
        (f[np.ix_(y1, x1)], wy * wx),
    )
    num = np.zeros((out_rows, out_cols))
    den = np.zeros((out_rows, out_cols))
    for v, w in corners:
        ok = ~np.isnan(v)
        num += np.where(ok, v, 0.0) * np.broadcast_to(w, v.shape) * ok
        den += np.broadcast_to(w, v.shape) * ok
    with np.errstate(invalid="ignore"):
        out = num / den
    return np.where(den > 0, out, np.nan)


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """Catmull-Rom (a=-0.5) kernel weights for offsets (-1, 0, 1, 2) at
    fractional position t in [0,1): shape (len(t), 4)."""
    A = -0.5
    out = np.empty((len(t), 4))
    for j, off in enumerate((-1, 0, 1, 2)):
        x = np.abs(t - off)
        w = np.where(
            x <= 1, (A + 2) * x**3 - (A + 3) * x**2 + 1,
            np.where(x < 2, A * x**3 - 5 * A * x**2 + 8 * A * x - 4 * A, 0.0),
        )
        out[:, j] = w
    return out


def resample_cubic(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """Cubic-convolution (Catmull-Rom) resample; target cells whose 4x4
    support contains any NoData fall back to the bilinear value (keeps the
    kernel separable/vectorized without NoData weight renormalization).
    (ref:raster/.../resample/CubicConvolutionResample.scala, L:unverified)."""
    rows, cols = a.shape
    fy = _src_frac_coords(out_rows, rows)
    fx = _src_frac_coords(out_cols, cols)
    y0 = np.floor(fy).astype(np.int64)
    x0 = np.floor(fx).astype(np.int64)
    ty = fy - y0
    tx = fx - x0
    wy = _cubic_weights(ty)  # (out_rows, 4)
    wx = _cubic_weights(tx)  # (out_cols, 4)
    f = a.astype(np.float64)
    nanmask = np.isnan(f)
    f0 = np.where(nanmask, 0.0, f)
    acc = np.zeros((out_rows, out_cols))
    bad = np.zeros((out_rows, out_cols), dtype=bool)
    for j in range(4):
        yi = np.clip(y0 + (j - 1), 0, rows - 1)
        rowacc = np.zeros((out_rows, out_cols))
        rowbad = np.zeros((out_rows, out_cols), dtype=bool)
        for i in range(4):
            xi = np.clip(x0 + (i - 1), 0, cols - 1)
            rowacc += f0[np.ix_(yi, xi)] * wx[:, i][None, :]
            rowbad |= nanmask[np.ix_(yi, xi)]
        acc += rowacc * wy[:, j][:, None]
        bad |= rowbad
    if bad.any():
        fallback = resample_bilinear(a, out_cols, out_rows)
        acc = np.where(bad, fallback, acc)
    return acc


def _aggregate_segments(a: np.ndarray, out_cols: int, out_rows: int):
    """Source cells binned to target cells (box aggregation for decimating
    resamples): returns (sorted values, sorted target idx, segment bounds)."""
    rows, cols = a.shape
    ti_r = np.arange(rows) * out_rows // rows
    ti_c = np.arange(cols) * out_cols // cols
    tidx = (ti_r[:, None] * out_cols + ti_c[None, :]).ravel()
    vals = a.ravel().astype(np.float64)
    ok = ~np.isnan(vals)
    order = np.lexsort((vals[ok], tidx[ok]))
    v = vals[ok][order]
    t = tidx[ok][order]
    bounds = np.searchsorted(t, np.arange(out_rows * out_cols + 1))
    return v, t, bounds


def resample_average(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box average (generalizes downsample_average_2x to any
    target grid)."""
    rows, cols = a.shape
    ti_r = np.arange(rows) * out_rows // rows
    ti_c = np.arange(cols) * out_cols // cols
    tidx = (ti_r[:, None] * out_cols + ti_c[None, :]).ravel()
    vals = a.ravel().astype(np.float64)
    ok = ~np.isnan(vals)
    n = np.bincount(tidx[ok], minlength=out_rows * out_cols)
    s = np.bincount(tidx[ok], weights=vals[ok], minlength=out_rows * out_cols)
    with np.errstate(invalid="ignore"):
        out = s / n
    return np.where(n > 0, out, np.nan).reshape(out_rows, out_cols)


def resample_median(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box median — fully vectorized (per-segment middle
    elements of the value-sorted bins)."""
    v, _t, bounds = _aggregate_segments(a, out_cols, out_rows)
    counts = bounds[1:] - bounds[:-1]
    midlo = bounds[:-1] + np.maximum(counts - 1, 0) // 2
    midhi = bounds[:-1] + np.maximum(counts, 1) // 2
    safe_lo = np.minimum(midlo, max(len(v) - 1, 0))
    safe_hi = np.minimum(midhi, max(len(v) - 1, 0))
    if len(v) == 0:
        return np.full((out_rows, out_cols), np.nan)
    med = (v[safe_lo] + v[safe_hi]) / 2.0
    return np.where(counts > 0, med, np.nan).reshape(out_rows, out_cols)


def resample_mode(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box mode (categorical resample); ties break to the
    SMALLEST value (deterministic). Vectorized run-length over value-sorted
    bins."""
    v, t, bounds = _aggregate_segments(a, out_cols, out_rows)
    ncells = out_rows * out_cols
    if len(v) == 0:
        return np.full((out_rows, out_cols), np.nan)
    change = np.r_[True, (v[1:] != v[:-1]) | (t[1:] != t[:-1])]
    run_id = np.cumsum(change) - 1
    run_len = np.bincount(run_id)
    run_val = v[change]
    run_t = t[change]
    # pick, per target, the longest run; ties -> smallest value (runs are
    # value-sorted within a target, stable lexsort keeps that order)
    order = np.lexsort((-run_len, run_t))  # stable: ties keep value order
    rt = run_t[order]
    first = np.r_[True, rt[1:] != rt[:-1]]
    sel = order[first]
    out = np.full(ncells, np.nan)
    out[rt[first]] = run_val[sel]
    return out.reshape(out_rows, out_cols)


def resample_sum(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box sum (ref:raster/.../resample/SumResample.scala,
    L:unverified); all-NoData bins -> NaN."""
    rows, cols = a.shape
    ti_r = np.arange(rows) * out_rows // rows
    ti_c = np.arange(cols) * out_cols // cols
    tidx = (ti_r[:, None] * out_cols + ti_c[None, :]).ravel()
    vals = a.ravel().astype(np.float64)
    ok = ~np.isnan(vals)
    n = np.bincount(tidx[ok], minlength=out_rows * out_cols)
    s = np.bincount(tidx[ok], weights=vals[ok], minlength=out_rows * out_cols)
    return np.where(n > 0, s, np.nan).reshape(out_rows, out_cols)


def resample_max(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box max (ref:raster/.../resample/MaxResample.scala):
    segments are value-sorted within each target, so max = last element."""
    v, _t, bounds = _aggregate_segments(a, out_cols, out_rows)
    counts = bounds[1:] - bounds[:-1]
    if len(v) == 0:
        return np.full((out_rows, out_cols), np.nan)
    last = np.minimum(np.maximum(bounds[1:] - 1, 0), len(v) - 1)
    return np.where(counts > 0, v[last], np.nan).reshape(out_rows, out_cols)


def resample_min(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    """NoData-aware box min (ref:raster/.../resample/MinResample.scala):
    first element of each value-sorted segment."""
    v, _t, bounds = _aggregate_segments(a, out_cols, out_rows)
    counts = bounds[1:] - bounds[:-1]
    if len(v) == 0:
        return np.full((out_rows, out_cols), np.nan)
    first = np.minimum(bounds[:-1], len(v) - 1)
    return np.where(counts > 0, v[first], np.nan).reshape(out_rows, out_cols)


def _separable_resample(a: np.ndarray, out_cols: int, out_rows: int,
                        kernel, support: int) -> np.ndarray:
    """Separable convolution resample with a ``2*support``-tap kernel
    (offsets -(support-1)..support around the floor cell), edge-clamped.
    Weights renormalize per axis position (windowed kernels don't sum to 1
    exactly); target cells whose support window contains any NoData fall
    back to the bilinear value — the same NoData policy as resample_cubic."""
    rows, cols = a.shape
    fy = _src_frac_coords(out_rows, rows)
    fx = _src_frac_coords(out_cols, cols)
    y0 = np.floor(fy).astype(np.int64)
    x0 = np.floor(fx).astype(np.int64)
    ty = fy - y0
    tx = fx - x0
    offs = np.arange(-(support - 1), support + 1)
    wy = kernel(ty[:, None] - offs[None, :])  # (out_rows, taps)
    wx = kernel(tx[:, None] - offs[None, :])  # (out_cols, taps)
    wy /= wy.sum(axis=1, keepdims=True)
    wx /= wx.sum(axis=1, keepdims=True)
    f = a.astype(np.float64)
    nanmask = np.isnan(f)
    f0 = np.where(nanmask, 0.0, f)
    acc = np.zeros((out_rows, out_cols))
    bad = np.zeros((out_rows, out_cols), dtype=bool)
    for j, oj in enumerate(offs):
        yi = np.clip(y0 + oj, 0, rows - 1)
        rowacc = np.zeros((out_rows, out_cols))
        rowbad = np.zeros((out_rows, out_cols), dtype=bool)
        for i, oi in enumerate(offs):
            xi = np.clip(x0 + oi, 0, cols - 1)
            rowacc += f0[np.ix_(yi, xi)] * wx[:, i][None, :]
            rowbad |= nanmask[np.ix_(yi, xi)]
        acc += rowacc * wy[:, j][:, None]
        bad |= rowbad
    if bad.any():
        acc = np.where(bad, resample_bilinear(a, out_cols, out_rows), acc)
    return acc


def _lanczos_kernel(x: np.ndarray, a: int = 3) -> np.ndarray:
    """Lanczos windowed sinc, a=3 (ref:raster/.../resample/
    LanczosResample.scala, L:unverified — standard public formula)."""
    x = np.abs(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.sinc(x) * np.sinc(x / a)
    return np.where(x < a, w, 0.0)


def _bspline_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic B-spline basis (the public 'cubic spline' resample kernel,
    GDAL cubicspline-style; ref:raster/.../resample/CubicSplineResample.scala,
    L:unverified): smoothing, strictly positive weights."""
    x = np.abs(x)
    return np.where(
        x < 1, (4.0 - 6.0 * x**2 + 3.0 * x**3) / 6.0,
        np.where(x < 2, (2.0 - x) ** 3 / 6.0, 0.0),
    )


def resample_lanczos(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    return _separable_resample(a, out_cols, out_rows, _lanczos_kernel, support=3)


def resample_cubic_spline(a: np.ndarray, out_cols: int, out_rows: int) -> np.ndarray:
    return _separable_resample(a, out_cols, out_rows, _bspline_kernel, support=2)


def _catmullrom_kernel(x: np.ndarray) -> np.ndarray:
    """Catmull-Rom (a=-0.5) cubic-convolution kernel as a callable (the
    same piecewise polynomial as _cubic_weights, point-sample form)."""
    A = -0.5
    x = np.abs(x)
    return np.where(
        x <= 1, (A + 2) * x**3 - (A + 3) * x**2 + 1,
        np.where(x < 2, A * x**3 - 5 * A * x**2 + 8 * A * x - 4 * A, 0.0),
    )


# point-sample kernels: callable + support radius (taps = 2*support around
# the floor cell). bilinear is special-cased (positive weights -> NoData
# renormalization instead of the bilinear fallback).
_POINT_KERNELS = {
    "cubic": (_catmullrom_kernel, 2),
    "cubic-spline": (_bspline_kernel, 2),
    "lanczos": (_lanczos_kernel, 3),
}


def _sample_bilinear_points(f: np.ndarray, fr: np.ndarray, fc: np.ndarray) -> np.ndarray:
    rows, cols = f.shape
    r0 = np.floor(fr).astype(np.int64)
    c0 = np.floor(fc).astype(np.int64)
    tr = fr - r0
    tc = fc - c0
    num = np.zeros(fr.shape)
    den = np.zeros(fr.shape)
    for dr, wrv in ((0, 1.0 - tr), (1, tr)):
        ri = np.clip(r0 + dr, 0, rows - 1)
        for dc, wcv in ((0, 1.0 - tc), (1, tc)):
            ci = np.clip(c0 + dc, 0, cols - 1)
            v = f[ri, ci]
            ok = ~np.isnan(v)
            w = wrv * wcv * ok
            num += np.where(ok, v, 0.0) * w
            den += w
    with np.errstate(invalid="ignore"):
        out = num / den
    return np.where(den > 0, out, np.nan)


def sample_points(a: np.ndarray, fr: np.ndarray, fc: np.ndarray,
                  method: str = "bilinear") -> np.ndarray:
    """Point-sample grid ``a`` at fractional pixel-CENTER coordinates:
    integer coordinate j means the center of row/col j (pixel j spans
    [j-0.5, j+0.5)). The interpolating kernels mirror the grid resamples
    above — bilinear renormalizes over non-NoData corners; the signed
    kernels (cubic / cubic-spline / lanczos, per-point weight-normalized,
    edge-clamped) fall back to the bilinear value when their support
    window touches NoData. Used by the kernel raster reproject
    (stages/reproject.py); ``nearest`` point lookups stay on the
    containing-cell gather there. -> float64 array shaped like fr."""
    f = a.astype(np.float64)
    if method == "bilinear":
        return _sample_bilinear_points(f, fr, fc)
    if method not in _POINT_KERNELS:
        raise ValueError(
            f"unknown point-sample method {method!r}; have "
            f"{['bilinear'] + sorted(_POINT_KERNELS)}")
    kernel, support = _POINT_KERNELS[method]
    rows, cols = f.shape
    r0 = np.floor(fr).astype(np.int64)
    c0 = np.floor(fc).astype(np.int64)
    offs = np.arange(-(support - 1), support + 1)
    wr = kernel((fr - r0)[:, None] - offs[None, :])  # (n, taps)
    wc = kernel((fc - c0)[:, None] - offs[None, :])
    wr /= wr.sum(axis=1, keepdims=True)
    wc /= wc.sum(axis=1, keepdims=True)
    nanmask = np.isnan(f)
    f0 = np.where(nanmask, 0.0, f)
    acc = np.zeros(fr.shape)
    bad = np.zeros(fr.shape, dtype=bool)
    for j, oj in enumerate(offs):
        ri = np.clip(r0 + oj, 0, rows - 1)
        rowacc = np.zeros(fr.shape)
        rowbad = np.zeros(fr.shape, dtype=bool)
        for i, oi in enumerate(offs):
            ci = np.clip(c0 + oi, 0, cols - 1)
            rowacc += f0[ri, ci] * wc[:, i]
            rowbad |= nanmask[ri, ci]
        acc += rowacc * wr[:, j]
        bad |= rowbad
    if bad.any():
        acc = np.where(bad, _sample_bilinear_points(f, fr, fc), acc)
    return acc


RESAMPLE_KERNELS = {
    "nearest": resample_nearest,
    "bilinear": resample_bilinear,
    "cubic": resample_cubic,
    "cubic-spline": resample_cubic_spline,
    "lanczos": resample_lanczos,
    "average": resample_average,
    "median": resample_median,
    "mode": resample_mode,
    "max": resample_max,
    "min": resample_min,
    "sum": resample_sum,
}


def resample(a: np.ndarray, out_cols: int, out_rows: int, method: str = "nearest") -> np.ndarray:
    if method not in RESAMPLE_KERNELS:
        raise ValueError(f"unknown resample method {method!r}; have {sorted(RESAMPLE_KERNELS)}")
    return RESAMPLE_KERNELS[method](a, out_cols, out_rows)


def downsample_average_2x(a: np.ndarray) -> np.ndarray:
    """2x decimating average (NoData-aware) — the pyramid kernel."""
    rows, cols = a.shape
    f = a.astype(np.float64)
    nd = is_nodata(a)
    f = np.where(nd, 0.0, f)
    w = (~nd).astype(np.float64)
    s = f[0::2, 0::2] + f[0::2, 1::2] + f[1::2, 0::2] + f[1::2, 1::2]
    n = w[0::2, 0::2] + w[0::2, 1::2] + w[1::2, 0::2] + w[1::2, 1::2]
    with np.errstate(invalid="ignore"):
        out = s / n
    return np.where(n == 0, np.nan, out)


# --- rasterize --------------------------------------------------------------

def cell_centers(extent: Extent, cols: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    cw = extent.width / cols
    ch = extent.height / rows
    cx = extent.xmin + (np.arange(cols) + 0.5) * cw
    cy = extent.ymax - (np.arange(rows) + 0.5) * ch
    gx, gy = np.meshgrid(cx, cy)
    return gx, gy


def rasterize_mask(geom: dict, extent: Extent, cols: int, rows: int) -> np.ndarray:
    """Boolean (rows, cols) grid: cell center inside geometry. Points/lines
    use grid traversal; polygons use vectorized PIP over centers."""
    t = geom["type"]
    if t in ("Polygon", "MultiPolygon"):
        gx, gy = cell_centers(extent, cols, rows)
        return point_in_polygon_geom(gx.ravel(), gy.ravel(), geom).reshape(rows, cols)
    out = np.zeros((rows, cols), dtype=bool)
    cw = extent.width / cols
    ch = extent.height / rows
    if t == "Point":
        x, y = geom["coords"][:2]
        c = int(np.floor((x - extent.xmin) / cw))
        r = int(np.floor((extent.ymax - y) / ch))
        if 0 <= c < cols and 0 <= r < rows:
            out[r, c] = True
        return out
    if t == "LineString":
        pts = geom["coords"]
        for i in range(len(pts) - 1):
            _dda_line(out, pts[i], pts[i + 1], extent, cw, ch)
        return out
    if t.startswith("Multi"):
        for part in geom["parts"]:
            out |= rasterize_mask(part, extent, cols, rows)
        return out
    raise ValueError(t)


def _dda_line(out: np.ndarray, p0, p1, extent: Extent, cw: float, ch: float) -> None:
    """Conservative grid traversal of a segment (marks every cell the segment
    passes through), sampled at sub-cell resolution."""
    rows, cols = out.shape
    x0, y0 = p0
    x1, y1 = p1
    n = max(int(np.hypot((x1 - x0) / cw, (y1 - y0) / ch) * 4), 1) + 1
    ts = np.linspace(0.0, 1.0, n)
    xs = x0 + ts * (x1 - x0)
    ys = y0 + ts * (y1 - y0)
    cs = np.floor((xs - extent.xmin) / cw).astype(np.int64)
    rs = np.floor((extent.ymax - ys) / ch).astype(np.int64)
    ok = (cs >= 0) & (cs < cols) & (rs >= 0) & (rs < rows)
    out[rs[ok], cs[ok]] = True


def rasterize_value(
    geoms: list[tuple[dict, int, float]], extent: Extent, cols: int, rows: int,
    return_zbuf: bool = False,
):
    """Burn (geom, zindex, value) triples into one float64 grid. Priority:
    higher zindex wins; tie -> larger value wins (OUR spec). Unpainted = NaN.
    ``return_zbuf=True`` also returns the per-cell winning zindex plane
    (-inf where unpainted) so salted partial paints can merge associatively
    by per-cell (z, value) lexicographic max."""
    out = np.full((rows, cols), np.nan)
    z = np.full((rows, cols), -np.inf)
    for geom, zindex, value in geoms:
        m = rasterize_mask(geom, extent, cols, rows)
        better = m & ((zindex > z) | ((zindex == z) & (value > np.where(np.isnan(out), -np.inf, out))))
        out = np.where(better, value, out)
        z = np.where(better, zindex, z)
    if return_zbuf:
        return out, z
    return out


def zmerge(a: np.ndarray, za: np.ndarray, b: np.ndarray, zb: np.ndarray):
    """Associative merge of two z-buffered paints: per cell, the higher
    zindex wins; tie -> larger value (same rule as rasterize_value, so
    paint(all) == zmerge(paint(shard1), paint(shard2)) for any split)."""
    av = np.where(np.isnan(a), -np.inf, a)
    bv = np.where(np.isnan(b), -np.inf, b)
    take_b = (zb > za) | ((zb == za) & (bv > av))
    return np.where(take_b, b, a), np.where(take_b, zb, za)
