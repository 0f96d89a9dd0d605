"""Point-surface raster operators: kernel density, IDW interpolation and
Euclidean distance — the geotrellis.raster.density / .interpolation /
.distance module family re-expressed Ray-Data-first
(ref:raster/src/main/scala/geotrellis/raster/density/KernelDensity.scala,
ref:raster/.../interpolation/InverseDistanceWeighted.scala,
ref:raster/.../distance/EuclideanDistanceTile.scala — L:unverified,
/root/reference empty at survey time).

Scale shapes:
- kernel_density: points explode (map_batches, no shuffle) to one slim row
  per TOUCHED TILE (a kernel window crossing a tile edge contributes to <= 4
  tiles), then groupby(key).map_groups paints — identical partitioning to
  RasterizeRDD, so salt-and-split applies unchanged to hot cells.
- idw / euclidean_distance: the SAMPLE side is small (the classic use: a
  few thousand gauges/stations interpolated onto a raster), so it is
  broadcast ONCE via ray.put and each tile of the target key grid is
  computed independently in an actor-pool map_batches over a dataset of
  keys — no shuffle at all; output is tile-partitioned and write-ready.
  For sample sets too big to broadcast, pre-bucket samples by tile
  neighborhood (the knn cell-pruned pattern) — documented, not needed here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.layout import LayoutDefinition
from ..core.raster import cell_centers, encode_tile
from ..core.sfc import zorder
from ..state.pool import actor_pool_size
from ._arrow_groups import one_tile
from .agg import each_group, group_map


def _kernel_weights(kernel: str, radius: int) -> np.ndarray:
    """(2r+1, 2r+1) stamp. circle: uniform disk; triangle: linear falloff
    cone; gaussian: exp(-d^2 / (2 (r/3)^2)) clipped to the disk; square:
    uniform box (integer-friendly, exact float sums)."""
    r = int(radius)
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    d = np.sqrt((dx * dx + dy * dy).astype(np.float64))
    if kernel == "square":
        return np.ones((2 * r + 1, 2 * r + 1))
    if kernel == "circle":
        return (d <= r).astype(np.float64)
    if kernel == "triangle":
        return np.maximum(0.0, 1.0 - d / max(r, 1))
    if kernel == "gaussian":
        sigma = max(r, 1) / 3.0
        w = np.exp(-(d * d) / (2 * sigma * sigma))
        w[d > r] = 0.0
        return w
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_density(ds, layout: LayoutDefinition, radius: int = 8,
                   kernel: str = "circle", x_col: str = "x", y_col: str = "y",
                   weight_col: str | None = None):
    """KernelDensity: every point stamps `kernel` (cell units, radius r)
    centred on its cell; overlapping stamps sum. Returns a standard tile
    layer (key_col, key_row, sfc, cells, cols, rows, cell_type).

    Explode emits (key, cell-grid coords, weight) per touched tile only —
    4 rows/point worst case, 1 typical — so the shuffle carries ~28 B/row."""
    tl = layout.tile_layout
    tc, tr = tl.tile_cols, tl.tile_rows
    kern = _kernel_weights(kernel, radius)
    ext = layout.extent
    cw, ch = layout.cell_width, layout.cell_height

    def explode(b: pa.Table) -> pa.Table:
        xs = b[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ys = b[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = (b[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
             if weight_col else np.ones(len(xs)))
        # global integer cell coords (row 0 = north, matching xy_to_key)
        gcx = np.floor((xs - ext.xmin) / cw).astype(np.int64)
        gcy = np.floor((ext.ymax - ys) / ch).astype(np.int64)
        parts = {"key_col": [], "key_row": [], "gcx": [], "gcy": [], "w": []}
        # tiles touched by the stamp window [gc-r, gc+r]
        kc0 = (gcx - radius) // tc
        kc1 = (gcx + radius) // tc
        kr0 = (gcy - radius) // tr
        kr1 = (gcy + radius) // tr
        for dc in (0, 1):
            for dr in (0, 1):
                kc = np.where(dc == 0, kc0, kc1)
                kr = np.where(dr == 0, kr0, kr1)
                # dedupe: emit only the first (dc,dr) naming each tile
                keep = np.ones(len(xs), dtype=bool)
                if dc == 1:
                    keep &= kc1 != kc0
                if dr == 1:
                    keep &= kr1 != kr0
                keep &= (kc >= 0) & (kr >= 0) & (kc < tl.layout_cols) & (kr < tl.layout_rows)
                parts["key_col"].append(kc[keep].astype(np.int32))
                parts["key_row"].append(kr[keep].astype(np.int32))
                parts["gcx"].append(gcx[keep])
                parts["gcy"].append(gcy[keep])
                parts["w"].append(w[keep])
        return pa.table({
            "key_col": pa.array(np.concatenate(parts["key_col"]), pa.int32()),
            "key_row": pa.array(np.concatenate(parts["key_row"]), pa.int32()),
            "gcx": pa.array(np.concatenate(parts["gcx"]), pa.int64()),
            "gcy": pa.array(np.concatenate(parts["gcy"]), pa.int64()),
            "w": pa.array(np.concatenate(parts["w"]), pa.float64()),
        })

    def paint(g: pa.Table) -> pa.Table:
        kc = g["key_col"][0].as_py()
        kr = g["key_row"][0].as_py()
        tile = np.zeros((tr, tc))
        x0, y0 = kc * tc, kr * tr  # tile origin in global cell coords
        for gx, gy, w in zip(g["gcx"].to_numpy(), g["gcy"].to_numpy(),
                             g["w"].to_numpy()):
            cx, cy = int(gx - x0), int(gy - y0)  # stamp centre, tile-local
            r0, r1 = cy - radius, cy + radius + 1
            c0, c1 = cx - radius, cx + radius + 1
            kr0, kc0 = max(0, -r0), max(0, -c0)
            tr0, tc0 = max(0, r0), max(0, c0)
            tr1, tc1 = min(tr, r1), min(tc, c1)
            if tr1 <= tr0 or tc1 <= tc0:
                continue
            tile[tr0:tr1, tc0:tc1] += w * kern[kr0:kr0 + (tr1 - tr0),
                                               kc0:kc0 + (tc1 - tc0)]
        return one_tile(kc, kr, *encode_tile(tile))

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    keys = ["key_col", "key_row"]
    # (gcy, gcx): a deterministic stamp order regardless of shuffle arrival
    return group_map(exploded, keys, each_group(keys, paint), order=["gcy", "gcx"])


def _keys_dataset(layout: LayoutDefinition, key_bounds):
    """Dataset of (key_col, key_row) covering key_bounds (inclusive)."""
    import ray.data as rd

    c0, r0, c1, r1 = key_bounds
    cols, rows = np.meshgrid(np.arange(c0, c1 + 1), np.arange(r0, r1 + 1))
    t = pa.table({"key_col": pa.array(cols.ravel().astype(np.int32), pa.int32()),
                  "key_row": pa.array(rows.ravel().astype(np.int32), pa.int32())})
    n_tiles = t.num_rows
    return rd.from_arrow(t).repartition(max(1, min(n_tiles, 64)))


class _SampleSurface:
    """Actor-pool base: broadcast sample arrays fetched ONCE per actor in
    __init__ (ray.get of the ray.put ref), tiles computed per batch."""

    def __init__(self, samples_ref, layout: LayoutDefinition):
        import ray

        xs, ys, vals = ray.get(samples_ref)
        self.xs, self.ys, self.vals = xs, ys, vals
        self.layout = layout

    def tile_values(self, extent) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        lay = self.layout
        tc, trr = lay.tile_layout.tile_cols, lay.tile_layout.tile_rows
        kcs = batch["key_col"].to_numpy(zero_copy_only=False)
        krs = batch["key_row"].to_numpy(zero_copy_only=False)
        out = {"key_col": [], "key_row": [], "sfc": [], "cells": [],
               "cols": [], "rows": [], "cell_type": []}
        for kc, kr in zip(kcs, krs):
            tile = self.tile_values(lay.key_to_extent(int(kc), int(kr)))
            cells, cols_, rows_, ct = encode_tile(tile)
            out["key_col"].append(int(kc))
            out["key_row"].append(int(kr))
            out["sfc"].append(int(zorder(int(kc), int(kr))))
            out["cells"].append(cells)
            out["cols"].append(cols_)
            out["rows"].append(rows_)
            out["cell_type"].append(ct)
        return pa.table({
            "key_col": pa.array(out["key_col"], pa.int32()),
            "key_row": pa.array(out["key_row"], pa.int32()),
            "sfc": pa.array(out["sfc"], pa.uint64()),
            "cells": pa.array(out["cells"], pa.binary()),
            "cols": pa.array(out["cols"], pa.int32()),
            "rows": pa.array(out["rows"], pa.int32()),
            "cell_type": pa.array(out["cell_type"], pa.string()),
        })


class _IdwSurface(_SampleSurface):
    def __init__(self, samples_ref, layout, power: float = 2.0,
                 radius: float | None = None):
        super().__init__(samples_ref, layout)
        self.power = power
        self.radius = radius

    def tile_values(self, extent) -> np.ndarray:
        tc = self.layout.tile_layout.tile_cols
        trr = self.layout.tile_layout.tile_rows
        gx, gy = cell_centers(extent, tc, trr)
        px = gx.ravel()[:, None] - self.xs[None, :]
        py = gy.ravel()[:, None] - self.ys[None, :]
        d2 = px * px + py * py
        if self.radius is not None:
            d2 = np.where(d2 > self.radius * self.radius, np.inf, d2)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.power == 2.0:
                # the default case: one reciprocal, not a pow — ~10x less
                # per-cell work AND reproducible (np.power(x, 1.0) is NOT
                # the identity: ~1% last-ulp deviations, measured), which
                # is what lets the q_idw_grid SQL oracle replay the surface
                w = 1.0 / d2
            else:
                w = 1.0 / np.power(d2, self.power / 2.0)
            wsum = w.sum(axis=1)
            vals = (w * self.vals[None, :]).sum(axis=1) / wsum
        # exact/near hits (or an inf weight overflowing the sum): nearest
        # sample's value wins — the reference's exact-hit convention
        near = (d2 < 1e-18).any(axis=1) | np.isinf(wsum)
        if near.any():
            nearest = np.argmin(d2, axis=1)
            vals[near] = self.vals[nearest[near]]
        vals[wsum == 0.0] = np.nan  # radius excluded every sample
        return vals.reshape(trr, tc)


class _DistanceSurface(_SampleSurface):
    def tile_values(self, extent) -> np.ndarray:
        tc = self.layout.tile_layout.tile_cols
        trr = self.layout.tile_layout.tile_rows
        gx, gy = cell_centers(extent, tc, trr)
        px = gx.ravel()[:, None] - self.xs[None, :]
        py = gy.ravel()[:, None] - self.ys[None, :]
        d2 = px * px + py * py
        return np.sqrt(d2.min(axis=1)).reshape(trr, tc)


def _put_samples(points: "pa.Table | pd.DataFrame", x_col, y_col, value_col):
    import ray

    if isinstance(points, pd.DataFrame):
        xs = points[x_col].to_numpy(dtype=np.float64)
        ys = points[y_col].to_numpy(dtype=np.float64)
        vs = (points[value_col].to_numpy(dtype=np.float64)
              if value_col else np.zeros(len(xs)))
    else:
        xs = points[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ys = points[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        vs = (points[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
              if value_col else np.zeros(len(xs)))
    return ray.put((xs, ys, vs))


def idw_interpolation(points, layout: LayoutDefinition, key_bounds,
                      power: float = 2.0, radius: float | None = None,
                      x_col: str = "x", y_col: str = "y",
                      value_col: str = "value"):
    """InverseDistanceWeighted over the key_bounds tile grid: value(cell) =
    sum(v_i / d_i^p) / sum(1 / d_i^p); exact sample hit -> sample value;
    `radius` limits contributing samples (cells with none -> NoData)."""
    ref = _put_samples(points, x_col, y_col, value_col)
    keys = _keys_dataset(layout, key_bounds)
    return keys.map_batches(
        _IdwSurface, fn_constructor_args=(ref, layout, power, radius),
        batch_format="pyarrow", concurrency=actor_pool_size(), batch_size=16)


def euclidean_distance(points, layout: LayoutDefinition, key_bounds,
                       x_col: str = "x", y_col: str = "y"):
    """EuclideanDistanceTile: per-cell distance to the nearest sample point
    (direct vectorized min over the broadcast sample set; the reference uses
    a Delaunay dual — same values, different algorithm)."""
    ref = _put_samples(points, x_col, y_col, None)
    keys = _keys_dataset(layout, key_bounds)
    return keys.map_batches(
        _DistanceSurface, fn_constructor_args=(ref, layout),
        batch_format="pyarrow", concurrency=actor_pool_size(), batch_size=16)


# --- Ordinary Kriging (round 3) ---------------------------------------------

def variogram_model(kind: str):
    """Semivariogram gamma(h) = nugget + psill * g(h/range): the three
    classical models (Snyder-free; standard geostatistics forms, with the
    'practical range' convention for exponential/gaussian). gamma(0) = 0 by
    definition (the nugget is a discontinuity at h -> 0+)."""
    def spherical(h, c0, c1, a):
        hr = np.minimum(h / a, 1.0)
        g = c0 + c1 * (1.5 * hr - 0.5 * hr**3)
        return np.where(h > 0, g, 0.0)

    def exponential(h, c0, c1, a):
        return np.where(h > 0, c0 + c1 * (1.0 - np.exp(-3.0 * h / a)), 0.0)

    def gaussian(h, c0, c1, a):
        return np.where(h > 0, c0 + c1 * (1.0 - np.exp(-3.0 * (h / a) ** 2)), 0.0)

    # round-3 breadth (GeoTrellis ships Circular/Linear too,
    # ref:vector/.../interpolation/Semivariogram.scala, L:unverified):
    def circular(h, c0, c1, a):
        hr = np.minimum(h / a, 1.0)
        g = c0 + c1 * (1.0 - 2.0 / np.pi
                       * (np.arccos(hr) - hr * np.sqrt(1.0 - hr * hr)))
        return np.where(h > 0, g, 0.0)

    def linear(h, c0, c1, a):
        # bounded-linear: rises to the sill at the range, flat beyond
        return np.where(h > 0, c0 + c1 * np.minimum(h / a, 1.0), 0.0)

    def power(h, c0, c1, a):
        # unbounded: gamma = c0 + c1 * h^p with p = clip(a, 0..2) — here
        # the "range" slot carries the exponent (standard power-model
        # parameterization; it has no sill)
        p = np.clip(a, 0.1, 1.99)
        return np.where(h > 0, c0 + c1 * np.power(h, p), 0.0)

    try:
        return {"spherical": spherical, "exponential": exponential,
                "gaussian": gaussian, "circular": circular,
                "linear": linear, "power": power}[kind]
    except KeyError:
        raise ValueError(f"unknown variogram model {kind!r}") from None


def empirical_variogram(xs, ys, vals, n_bins: int = 12,
                        max_dist: float | None = None):
    """-> (bin centers h, semivariances gamma, pair counts). All-pairs over
    the SAMPLE SET (small by the same broadcast contract as IDW), vectorized."""
    xs, ys, vals = (np.asarray(a, dtype=np.float64) for a in (xs, ys, vals))
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    iu = np.triu_indices(len(xs), k=1)
    d = np.hypot(dx, dy)[iu]
    sv = 0.5 * (vals[:, None] - vals[None, :])[iu] ** 2
    if max_dist is None:
        max_dist = float(d.max()) * 0.67  # long-lag pairs are few and noisy
    keep = (d > 0) & (d <= max_dist)
    d, sv = d[keep], sv[keep]
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    which = np.clip(np.digitize(d, edges) - 1, 0, n_bins - 1)
    cnt = np.bincount(which, minlength=n_bins)
    gam = np.bincount(which, weights=sv, minlength=n_bins)
    hmid = 0.5 * (edges[:-1] + edges[1:])
    ok = cnt > 0
    return hmid[ok], gam[ok] / cnt[ok], cnt[ok]


def fit_variogram(points, x_col: str = "x", y_col: str = "y",
                  value_col: str = "value", model: str = "spherical",
                  n_bins: int = 12) -> tuple[float, float, float]:
    """-> (nugget, psill, range). The model is LINEAR in (nugget, psill)
    given the range, so fit = 1-D grid search over range + nonneg 2-param
    least squares per candidate (no scipy). Driver-side on the sample set."""
    if isinstance(points, pd.DataFrame):
        xs, ys, vals = (points[c].to_numpy(dtype=np.float64)
                        for c in (x_col, y_col, value_col))
    else:
        xs, ys, vals = (points[c].to_numpy(zero_copy_only=False).astype(np.float64)
                        for c in (x_col, y_col, value_col))
    h, gam, cnt = empirical_variogram(xs, ys, vals, n_bins)
    fn = variogram_model(model)
    best = None
    # the grid-searched third parameter is the RANGE for bounded models and
    # the EXPONENT for the power model (which has no sill)
    cands = (np.linspace(0.3, 1.9, 48) if model == "power"
             else np.linspace(h[0], h[-1] * 2.0, 48))
    for a in cands:
        g1 = fn(h, 0.0, 1.0, a)  # unit-psill curve (nugget column is 1s)
        A = np.stack([np.ones_like(h), g1], axis=1)
        w = np.sqrt(cnt.astype(np.float64))
        coef, *_ = np.linalg.lstsq(A * w[:, None], gam * w, rcond=None)
        c0, c1 = coef
        if c0 < 0:  # clamp and refit psill alone
            c0 = 0.0
            c1 = float((g1 * gam * cnt).sum() / ((g1 * g1 * cnt).sum() or 1.0))
        c1 = max(c1, 1e-12)
        sse = float((cnt * (gam - (c0 + c1 * g1)) ** 2).sum())
        if best is None or sse < best[0]:
            best = (sse, float(c0), float(c1), float(a))
    return best[1], best[2], best[3]


class _KrigingSurface(_SampleSurface):
    """Ordinary Kriging (ref:vector/src/main/scala/geotrellis/vector/
    interpolation/Kriging.scala family, L:unverified — reference empty at
    survey time; re-derived from the standard OK equations): weights solve
    [Gamma 1; 1' 0] [w; mu] = [gamma(d_i); 1]. The (k+1)^2 system matrix is
    factored ONCE per actor in __init__; each tile is one (cells x k+1)
    matmul — no per-cell solves."""

    def __init__(self, samples_ref, layout, model: str, params: tuple):
        super().__init__(samples_ref, layout)
        self.gamma = variogram_model(model)
        self.params = params
        k = len(self.xs)
        d = np.hypot(self.xs[:, None] - self.xs[None, :],
                     self.ys[:, None] - self.ys[None, :])
        K = np.empty((k + 1, k + 1))
        K[:k, :k] = self.gamma(d, *params)
        K[k, :] = 1.0
        K[:, k] = 1.0
        K[k, k] = 0.0
        # tiny jitter keeps the factorization stable for colocated samples
        self.Kinv = np.linalg.inv(K + np.eye(k + 1) * 1e-12)

    def tile_values(self, extent) -> np.ndarray:
        tc = self.layout.tile_layout.tile_cols
        tr = self.layout.tile_layout.tile_rows
        gx, gy = cell_centers(extent, tc, tr)
        d = np.hypot(gx.ravel()[:, None] - self.xs[None, :],
                     gy.ravel()[:, None] - self.ys[None, :])
        B = np.empty((d.shape[0], len(self.xs) + 1))
        B[:, :-1] = self.gamma(d, *self.params)
        B[:, -1] = 1.0
        W = B @ self.Kinv  # (cells, k+1); last column is the multiplier mu
        return (W[:, :-1] @ self.vals).reshape(tr, tc)


def ordinary_kriging(points, layout: LayoutDefinition, key_bounds,
                     model: str = "spherical",
                     params: tuple[float, float, float] | None = None,
                     x_col: str = "x", y_col: str = "y",
                     value_col: str = "value"):
    """Ordinary Kriging surface over the key_bounds tile grid; ``params`` =
    (nugget, psill, range), fitted from the samples via ``fit_variogram``
    when omitted. Same broadcast-samples actor-pool shape as IDW: the
    normal-equation inverse is built once per actor, tiles stream through."""
    if params is None:
        params = fit_variogram(points, x_col, y_col, value_col, model)
    ref = _put_samples(points, x_col, y_col, value_col)
    keys = _keys_dataset(layout, key_bounds)
    return keys.map_batches(
        _KrigingSurface, fn_constructor_args=(ref, layout, model, params),
        batch_format="pyarrow", concurrency=actor_pool_size(), batch_size=16)


def _drift_basis(xs: np.ndarray, ys: np.ndarray, drift: str,
                 cx: float, cy: float, scale: float) -> np.ndarray:
    """(n, p) drift-basis matrix at normalized coords — constant / linear /
    quadratic monomials. Coords center+scale so the quadratic system stays
    well-conditioned; predictions are invariant to the normalization."""
    u = (np.asarray(xs, dtype=np.float64) - cx) / scale
    v = (np.asarray(ys, dtype=np.float64) - cy) / scale
    one = np.ones_like(u)
    if drift == "constant":
        cols = [one]
    elif drift == "linear":
        cols = [one, u, v]
    elif drift == "quadratic":
        cols = [one, u, v, u * u, u * v, v * v]
    else:
        raise ValueError(f"unknown drift {drift!r} (constant|linear|quadratic)")
    return np.column_stack(cols)


class _UniversalKrigingSurface(_SampleSurface):
    """Universal Kriging (GeoTrellis UniversalKriging family — drift-term
    extension of _KrigingSurface, re-derived from the standard UK normal
    equations): weights solve [Gamma F; F' 0] [w; lam] = [gamma(d); f(x0)]
    with F the drift basis at samples. Ordinary Kriging is the p=1
    (constant-drift) special case. The (k+p)^2 system is factored ONCE per
    actor; each tile is one (cells x (k+p)) matmul."""

    def __init__(self, samples_ref, layout, model: str, params: tuple,
                 drift: str = "linear"):
        super().__init__(samples_ref, layout)
        self.gamma = variogram_model(model)
        self.params = params
        self.drift = drift
        ext = layout.extent
        self.cx = (ext.xmin + ext.xmax) / 2.0
        self.cy = (ext.ymin + ext.ymax) / 2.0
        self.scale = max(ext.xmax - ext.xmin, ext.ymax - ext.ymin, 1e-300)
        k = len(self.xs)
        F = _drift_basis(self.xs, self.ys, drift, self.cx, self.cy, self.scale)
        p = F.shape[1]
        d = np.hypot(self.xs[:, None] - self.xs[None, :],
                     self.ys[:, None] - self.ys[None, :])
        K = np.zeros((k + p, k + p))
        K[:k, :k] = self.gamma(d, *params)
        K[:k, k:] = F
        K[k:, :k] = F.T
        self.k = k
        self.Kinv = np.linalg.inv(K + np.eye(k + p) * 1e-12)

    def tile_values(self, extent) -> np.ndarray:
        tc = self.layout.tile_layout.tile_cols
        tr = self.layout.tile_layout.tile_rows
        gx, gy = cell_centers(extent, tc, tr)
        d = np.hypot(gx.ravel()[:, None] - self.xs[None, :],
                     gy.ravel()[:, None] - self.ys[None, :])
        Fp = _drift_basis(gx.ravel(), gy.ravel(), self.drift,
                          self.cx, self.cy, self.scale)
        B = np.empty((d.shape[0], self.Kinv.shape[0]))
        B[:, :self.k] = self.gamma(d, *self.params)
        B[:, self.k:] = Fp
        W = B @ self.Kinv
        return (W[:, :self.k] @ self.vals).reshape(tr, tc)


def universal_kriging(points, layout: LayoutDefinition, key_bounds,
                      model: str = "spherical", drift: str = "linear",
                      params: tuple[float, float, float] | None = None,
                      x_col: str = "x", y_col: str = "y",
                      value_col: str = "value"):
    """Universal Kriging surface (round 4, VERDICT r03 optional #9): ordinary
    kriging plus a polynomial trend/drift — exactly reproduces fields with a
    global linear/quadratic trend that OK flattens toward the sample mean.
    Same broadcast + per-actor factorization scale shape as
    ordinary_kriging."""
    if params is None:
        params = fit_variogram(points, x_col, y_col, value_col, model)
    ref = _put_samples(points, x_col, y_col, value_col)
    keys = _keys_dataset(layout, key_bounds)
    return keys.map_batches(
        _UniversalKrigingSurface,
        fn_constructor_args=(ref, layout, model, params, drift),
        batch_format="pyarrow", concurrency=actor_pool_size(), batch_size=16)


# --- Delaunay TIN surface (round 3) ------------------------------------------

class _TinSurface(_SampleSurface):
    """Delaunay TIN (core/delaunay.py) built ONCE per actor from the
    broadcast sample set; each tile interpolates its cell centers through
    the grid-indexed barycentric query. NaN outside the convex hull."""

    def __init__(self, samples_ref, layout):
        super().__init__(samples_ref, layout)
        from ..core.delaunay import TIN

        self.tin = TIN(self.xs, self.ys, self.vals)

    def tile_values(self, extent) -> np.ndarray:
        tc = self.layout.tile_layout.tile_cols
        tr = self.layout.tile_layout.tile_rows
        gx, gy = cell_centers(extent, tc, tr)
        return self.tin.interpolate(gx.ravel(), gy.ravel()).reshape(tr, tc)


def tin_interpolation(points, layout: LayoutDefinition, key_bounds,
                      x_col: str = "x", y_col: str = "y",
                      value_col: str = "value"):
    """DelaunayRasterizer equivalent: triangulate the samples, rasterize the
    linear TIN surface over the key_bounds tile grid. Same broadcast-samples
    actor-pool shape as IDW/Kriging."""
    ref = _put_samples(points, x_col, y_col, value_col)
    keys = _keys_dataset(layout, key_bounds)
    return keys.map_batches(
        _TinSurface, fn_constructor_args=(ref, layout),
        batch_format="pyarrow", concurrency=actor_pool_size(), batch_size=16)
