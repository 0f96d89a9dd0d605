"""Kernel density / IDW / Euclidean distance / region group oracles:
brute-force whole-grid recomputation and BFS labeling."""

from collections import Counter, deque

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
from geotrellis_ray.core.raster import decode_tile, encode_tile
from geotrellis_ray.core.sfc import zorder
from geotrellis_ray.stages.interpolation import (
    _kernel_weights,
    euclidean_distance,
    idw_interpolation,
    kernel_density,
)
from geotrellis_ray.stages.regiongroup import label_tile, region_group, region_sizes

LAYOUT = LayoutDefinition(Extent(0, 0, 64, 64), TileLayout(4, 4, 16, 16))


def _stitch(df: pd.DataFrame, cell_type=None) -> np.ndarray:
    out = np.full((64, 64), np.nan)
    if cell_type == "int64":
        out = np.full((64, 64), -1, dtype=np.int64)
    for _, row in df.iterrows():
        t = decode_tile(row["cells"], row["cols"], row["rows"],
                        cell_type or row["cell_type"])
        out[row["key_row"] * 16:(row["key_row"] + 1) * 16,
            row["key_col"] * 16:(row["key_col"] + 1) * 16] = t
    return out


@pytest.mark.parametrize("kernel", ["circle", "gaussian", "triangle", "square"])
def test_kernel_density_matches_brute(ray_session, kernel):
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 150
    xs = rng.uniform(0, 64, n)
    ys = rng.uniform(0, 64, n)
    w = rng.integers(1, 5, n).astype(float)
    pts = rd.from_arrow(pa.table({"x": xs, "y": ys, "w": w}))
    kd = kernel_density(pts, LAYOUT, radius=3, kernel=kernel,
                        weight_col="w").to_pandas()
    kern = _kernel_weights(kernel, 3)
    G = np.zeros((64, 64))
    gcx = np.floor(xs).astype(int)
    gcy = np.floor(64 - ys).astype(int)
    for x, y, wt in zip(gcx, gcy, w):
        for dy in range(-3, 4):
            for dx in range(-3, 4):
                r_, c_ = y + dy, x + dx
                if 0 <= r_ < 64 and 0 <= c_ < 64:
                    G[r_, c_] += wt * kern[dy + 3, dx + 3]
    got = _stitch(kd)
    got[np.isnan(got)] = 0.0  # untouched tiles are absent from the layer
    assert np.allclose(got, G)


def test_idw_cell_values_and_exact_hit(ray_session):
    rng = np.random.default_rng(5)
    samples = pd.DataFrame({
        "x": np.r_[rng.uniform(0, 64, 25), [8.5]],
        "y": np.r_[rng.uniform(0, 64, 25), [63.5]],
        "value": np.r_[rng.normal(10, 3, 25), [123.0]],
    })
    out = idw_interpolation(samples, LAYOUT, (0, 0, 3, 3), power=2.0).to_pandas()
    assert len(out) == 16
    got = _stitch(out)
    # brute-force a few random cells
    for r, c in [(0, 0), (17, 33), (63, 63), (40, 9)]:
        cx, cy = c + 0.5, 64 - r - 0.5
        d2 = (samples["x"] - cx) ** 2 + (samples["y"] - cy) ** 2
        if (d2 < 1e-18).any():
            continue
        w = 1.0 / d2
        assert np.isclose(got[r, c], (w * samples["value"]).sum() / w.sum())
    # exact hit: cell centre (8.5, 63.5) == sample -> sample value
    assert got[0, 8] == 123.0


def test_idw_radius_nodata(ray_session):
    samples = pd.DataFrame({"x": [1.0], "y": [63.0], "value": [5.0]})
    out = idw_interpolation(samples, LAYOUT, (0, 0, 3, 3), power=2.0,
                            radius=4.0).to_pandas()
    got = _stitch(out)
    assert np.isnan(got[40, 40])  # far from the lone sample
    assert np.isfinite(got[1, 1])


def test_euclidean_distance_matches_brute(ray_session):
    rng = np.random.default_rng(11)
    samples = pd.DataFrame({"x": rng.uniform(0, 64, 40),
                            "y": rng.uniform(0, 64, 40)})
    out = euclidean_distance(samples, LAYOUT, (0, 0, 3, 3)).to_pandas()
    got = _stitch(out)
    for r, c in [(0, 0), (31, 5), (63, 63), (12, 50)]:
        cx, cy = c + 0.5, 64 - r - 0.5
        exp = np.sqrt(((samples["x"] - cx) ** 2 + (samples["y"] - cy) ** 2).min())
        assert np.isclose(got[r, c], exp)


def _bfs_labels(a: np.ndarray) -> np.ndarray:
    rows, cols = a.shape
    seen = np.full(a.shape, -1, dtype=np.int64)
    nxt = 0
    for r in range(rows):
        for c in range(cols):
            if np.isnan(a[r, c]) or seen[r, c] >= 0:
                continue
            q = deque([(r, c)])
            seen[r, c] = nxt
            while q:
                y, x = q.popleft()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx_ = y + dy, x + dx
                    if (0 <= ny < rows and 0 <= nx_ < cols
                            and seen[ny, nx_] < 0 and a[ny, nx_] == a[y, x]):
                        seen[ny, nx_] = nxt
                        q.append((ny, nx_))
            nxt += 1
    return seen


def _partition_bijection(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> bool:
    pairs = set(zip(a[mask].tolist(), b[mask].tolist()))
    return (len(pairs) == len({p[0] for p in pairs})
            == len({p[1] for p in pairs}))


def test_label_tile_random_vs_bfs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 3, (24, 24)).astype(np.float64)
        a[rng.random((24, 24)) < 0.2] = np.nan
        labs = label_tile(a)
        oracle = _bfs_labels(a)
        m = ~np.isnan(a)
        assert _partition_bijection(labs, oracle, m)
        assert (labs[~m] == -1).all()


def test_label_tile_snake():
    # serpentine single region — worst case for naive propagation
    a = np.zeros((16, 16))
    a[1::2, :] = 1.0
    for r in range(1, 16, 4):
        a[r, -1] = 0.0
    for r in range(3, 16, 4):
        a[r, 0] = 0.0
    labs = label_tile(a)
    oracle = _bfs_labels(a)
    assert _partition_bijection(labs, oracle, np.ones_like(a, dtype=bool))


def test_region_group_distributed_vs_whole_array(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    big = rng.integers(0, 2, (64, 64)).astype(np.float64)
    big[rng.random((64, 64)) < 0.1] = np.nan
    rows = []
    for kr in range(4):
        for kc in range(4):
            t = big[kr * 16:(kr + 1) * 16, kc * 16:(kc + 1) * 16]
            cells, cols_, rows_, ct = encode_tile(t)
            rows.append({"key_col": kc, "key_row": kr, "sfc": int(zorder(kc, kr)),
                         "cells": cells, "cols": cols_, "rows": rows_,
                         "cell_type": ct})
    ds = rd.from_items(rows).map_batches(lambda b: b, batch_format="pyarrow")
    out = region_group(ds, LAYOUT).to_pandas()
    got = _stitch(out, cell_type="int64")
    oracle = _bfs_labels(big)
    m = ~np.isnan(big)
    assert _partition_bijection(got, oracle, m)
    assert (got[~m] == -1).all()

    sizes = region_sizes(region_group(ds, LAYOUT)).to_pandas()
    oc = Counter(oracle[m].tolist())
    assert sorted(sizes["n_cells"].tolist()) == sorted(oc.values())


def test_kriging_brute_cell_oracle(ray_session):
    """Actor-pool OK surface == an independent per-cell linear solve (the
    textbook system, np.linalg.solve per cell, no shared factorization)."""
    from geotrellis_ray.stages.interpolation import ordinary_kriging, variogram_model

    rng = np.random.default_rng(7)
    k = 18
    samples = pd.DataFrame({"x": rng.uniform(2, 62, k), "y": rng.uniform(2, 62, k),
                            "value": rng.normal(20, 5, k)})
    params = (0.5, 12.0, 30.0)
    out = ordinary_kriging(samples, LAYOUT, (0, 0, 3, 3), "spherical", params).to_pandas()
    assert len(out) == 16
    got = _stitch(out)
    gam = variogram_model("spherical")
    xs, ys, vals = (samples[c].to_numpy() for c in ("x", "y", "value"))
    d = np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])
    K = np.empty((k + 1, k + 1))
    K[:k, :k] = gam(d, *params)
    K[k, :] = 1.0
    K[:, k] = 1.0
    K[k, k] = 0.0
    for r, c in [(0, 0), (17, 33), (63, 63), (40, 9), (5, 60)]:
        cx, cy = c + 0.5, 64 - r - 0.5
        b = np.r_[gam(np.hypot(xs - cx, ys - cy), *params), 1.0]
        w = np.linalg.solve(K, b)
        assert np.isclose(got[r, c], w[:k] @ vals, rtol=1e-8), (r, c)


def test_kriging_exact_at_samples_and_unbiased(ray_session):
    """nugget=0 -> OK interpolates exactly at sample locations; a constant
    field is reproduced EXACTLY everywhere (weights sum to 1)."""
    from geotrellis_ray.stages.interpolation import ordinary_kriging

    samples = pd.DataFrame({
        "x": [8.5, 40.5, 20.5, 55.5], "y": [63.5, 30.5, 10.5, 50.5],
        "value": [5.0, -3.0, 12.0, 7.5]})
    out = ordinary_kriging(samples, LAYOUT, (0, 0, 3, 3),
                           "exponential", (0.0, 4.0, 25.0)).to_pandas()
    got = _stitch(out)
    assert np.isclose(got[0, 8], 5.0, atol=1e-8)     # (8.5, 63.5)
    assert np.isclose(got[33, 40], -3.0, atol=1e-8)  # (40.5, 30.5)
    const = samples.assign(value=9.25)
    got_c = _stitch(ordinary_kriging(const, LAYOUT, (0, 0, 3, 3),
                                     "spherical", (1.0, 3.0, 20.0)).to_pandas())
    np.testing.assert_allclose(got_c, 9.25, atol=1e-8)


def test_fit_variogram_recovers_known_model():
    """Empirical bins generated EXACTLY from a spherical model (values
    constructed so pair semivariances average to the model curve are not
    available analytically -> instead check the fit reproduces a synthetic
    empirical curve): feed a sample set whose variogram fit must achieve
    the same SSE-optimal (nugget, psill) for the best range, and round-trip
    the model functions themselves."""
    from geotrellis_ray.stages.interpolation import (empirical_variogram,
                                                     fit_variogram, variogram_model)

    gam = variogram_model("spherical")
    assert gam(np.array([0.0]), 2.0, 5.0, 10.0)[0] == 0.0          # gamma(0)=0
    assert np.isclose(gam(np.array([10.0]), 2.0, 5.0, 10.0)[0], 7.0)   # sill at range
    assert np.isclose(gam(np.array([99.0]), 2.0, 5.0, 10.0)[0], 7.0)   # flat beyond

    rng = np.random.default_rng(2)
    n = 80
    xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    vals = np.sin(xs / 15.0) * 8 + np.cos(ys / 12.0) * 5 + rng.normal(0, 0.3, n)
    df = pd.DataFrame({"x": xs, "y": ys, "value": vals})
    c0, c1, a = fit_variogram(df, model="spherical")
    assert c0 >= 0 and c1 > 0 and a > 0
    h, emp, cnt = empirical_variogram(xs, ys, vals)
    fitted = gam(h, c0, c1, a)
    # the fitted curve must beat the trivial flat-mean model on weighted SSE
    sse_fit = float((cnt * (emp - fitted) ** 2).sum())
    mean_g = float((emp * cnt).sum() / cnt.sum())
    sse_flat = float((cnt * (emp - mean_g) ** 2).sum())
    assert sse_fit < sse_flat * 0.8


def test_delaunay_property_and_hull_area():
    """The Delaunay condition IS the oracle: no sample strictly inside any
    triangle's circumcircle; triangles tile the convex hull exactly (area
    identity). Includes a regular grid (cocircular degeneracies)."""
    from geotrellis_ray.core.delaunay import _circum, delaunay

    def hull_area(pts):
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

        def half(P):
            h = []
            for p in P:
                while len(h) >= 2 and np.cross(h[-1] - h[-2], p - h[-2]) <= 0:
                    h.pop()
                h.append(p)
            return h

        H = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
        x, y = H[:, 0], H[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    rng = np.random.default_rng(1)
    gx, gy = np.meshgrid(np.arange(5.0), np.arange(4.0))
    cases = [
        (rng.uniform(0, 100, 200), rng.uniform(0, 100, 200)),
        (gx.ravel(), gy.ravel()),  # grid: every 4-point cell is cocircular
    ]
    for xs, ys in cases:
        tri = delaunay(xs, ys)
        ux, uy, r2 = _circum(xs, ys, tri)
        for i in range(len(tri)):
            d2 = (xs - ux[i]) ** 2 + (ys - uy[i]) ** 2
            inside = d2 < r2[i] * (1 - 1e-5)  # 1e-7-span jitter bounds the slack
            inside[tri[i]] = False
            assert not inside.any(), f"in-circle violation at triangle {i}"
        a = np.stack([xs[tri[:, 0]], ys[tri[:, 0]]], 1)
        b = np.stack([xs[tri[:, 1]], ys[tri[:, 1]]], 1)
        c = np.stack([xs[tri[:, 2]], ys[tri[:, 2]]], 1)
        tarea = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                             - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])).sum()
        assert np.isclose(tarea, hull_area(np.stack([xs, ys], 1)))


def test_tin_affine_reproduction_and_surface(ray_session):
    """A TIN reproduces any affine field EXACTLY inside the hull (linear
    interpolation over a triangulation of exact samples), and is exact at
    the sample points; the distributed surface matches a direct TIN query."""
    from geotrellis_ray.core.delaunay import TIN
    from geotrellis_ray.stages.interpolation import tin_interpolation

    rng = np.random.default_rng(6)
    n = 120
    samples = pd.DataFrame({"x": rng.uniform(0, 64, n), "y": rng.uniform(0, 64, n)})
    samples["value"] = 3.0 * samples["x"] + 2.0 * samples["y"] + 1.0
    out = tin_interpolation(samples, LAYOUT, (0, 0, 3, 3)).to_pandas()
    got = _stitch(out)
    rows, cols = got.shape
    cy, cx = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    wx = cx + 0.5
    wy = 64 - cy - 0.5
    exp = 3.0 * wx + 2.0 * wy + 1.0
    inh = ~np.isnan(got)
    assert inh.mean() > 0.5
    np.testing.assert_allclose(got[inh], exp[inh], atol=1e-9)
    # NaN exactly where a direct TIN query says outside-hull
    tin = TIN(samples["x"], samples["y"], samples["value"])
    direct = tin.interpolate(wx.ravel(), wy.ravel()).reshape(rows, cols)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(direct))


def test_variogram_model_breadth():
    """Round-3 models (circular/linear/power): gamma(0)=0, monotone
    nondecreasing, bounded models reach the sill at and beyond the range."""
    import numpy as np

    from geotrellis_ray.stages.interpolation import variogram_model

    h = np.linspace(0.0, 20.0, 200)
    for kind in ("circular", "linear"):
        fn = variogram_model(kind)
        g = fn(h, 0.5, 2.0, 8.0)
        assert g[0] == 0.0
        assert (np.diff(g) >= -1e-12).all()
        np.testing.assert_allclose(g[h >= 8.0], 2.5)  # nugget + sill beyond range
    p = variogram_model("power")(h, 0.1, 0.3, 1.5)
    assert p[0] == 0.0 and (np.diff(p) > 0).all()  # unbounded growth
    np.testing.assert_allclose(p[-1], 0.1 + 0.3 * 20.0**1.5)


def test_kriging_with_new_models_exact_at_samples(ray_session):
    import numpy as np

    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.stages.interpolation import ordinary_kriging

    rng = np.random.default_rng(7)
    pts = pd.DataFrame({
        "x": rng.uniform(1, 15, 12), "y": rng.uniform(1, 15, 12),
        "value": rng.uniform(0, 10, 12)})
    lay = LayoutDefinition(Extent(0, 0, 16, 16), TileLayout(2, 2, 8, 8))
    for model in ("circular", "linear"):
        out = ordinary_kriging(pts, lay, (0, 0, 1, 1), model=model,
                               params=(0.0, 2.0, 6.0))
        tiles = {(r["key_col"], r["key_row"]):
                 np.frombuffer(r["cells"], np.float64).reshape(8, 8)
                 for r in out.take_all()}
        assert set(tiles) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        vals = np.concatenate([t.ravel() for t in tiles.values()])
        # OK prediction is a weighted average: stays within the sample hull
        assert np.nanmin(vals) >= pts["value"].min() - 1.0
        assert np.nanmax(vals) <= pts["value"].max() + 1.0


def test_universal_kriging_brute_cell_oracle(ray_session):
    """Actor-pool UK surface == an independent per-cell solve of the
    textbook UK system (drift basis appended, np.linalg.solve per cell)."""
    from geotrellis_ray.stages.interpolation import (_drift_basis,
                                                     universal_kriging,
                                                     variogram_model)

    rng = np.random.default_rng(11)
    k = 16
    samples = pd.DataFrame({"x": rng.uniform(2, 62, k), "y": rng.uniform(2, 62, k),
                            "value": rng.normal(20, 5, k)})
    params = (0.5, 12.0, 30.0)
    out = universal_kriging(samples, LAYOUT, (0, 0, 3, 3), "spherical",
                            drift="linear", params=params).to_pandas()
    got = _stitch(out)
    gam = variogram_model("spherical")
    xs, ys, vals = (samples[c].to_numpy() for c in ("x", "y", "value"))
    ext = LAYOUT.extent
    cx, cy = (ext.xmin + ext.xmax) / 2, (ext.ymin + ext.ymax) / 2
    scale = max(ext.xmax - ext.xmin, ext.ymax - ext.ymin)
    F = _drift_basis(xs, ys, "linear", cx, cy, scale)
    p = F.shape[1]
    d = np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])
    K = np.zeros((k + p, k + p))
    K[:k, :k] = gam(d, *params)
    K[:k, k:] = F
    K[k:, :k] = F.T
    for r, c in [(0, 0), (17, 33), (63, 63), (40, 9)]:
        px, py = c + 0.5, 64 - r - 0.5
        b = np.r_[gam(np.hypot(xs - px, ys - py), *params),
                  _drift_basis(np.array([px]), np.array([py]), "linear",
                               cx, cy, scale)[0]]
        w = np.linalg.solve(K + np.eye(k + p) * 1e-12, b)
        assert np.isclose(got[r, c], w[:k] @ vals, rtol=1e-7), (r, c)


def test_universal_kriging_reproduces_global_trend(ray_session):
    """THE property separating UK from OK: values exactly linear in (x, y)
    are reproduced exactly EVERYWHERE (OK flattens toward the mean far from
    samples). Quadratic drift likewise reproduces a quadratic field."""
    from geotrellis_ray.stages.interpolation import (ordinary_kriging,
                                                     universal_kriging)

    rng = np.random.default_rng(13)
    k = 20
    xs, ys = rng.uniform(10, 54, k), rng.uniform(10, 54, k)
    plane = lambda x, y: 3.0 + 0.5 * x - 0.25 * y
    samples = pd.DataFrame({"x": xs, "y": ys, "value": plane(xs, ys)})
    got = _stitch(universal_kriging(samples, LAYOUT, (0, 0, 3, 3), "spherical",
                                    drift="linear", params=(0.0, 5.0, 20.0)).to_pandas())
    cc, rr = np.meshgrid(np.arange(64) + 0.5, 64 - np.arange(64) - 0.5)
    np.testing.assert_allclose(got, plane(cc, rr), atol=1e-6)
    # OK does NOT reproduce the plane in the far corner (sanity contrast)
    got_ok = _stitch(ordinary_kriging(samples, LAYOUT, (0, 0, 3, 3), "spherical",
                                      params=(0.0, 5.0, 20.0)).to_pandas())
    assert abs(got_ok[0, 0] - plane(0.5, 63.5)) > 0.5

    quad = lambda x, y: 1.0 + 0.1 * x - 0.05 * y + 0.01 * x * y + 0.02 * x * x
    samples_q = pd.DataFrame({"x": xs, "y": ys, "value": quad(xs, ys)})
    got_q = _stitch(universal_kriging(samples_q, LAYOUT, (0, 0, 3, 3), "spherical",
                                      drift="quadratic", params=(0.0, 5.0, 20.0)).to_pandas())
    np.testing.assert_allclose(got_q, quad(cc, rr), rtol=1e-5, atol=1e-4)


def test_region_border_pairing_block_split_invariance(ray_session):
    """The border pairing (one group_map on the border) emits the same
    equivalence set at any number of input blocks, down to one row per
    block, and region_group labels a layer the same at 1 and 4 blocks."""
    import ray.data as rd

    from geotrellis_ray.stages.regiongroup import _border_pairs

    rng2 = np.random.default_rng(17)
    # synthetic edge stream: 6 borders x 2 sides, 4-cell edges
    n_border = 6
    rows = []
    for k in range(n_border):
        vals = rng2.integers(0, 3, 4).astype(np.float64)
        # side 1 shares values at positions 0,2 only
        vals2 = vals.copy()
        vals2[1] += 10.0
        vals2[3] += 10.0
        l0 = np.arange(4, dtype=np.int64) + 100 * k
        l1 = np.arange(4, dtype=np.int64) + 100 * k + 50
        for side, v, lab in ((0, vals, l0), (1, vals2, l1)):
            rows.append({"dir": "v" if k % 2 == 0 else "h", "ec": k // 2, "er": k % 4,
                         "side": side, "vals": v.tobytes(), "labs": lab.tobytes()})
    t = pa.Table.from_pylist(rows[::-1], schema=pa.schema([
        ("dir", pa.string()), ("ec", pa.int32()), ("er", pa.int32()), ("side", pa.int8()),
        ("vals", pa.binary()), ("labs", pa.binary())]))
    want = {(100 * k + p, 100 * k + 50 + p) for k in range(n_border) for p in (0, 2)}
    for blocks in (1, 2, 3, 5, len(rows)):
        got = _border_pairs(rd.from_arrow(t).repartition(blocks)).take_all()
        assert {(r["ga"], r["gb"]) for r in got} == want, blocks

    rng = np.random.default_rng(9)
    big = rng.integers(0, 2, (64, 64)).astype(np.float64)
    tiles = []
    for kr in range(4):
        for kc in range(4):
            cells, cols_, rows_, ct = encode_tile(big[kr * 16:(kr + 1) * 16, kc * 16:(kc + 1) * 16])
            tiles.append({"key_col": kc, "key_row": kr, "sfc": int(zorder(kc, kr)),
                          "cells": cells, "cols": cols_, "rows": rows_, "cell_type": ct})
    labels = [_stitch(region_group(rd.from_items(tiles).repartition(blocks), LAYOUT)
                      .to_pandas(), cell_type="int64") for blocks in (1, 4)]
    np.testing.assert_array_equal(labels[0], labels[1])
    assert _partition_bijection(labels[0], _bfs_labels(big), np.ones_like(big, dtype=bool))


def test_numpy_8_sample_sum_is_the_fixed_pairwise_tree():
    """The q_idw_grid SQL oracle spells numpy's axis-1 reduction out as
    ((a+b)+(c+d)) + ((e+f)+(g+h)); pin that this IS what numpy computes for
    exactly 8 contiguous elements (the fixture's sample count)."""
    rng = np.random.default_rng(11)
    w = rng.random((512, 8)) * 1e3
    tree = ((w[:, 0] + w[:, 1]) + (w[:, 2] + w[:, 3])) + (
        (w[:, 4] + w[:, 5]) + (w[:, 6] + w[:, 7]))
    assert np.array_equal(w.sum(axis=1), tree)


def test_idw_power2_reciprocal_fast_path_matches_pow():
    """power=2 takes w=1/d2 (no np.power); same math, tolerance-level equal
    to the generic pow path."""
    from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
    from geotrellis_ray.stages.interpolation import _IdwSurface

    layout = LayoutDefinition(Extent(0.0, 0.0, 16.0, 16.0), TileLayout(1, 1, 8, 8))

    class Fake(_IdwSurface):
        def __init__(self, power):
            self.xs = np.array([1.0, 3.7, 9.2, 14.1])
            self.ys = np.array([2.0, 8.8, 4.4, 12.3])
            self.vals = np.array([5.0, 7.0, 1.0, 3.0])
            self.layout = layout
            self.power = power
            self.radius = None

    a = Fake(2.0).tile_values(layout.key_to_extent(0, 0))
    b = Fake(2.0 + 1e-300).tile_values(layout.key_to_extent(0, 0))  # pow path
    assert np.allclose(a, b, rtol=1e-12)


def test_tin_grid_fixture_margins():
    """q_tin_grid oracle preconditions: every cell center is >= 1e-3 from
    every hull edge (so the engine's 1e-7-jittered triangulation and the
    oracle's exact hull agree on membership), and the exact affine values
    have <= 4 decimal digits (so round-6 is noise-immune)."""
    from geotrellis_ray.entry_queries import _tin_grid_samples, _tin_hull

    _ids, x, y, vals = _tin_grid_samples()
    hull = _tin_hull()
    cgr, cgc = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    cx = (-180.0 + (cgc // 16) * 90.0) + ((cgc % 16) + 0.5) * (90.0 / 16.0)
    cy = (85.0 - (cgr // 16) * 42.5) - ((cgr % 16) + 0.5) * (2.65625)
    mind = np.inf
    for k in range(len(hull)):
        ax, ay = hull[k]
        bx, by = hull[(k + 1) % len(hull)]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        d = np.abs(cross) / np.hypot(bx - ax, by - ay)
        mind = min(mind, float(d.min()))
    assert mind > 1e-3
    v = 2.0 * cx + 3.0 * cy + 7.0
    assert np.array_equal(np.round(v, 6), v)  # <= 6 decimal digits exactly
