"""Global/local Moran's I (stages/autocorr.py) vs a brute double-loop
oracle over the stitched mosaic, incl. NoData holes and tile boundaries."""
import numpy as np

from tests.test_enhance import _layer, _mosaic


def _brute(g):
    """(I_global, W, n, local_I grid) by explicit per-cell neighbor loops."""
    R, C = g.shape
    m = ~np.isnan(g)
    n = int(m.sum())
    mu = g[m].mean()
    z = g - mu
    den = float((z[m] ** 2).sum())
    num = 0.0
    W = 0
    local = np.full_like(g, np.nan)
    m2 = den / n
    for y in range(R):
        for x in range(C):
            if not m[y, x]:
                continue
            s = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < R and 0 <= xx < C and m[yy, xx]:
                        s += z[yy, xx]
                        W += 1
            num += z[y, x] * s
            local[y, x] = z[y, x] * s / m2
    return (n / W) * num / den, W, n, local


def test_morans_global_matches_brute(ray_session):
    from geotrellis_ray.stages.autocorr import morans_i_global

    rng = np.random.default_rng(23)
    g = rng.integers(0, 50, (16, 16)).astype(np.float64)
    g[2, 5] = np.nan
    g[7, 15] = np.nan  # hole ON a tile boundary column
    got = morans_i_global(_layer(g, 8))
    i, w, n, _ = _brute(g)
    assert got["n_cells"] == n and got["w_pairs"] == w
    np.testing.assert_allclose(got["morans_i"], i, rtol=1e-12)


def test_morans_global_smooth_vs_stripes(ray_session):
    from geotrellis_ray.stages.autocorr import morans_i_global

    yy, xx = np.mgrid[0:16, 0:16]
    smooth = (xx + yy).astype(np.float64)     # strong positive autocorr
    stripes = (xx % 2).astype(np.float64)     # negative under queen weights
    # (a checkerboard is NEAR ZERO under queen contiguity — the four same-
    # colored diagonal neighbors cancel the rook negatives)
    assert morans_i_global(_layer(smooth, 8))["morans_i"] > 0.8
    assert morans_i_global(_layer(stripes, 8))["morans_i"] < -0.4


def test_morans_local_matches_brute(ray_session):
    from geotrellis_ray.stages.autocorr import morans_i_local

    rng = np.random.default_rng(31)
    g = rng.integers(0, 50, (16, 16)).astype(np.float64)
    g[0, 0] = np.nan
    got = _mosaic(morans_i_local(_layer(g, 8)).take_all(), 16, 16, 8)
    _, _, _, local = _brute(g)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(local))
    m = ~np.isnan(local)
    np.testing.assert_allclose(got[m], local[m], rtol=1e-12)

def _brute_geary_gstar(g):
    """(C_global, W, n, Gi* grid) by explicit per-cell neighbor loops."""
    R, C = g.shape
    m = ~np.isnan(g)
    n = int(m.sum())
    mu = g[m].mean()
    z = g - mu
    den = float((z[m] ** 2).sum())
    sd = np.sqrt(float((g[m] ** 2).sum()) / n - mu * mu)
    num = 0.0
    W = 0
    gstar = np.full_like(g, np.nan)
    for y in range(R):
        for x in range(C):
            if not m[y, x]:
                continue
            sv = 0.0
            wst = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < R and 0 <= xx < C and m[yy, xx]:
                        sv += g[yy, xx]
                        wst += 1
                        if dy != 0 or dx != 0:
                            num += (g[y, x] - g[yy, xx]) ** 2
                            W += 1
            gstar[y, x] = (sv - mu * wst) / (
                sd * np.sqrt((n * wst - wst * wst) / (n - 1.0)))
    return ((n - 1) / (2.0 * W)) * num / den, W, n, gstar


def test_gearys_c_matches_brute(ray_session):
    from geotrellis_ray.stages.autocorr import gearys_c_global

    rng = np.random.default_rng(37)
    g = rng.integers(0, 50, (16, 16)).astype(np.float64)
    g[3, 8] = np.nan   # hole ON the tile-boundary column
    g[12, 1] = np.nan
    got = gearys_c_global(_layer(g, 8))
    c, w, n, _ = _brute_geary_gstar(g)
    assert got["n_cells"] == n and got["w_pairs"] == w
    np.testing.assert_allclose(got["gearys_c"], c, rtol=1e-12)


def test_gearys_c_smooth_vs_stripes(ray_session):
    """C < 1 = positive autocorrelation, C > 1 = negative (inverse of I)."""
    from geotrellis_ray.stages.autocorr import gearys_c_global

    yy, xx = np.mgrid[0:16, 0:16]
    smooth = (xx + yy).astype(np.float64)
    stripes = (xx % 2).astype(np.float64)
    assert gearys_c_global(_layer(smooth, 8))["gearys_c"] < 0.2
    assert gearys_c_global(_layer(stripes, 8))["gearys_c"] > 1.3


def test_getis_ord_gstar_matches_brute(ray_session):
    from geotrellis_ray.stages.autocorr import getis_ord_gstar

    rng = np.random.default_rng(41)
    g = rng.integers(0, 50, (16, 16)).astype(np.float64)
    g[5, 7] = np.nan
    got = _mosaic(getis_ord_gstar(_layer(g, 8)).take_all(), 16, 16, 8)
    _, _, _, gstar = _brute_geary_gstar(g)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(gstar))
    m = ~np.isnan(gstar)
    np.testing.assert_allclose(got[m], gstar[m], rtol=1e-12)


def test_getis_ord_hot_spot_sign(ray_session):
    """A planted high plateau reads hot (Gi* >> 0), far cells read cold."""
    from geotrellis_ray.stages.autocorr import getis_ord_gstar

    g = np.zeros((16, 16))
    g[6:10, 6:10] = 100.0
    got = _mosaic(getis_ord_gstar(_layer(g, 8)).take_all(), 16, 16, 8)
    assert got[7, 7] > 3.0
    assert got[0, 0] < 0.0
