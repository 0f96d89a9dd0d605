"""UTM / Transverse Mercator tests against FIRST-PRINCIPLES oracles (not
self round-trip only): the central-meridian northing must equal k0 x the
numerically-integrated meridian arc, and the central-meridian scale factor
must be k0."""

from __future__ import annotations

import numpy as np
import pytest

from geotrellis_ray.core.utm import (
    K0,
    latlng_to_utm,
    lonlat_to_utm_zone,
    meridian_arc_numeric,
    parse_utm_crs,
    utm_to_latlng,
    utm_zone_lon0,
)


def test_central_meridian_matches_meridian_arc_integral():
    """Independent oracle: on the central meridian, easting == 500000 and
    northing == k0 * (meridian arc from equator), integrated numerically."""
    for lat in (0.0, 12.5, 33.0, 47.9941, 60.0, 75.0):
        e, n = latlng_to_utm(np.array([lat]), np.array([9.0]), zone=32)
        assert abs(e[0] - 500_000.0) < 1e-6
        arc = meridian_arc_numeric(lat)
        assert abs(n[0] - K0 * arc) < 2e-3, (lat, n[0], K0 * arc)


def test_central_meridian_scale_factor():
    lat = np.array([40.0, 40.0009])  # ~100 m apart on the central meridian
    e, n = latlng_to_utm(lat, np.array([9.0, 9.0]), zone=32)
    ground = meridian_arc_numeric(40.0009) - meridian_arc_numeric(40.0)
    assert abs((n[1] - n[0]) / ground - K0) < 1e-9


def test_roundtrip_in_zone():
    rng = np.random.default_rng(4)
    lat = rng.uniform(-79.0, 83.0, 500)
    lon = 9.0 + rng.uniform(-2.9, 2.9, 500)  # zone 32
    e, n = latlng_to_utm(lat, lon, zone=32, south=False)
    lat2, lon2 = utm_to_latlng(e, n, zone=32, south=False)
    np.testing.assert_allclose(lat2, lat, atol=1e-9)
    np.testing.assert_allclose(lon2, lon, atol=1e-9)


def test_southern_hemisphere_false_northing():
    e, n = latlng_to_utm(np.array([-33.9]), np.array([18.5]), zone=34, south=True)
    assert 0 < n[0] < 10_000_000.0
    lat2, lon2 = utm_to_latlng(e, n, zone=34, south=True)
    assert abs(lat2[0] + 33.9) < 1e-9 and abs(lon2[0] - 18.5) < 1e-9


def test_equator_easting_symmetry():
    """Equatorial symmetry: +dlon and -dlon around the central meridian give
    mirrored eastings and equal northings."""
    e1, n1 = latlng_to_utm(np.array([10.0]), np.array([10.0]), zone=32)  # lon0=9
    e2, n2 = latlng_to_utm(np.array([10.0]), np.array([8.0]), zone=32)
    assert abs((e1[0] - 500_000.0) + (e2[0] - 500_000.0)) < 1e-6
    assert abs(n1[0] - n2[0]) < 1e-6


def test_zone_helpers():
    assert utm_zone_lon0(31) == 3.0
    assert list(lonlat_to_utm_zone(np.array([-180.0, 0.0, 8.9, 179.9]))) == [1, 31, 32, 60]
    assert parse_utm_crs("utm:33n") == (33, False)
    assert parse_utm_crs("utm:19s") == (19, True)
    with pytest.raises(ValueError):
        parse_utm_crs("utm:33")


def test_reproject_points_batch_utm(ray_session):
    import pyarrow as pa

    from geotrellis_ray.stages.reproject import reproject_points_batch

    lat = np.array([48.0, 47.5, 49.1])
    lon = np.array([11.0, 10.2, 12.9])
    b = pa.table({"lat": pa.array(lat), "lon": pa.array(lon)})
    out = reproject_points_batch(b, "latlng", "utm:32n")
    e, n = latlng_to_utm(lat, lon, 32)
    np.testing.assert_allclose(out["x"].to_numpy(), e)
    np.testing.assert_allclose(out["y"].to_numpy(), n)
    # and back through the generic pivot
    back = reproject_points_batch(
        pa.table({"lon": out["x"], "lat": out["y"]}), "utm:32n", "latlng")
    np.testing.assert_allclose(back["y"].to_numpy(), lat, atol=1e-9)
    np.testing.assert_allclose(back["x"].to_numpy(), lon, atol=1e-9)


# --- round 3: generic Transverse Mercator + OSGB -----------------------------

def test_osgb_matches_os_worked_example():
    """Ordnance Survey 'A guide to coordinate systems in Great Britain'
    worked example (OSGB36 geodetic -> national grid): sub-mm."""
    from geotrellis_ray.core.utm import OSGB_TM

    lat = 52 + 39 / 60 + 27.2531 / 3600
    lon = 1 + 43 / 60 + 4.5177 / 3600
    E, N = OSGB_TM.forward(np.array([lat]), np.array([lon]))
    assert abs(E[0] - 651409.903) < 1e-3
    assert abs(N[0] - 313177.270) < 1e-3
    la, lo = OSGB_TM.inverse(E, N)
    assert abs(la[0] - lat) < 1e-12 and abs(lo[0] - lon) < 1e-12


def test_tmerc_generic_matches_utm_special_case():
    """A tmerc CRS configured with UTM zone 33N parameters must reproduce
    the dedicated UTM path exactly."""
    from geotrellis_ray.core.utm import latlng_to_utm, parse_tmerc_crs

    tm = parse_tmerc_crs("tmerc:0,15,0.9996,500000,0,wgs84")
    rng = np.random.default_rng(3)
    lat = rng.uniform(-70, 70, 50)
    lon = rng.uniform(12, 18, 50)
    e1, n1 = tm.forward(lat, lon)
    e2, n2 = latlng_to_utm(lat, lon, 33, south=False)
    np.testing.assert_allclose(e1, e2, atol=1e-6)
    np.testing.assert_allclose(n1, n2, atol=1e-6)


def test_helmert_roundtrip_and_osgb_wgs84_path():
    from geotrellis_ray.core.utm import latlng_to_osgb, osgb_to_latlng

    rng = np.random.default_rng(9)
    lat = rng.uniform(50.0, 58.5, 40)   # GB extent
    lon = rng.uniform(-7.0, 1.8, 40)
    E, N = latlng_to_osgb(lat, lon)
    la, lo = osgb_to_latlng(E, N)
    np.testing.assert_allclose(la, lat, atol=1e-7)  # ~1 cm
    np.testing.assert_allclose(lo, lon, atol=1e-7)
    # London lands in the right grid ballpark (Greenwich ~ TQ 3889 7727)
    E0, N0 = latlng_to_osgb(np.array([51.4779]), np.array([-0.0015]))
    assert abs(E0[0] - 538890) < 20 and abs(N0[0] - 177270) < 80


def test_reproject_batch_osgb(ray_session):
    import pyarrow as pa

    from geotrellis_ray.stages.reproject import reproject_points_batch

    b = pa.table({"lon": pa.array([-0.0015, -3.2], pa.float64()),
                  "lat": pa.array([51.4779, 55.95], pa.float64())})
    out = reproject_points_batch(b, "latlng", "epsg:27700")
    assert out["x"][0].as_py() > 500_000 and out["y"][1].as_py() > 600_000
    back = reproject_points_batch(
        pa.table({"lon": out["x"], "lat": out["y"]}), "epsg:27700", "latlng")
    np.testing.assert_allclose(back["y"].to_numpy(), [51.4779, 55.95], atol=1e-7)


# --- conic / polar projections (core/conic.py, round 3) ----------------------

def _MN(lat_deg, a, rf):
    """Meridional and prime-vertical curvature radii (the ground metric the
    numeric distortion oracles compare against)."""
    f = 1.0 / rf
    e2 = f * (2 - f)
    s = np.sin(np.radians(lat_deg))
    W = np.sqrt(1 - e2 * s * s)
    return a * (1 - e2) / W**3, a / W


def _jacobian(proj, lat, lon, d=1e-6):
    x0, y0 = proj.forward(lat, lon)
    xla, yla = proj.forward(lat + d, lon)
    xlo, ylo = proj.forward(lat, lon + d)
    return (np.array([xla - x0, yla - y0]) / np.radians(d),
            np.array([xlo - x0, ylo - y0]) / np.radians(d))


def test_polar_stereographic_epsg_worked_example():
    """EPSG Guidance Note 7-2, Polar Stereographic variant B example
    (Australian Antarctic / EPSG:3032): lat -75, lon 120E ->
    E 7255380.79, N 7053389.56."""
    from geotrellis_ray.core.conic import PolarStereographic
    from geotrellis_ray.core.utm import ELLIPSOIDS

    a, rf = ELLIPSOIDS["wgs84"]
    ps = PolarStereographic(a, rf, -71.0, 70.0, 6_000_000.0, 6_000_000.0)
    E, N = ps.forward(-75.0, 120.0)
    assert abs(E - 7255380.79) < 0.01 and abs(N - 7053389.56) < 0.01
    lat, lon = ps.inverse(E, N)
    assert abs(lat + 75.0) < 1e-9 and abs(lon - 120.0) < 1e-9


def test_lambert93_invariants():
    from geotrellis_ray.core.conic import lambert93

    l93 = lambert93()
    x, y = l93.forward(46.5, 3.0)
    assert abs(x - 700_000) < 1e-6 and abs(y - 6_600_000) < 1e-6
    # well-known Paris coordinate (IGN): ~ (652469.02, 6862035.26)
    x, y = l93.forward(48.8566, 2.3522)
    assert abs(x - 652469.02) < 0.5 and abs(y - 6862035.26) < 0.5


@pytest.mark.parametrize("latlon", [(42.0, -1.0), (46.5, 3.0), (49.0, 7.5), (55.0, 2.0)])
def test_lcc_conformal_numeric(latlon):
    """Independent oracle: a conformal projection has direction-independent
    local scale — the image of the (meridian, parallel) frame is orthogonal
    with equal per-ground-length scale; on the standard parallels that scale
    is 1."""
    from geotrellis_ray.core.conic import lambert93
    from geotrellis_ray.core.utm import ELLIPSOIDS

    lat, lon = latlon
    proj = lambert93()
    Jla, Jlo = _jacobian(proj, lat, lon)
    M, N = _MN(lat, *ELLIPSOIDS["grs80"])
    h = np.linalg.norm(Jla) / M
    k = np.linalg.norm(Jlo) / (N * np.cos(np.radians(lat)))
    assert abs(h - k) < 1e-5 * k
    assert abs(np.dot(Jla, Jlo)) < 1e-4 * np.linalg.norm(Jla) * np.linalg.norm(Jlo)
    if lat in (44.0, 49.0):
        assert abs(k - 1.0) < 1e-6


def test_lcc_scale_unity_on_standard_parallels():
    from geotrellis_ray.core.conic import lambert93
    from geotrellis_ray.core.utm import ELLIPSOIDS

    proj = lambert93()
    for sp in (44.0, 49.0):
        _, Jlo = _jacobian(proj, sp, 5.0)
        _, N = _MN(sp, *ELLIPSOIDS["grs80"])
        k = np.linalg.norm(Jlo) / (N * np.cos(np.radians(sp)))
        assert abs(k - 1.0) < 1e-6


@pytest.mark.parametrize("latlon", [(23.0, -96.0), (29.5, -110.0), (37.0, -96.0),
                                    (45.5, -80.0), (48.0, -122.0)])
def test_albers_equal_area_numeric(latlon):
    """Independent oracle: |det J| must equal the ellipsoidal area element
    M(lat) * N(lat) * cos(lat) everywhere (exact equal-area property)."""
    from geotrellis_ray.core.conic import conus_albers
    from geotrellis_ray.core.utm import ELLIPSOIDS

    lat, lon = latlon
    proj = conus_albers()
    Jla, Jlo = _jacobian(proj, lat, lon, d=1e-5)
    det = abs(Jla[0] * Jlo[1] - Jla[1] * Jlo[0])
    M, N = _MN(lat, *ELLIPSOIDS["grs80"])
    ground = M * N * np.cos(np.radians(lat))
    assert abs(det / ground - 1.0) < 1e-4


def test_polar_stereo_scale_true_at_standard_parallel():
    from geotrellis_ray.core.conic import antarctic_ps, nsidc_north_ps
    from geotrellis_ray.core.utm import ELLIPSOIDS

    for proj, sp in ((antarctic_ps(), -71.0), (nsidc_north_ps(), 70.0)):
        _, Jlo = _jacobian(proj, sp, 30.0)
        _, N = _MN(sp, *ELLIPSOIDS["wgs84"])
        k = np.linalg.norm(Jlo) / (N * np.cos(np.radians(sp)))
        assert abs(k - 1.0) < 1e-6


def test_conic_roundtrip_grids():
    from geotrellis_ray.core.conic import antarctic_ps, conus_albers, lambert93, nsidc_north_ps

    rng = np.random.default_rng(5)
    cases = [
        (lambert93(), rng.uniform(30, 60, 400), rng.uniform(-10, 15, 400)),
        (conus_albers(), rng.uniform(15, 55, 400), rng.uniform(-130, -60, 400)),
        (antarctic_ps(), rng.uniform(-89.5, -50, 400), rng.uniform(-180, 180, 400)),
        (nsidc_north_ps(), rng.uniform(50, 89.5, 400), rng.uniform(-180, 180, 400)),
    ]
    for proj, lat, lon in cases:
        x, y = proj.forward(lat, lon)
        la, lo = proj.inverse(x, y)
        np.testing.assert_allclose(la, lat, atol=1e-9)
        np.testing.assert_allclose(lo, lon, atol=1e-9)


def test_parse_conic_crs_and_reproject_batch():
    import pyarrow as pa

    from geotrellis_ray.core.conic import parse_conic_crs
    from geotrellis_ray.stages.reproject import reproject_points_batch

    # generic lcc: string == the named Lambert-93
    p = parse_conic_crs("lcc:46.5,3,44,49,700000,6600000,grs80")
    x, y = p.forward(48.8566, 2.3522)
    assert abs(x - 652469.02) < 0.5
    with pytest.raises(ValueError):
        parse_conic_crs("lcc:1,2,3")
    with pytest.raises(ValueError):
        parse_conic_crs("stere:70,-45,0,0,marsoid")

    b = pa.table({"lon": pa.array([2.3522], pa.float64()),
                  "lat": pa.array([48.8566], pa.float64())})
    out = reproject_points_batch(b, "latlng", "epsg:2154")
    assert abs(out["x"][0].as_py() - 652469.02) < 0.5
    assert abs(out["y"][0].as_py() - 6862035.26) < 0.5
    back = reproject_points_batch(
        pa.table({"lon": out["x"], "lat": out["y"]}), "epsg:2154", "latlng")
    assert abs(back["x"][0].as_py() - 2.3522) < 1e-9


def test_laea_europe_invariants():
    """EPSG:3035: origin maps to FE/FN; NUMERIC equal-area oracle
    (|det J| == M*N*cos(lat)) across the European domain; round-trip."""
    from geotrellis_ray.core.conic import laea_europe
    from geotrellis_ray.core.utm import ELLIPSOIDS

    p = laea_europe()
    x, y = p.forward(52.0, 10.0)
    assert abs(x - 4_321_000) < 1e-6 and abs(y - 3_210_000) < 1e-6
    for lat, lon in [(35.0, -10.0), (45.0, 10.0), (60.0, 25.0), (70.0, 30.0)]:
        Jla, Jlo = _jacobian(p, lat, lon, d=1e-5)
        det = abs(Jla[0] * Jlo[1] - Jla[1] * Jlo[0])
        M, N = _MN(lat, *ELLIPSOIDS["grs80"])
        assert abs(det / (M * N * np.cos(np.radians(lat))) - 1.0) < 1e-4, (lat, lon)
    rng = np.random.default_rng(8)
    lat = rng.uniform(30, 72, 300)
    lon = rng.uniform(-25, 45, 300)
    la, lo = p.inverse(*p.forward(lat, lon))
    np.testing.assert_allclose(la, lat, atol=1e-9)
    np.testing.assert_allclose(lo, lon, atol=1e-9)


def test_sinusoidal_modis_invariants():
    """Equal-area on its sphere (|det J| == R^2 cos(lat)), equator scale true,
    exact round-trip; the MODIS tile-grid corner (-20015109.354, 10007554.677)
    is the projection of (lat 90, lon -180) halved per axis convention:
    check the published grid constant x_max = pi * R."""
    from geotrellis_ray.core.conic import Sinusoidal, modis_sinusoidal

    p = modis_sinusoidal()
    R = Sinusoidal.R_MODIS
    # the well-known MODIS grid half-width constant
    assert abs(np.pi * R - 20015109.354) < 0.5
    x, y = p.forward(0.0, 0.0)
    assert x == 0.0 and y == 0.0
    for lat, lon in [(0.0, 10.0), (40.0, -60.0), (-70.0, 120.0)]:
        Jla, Jlo = _jacobian(p, lat, lon, d=1e-6)
        det = abs(Jla[0] * Jlo[1] - Jla[1] * Jlo[0])
        assert abs(det / (R * R * np.cos(np.radians(lat))) - 1.0) < 1e-5
    rng = np.random.default_rng(9)
    lat = rng.uniform(-85, 85, 300)
    lon = rng.uniform(-179, 179, 300)
    la, lo = p.inverse(*p.forward(lat, lon))
    np.testing.assert_allclose(la, lat, atol=1e-9)
    np.testing.assert_allclose(lo, lon, atol=1e-9)


def test_reproject_webmerc_margins():
    """q_reproject_webmerc oracle safety: x is bit-exact vs DuckDB's
    radians path; y's cross-library libm deviation is ~3 orders of
    magnitude inside the 2-decimal rounding margin on the full fixture."""
    import duckdb

    from geotrellis_ray.core.mercator import latlng_to_webmercator

    ids = np.arange(0, 10000, 13, dtype=np.int64)
    lat = -85.0 + ((ids * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0 * 170.0
    lon = -180.0 + ((ids * 40503) % 65536).astype(np.float64) / 65536.0 * 360.0
    x, y = latlng_to_webmercator(lat, lon)
    s = y * 100.0
    boundary = (np.abs(np.abs(s - np.round(s)) - 0.5) / 100.0).min()
    assert boundary > 1e-6
    con = duckdb.connect()
    xs, ys = con.sql(
        "SELECT list(6378137.0 * radians(lon) ORDER BY i), "
        "       list(6378137.0 * ln(tan(pi() / 4.0 + radians("
        "  CASE WHEN lat < -85.05112878 THEN -85.05112878 "
        "       WHEN lat > 85.05112878 THEN 85.05112878 ELSE lat END) / 2.0)) ORDER BY i) "
        "FROM (SELECT i, "
        " -85.0 + CAST((i * 2654435761) % 4294967296 AS DOUBLE) / 4294967296.0 * 170.0 AS lat, "
        " -180.0 + CAST((i * 40503) % 65536 AS DOUBLE) / 65536.0 * 360.0 AS lon "
        " FROM range(0, 10000) t(i) WHERE i % 13 = 0)").fetchone()
    assert np.array_equal(np.array(xs), x)
    assert np.abs(np.array(ys) - y).max() < 1e-8
