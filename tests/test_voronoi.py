"""Voronoi diagram (core/delaunay.voronoi_cells + stages/overlay
.voronoi_diagram) — property oracles:

1. PARTITION: the clipped cells tile the extent exactly (area identity),
   for random, gridded (cocircular), collinear and tiny site sets.
2. NEAREST-SITE: every sample point lies in the cell of its brute-force
   nearest site (samples within a tiny margin of a bisector excluded —
   cell edges are fuzzy only at float width).
3. The cell table drives the ordinary PolygonIndex PIP probe, and the
   assignment equals brute argmin for every off-bisector sample.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geotrellis_ray.core.delaunay import voronoi_cells
from geotrellis_ray.stages.overlay import voronoi_diagram


def _area(p: np.ndarray) -> float:
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _brute_nearest(qx, qy, xs, ys):
    d2 = (qx[:, None] - xs[None, :]) ** 2 + (qy[:, None] - ys[None, :]) ** 2
    return np.argmin(d2, axis=1), np.partition(d2, 1, axis=1)


def _pip(poly, px, py) -> bool:
    if len(poly) < 3:
        return False
    x, y = poly[:, 0], poly[:, 1]
    inside = False
    j = len(poly) - 1
    for k in range(len(poly)):
        if (y[k] > py) != (y[j] > py) and px < (x[j] - x[k]) * (py - y[k]) / (y[j] - y[k]) + x[k]:
            inside = not inside
        j = k
    return inside


def test_partition_and_nearest_random():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-9, 9, 80)
    ys = rng.uniform(-4, 4, 80)
    ext = (-10.0, -5.0, 10.0, 5.0)
    cells = voronoi_cells(xs, ys, ext)
    assert len(cells) == 80
    assert abs(sum(_area(c) for c in cells) - 20 * 10) < 1e-9 * 200
    qx = rng.uniform(-10, 10, 1500)
    qy = rng.uniform(-5, 5, 1500)
    near, part = _brute_nearest(qx, qy, xs, ys)
    clear = part[:, 1] - part[:, 0] > 1e-9
    for q in np.flatnonzero(clear):
        assert _pip(cells[near[q]], qx[q], qy[q])


def test_partition_cocircular_grid():
    # 5x5 integer grid: every unit square's corners are cocircular — the
    # degenerate case the triangulation jitter must break without leaving
    # gaps or overlaps in the dual
    gx, gy = np.meshgrid(np.arange(5.0), np.arange(5.0))
    xs, ys = gx.ravel(), gy.ravel()
    ext = (-1.0, -1.0, 5.0, 5.0)
    cells = voronoi_cells(xs, ys, ext)
    assert abs(sum(_area(c) for c in cells) - 36.0) < 1e-9 * 36
    # interior cells are exactly the unit squares centered on the sites
    for i, (x, y) in enumerate(zip(xs, ys)):
        if 0 < x < 4 and 0 < y < 4:
            assert abs(_area(cells[i]) - 1.0) < 1e-9


def test_degenerate_sites():
    ext = (-1.0, -1.0, 4.0, 1.0)
    assert _area(voronoi_cells([0.5], [0.0], ext)[0]) == 10.0
    two = voronoi_cells([0.0, 3.0], [0.0, 0.0], ext)
    assert abs(_area(two[0]) - 5.0) < 1e-12 and abs(_area(two[1]) - 5.0) < 1e-12
    col = voronoi_cells([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0], ext)
    assert abs(sum(_area(c) for c in col) - 10.0) < 1e-9


def test_cell_table_drives_pip_index():
    from geotrellis_ray.state.polygon_index import PolygonIndex

    rng = np.random.default_rng(23)
    n = 40
    t = pa.table({
        "site_id": pa.array(np.arange(10, 10 + n), pa.int64()),
        "x": pa.array(rng.uniform(-170, 170, n), pa.float64()),
        "y": pa.array(rng.uniform(-80, 80, n), pa.float64()),
    })
    cells = voronoi_diagram(t, (-180.0, -85.0, 180.0, 85.0))
    assert cells.num_rows == n
    assert abs(sum(cells["area"].to_pylist()) - 360 * 170) < 1e-6 * 360 * 170
    idx = PolygonIndex(cells)
    qx = rng.uniform(-180, 180, 2000)
    qy = rng.uniform(-85, 85, 2000)
    pi, bi = idx.probe(qx, qy)
    # full partition: every sample hits exactly one cell
    assert len(pi) == 2000 and len(np.unique(pi)) == 2000
    xs = t["x"].to_numpy()
    ys = t["y"].to_numpy()
    near, part = _brute_nearest(qx, qy, xs, ys)
    assigned = np.empty(2000, dtype=np.int64)
    assigned[pi] = idx.ids[bi]
    clear = part[:, 1] - part[:, 0] > 1e-9
    assert (assigned[clear] == near[clear] + 10).all()


def test_voronoi_spec_op(ray_session, tmp_path):
    """join.voronoi runs through run_spec: streamed points annotated with
    the cell (= nearest site) of a small parquet site table."""
    import pyarrow.parquet as pq

    from geotrellis_ray.pipelines.spec import run_spec

    rng = np.random.default_rng(5)
    sites = pa.table({
        "site_id": pa.array([1, 2, 3, 4], pa.int64()),
        "x": pa.array([-5.0, 5.0, -5.0, 5.0], pa.float64()),
        "y": pa.array([-5.0, -5.0, 5.0, 5.0], pa.float64()),
    })
    sp = str(tmp_path / "sites.parquet")
    pq.write_table(sites, sp)
    pts = pa.table({
        "pid": pa.array(np.arange(200), pa.int64()),
        "lon": pa.array(rng.uniform(-9, 9, 200), pa.float64()),
        "lat": pa.array(rng.uniform(-9, 9, 200), pa.float64()),
    })
    pp = str(tmp_path / "pts.parquet")
    pq.write_table(pts, pp)
    out = run_spec([
        {"op": "read.parquet", "path": pp},
        {"op": "join.voronoi", "sites": sp, "extent": [-10, -10, 10, 10],
         "mode": "inner"},
    ]).to_pandas()
    assert len(out) == 200
    qx, qy = out["lon"].to_numpy(), out["lat"].to_numpy()
    near = np.argmin((qx[:, None] - sites["x"].to_numpy()) ** 2
                     + (qy[:, None] - sites["y"].to_numpy()) ** 2, axis=1)
    assert (out["polygon_id"].to_numpy() == near + 1).all()
