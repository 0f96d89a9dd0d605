"""The dyadic rect fixture underpins the SQL-bit-exact Rasterize/ClipToGrid
oracles (q_rasterize_rects / q_cliptogrid_rects). These tests pin the two
invariants the oracles rely on — no edge on a tile boundary, exact dyadic
coordinates — and check the engine's clip cover against the integer closed
form the DuckDB oracle uses, without Ray.
"""
import numpy as np

from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
from geotrellis_ray.fixtures import gen_rect_features
from geotrellis_ray.stages.clip import clip_to_grid_batch

LAYOUT = LayoutDefinition(Extent(-180.0, -90.0, 180.0, 90.0), TileLayout(16, 8, 32, 32))


def test_rect_fixture_invariants():
    t = gen_rect_features()
    gx0 = t["gx0"].to_numpy()
    gx1 = t["gx1"].to_numpy()
    gy0 = t["gy0"].to_numpy()
    gy1 = t["gy1"].to_numpy()
    # every edge on a CELL boundary inside the grid, never on a TILE boundary
    for g, hi in ((gx0, 512), (gx1, 512), (gy0, 256), (gy1, 256)):
        assert (g % 32 != 0).all()
        assert (g > 0).all() and (g < hi).all()
    assert (gx1 > gx0).all() and (gy1 > gy0).all()
    # dyadic grid coords reproduce the float corners EXACTLY (no rounding)
    resx, resy = 360.0 / 512.0, 180.0 / 256.0
    assert (t["xmin"].to_numpy() == -180.0 + gx0 * resx).all()
    assert (t["xmax"].to_numpy() == -180.0 + gx1 * resx).all()
    assert (t["ymax"].to_numpy() == 90.0 - gy0 * resy).all()
    assert (t["ymin"].to_numpy() == 90.0 - gy1 * resy).all()
    # deterministic: second call is identical
    assert gen_rect_features().equals(t)


def test_clip_cover_matches_integer_closed_form():
    t = gen_rect_features()
    out = clip_to_grid_batch(t.select(["polygon_id", "wkb"]), LAYOUT)
    df = out.select(["polygon_id", "full"]).to_pandas()
    got_keys = df.groupby("polygon_id").size()
    got_full = df.groupby("polygon_id")["full"].sum()
    gx0 = t["gx0"].to_numpy()
    gx1 = t["gx1"].to_numpy()
    gy0 = t["gy0"].to_numpy()
    gy1 = t["gy1"].to_numpy()
    want_keys = ((gx1 - 1) // 32 - gx0 // 32 + 1) * ((gy1 - 1) // 32 - gy0 // 32 + 1)
    want_full = np.maximum(0, gx1 // 32 - (gx0 + 31) // 32) * np.maximum(
        0, gy1 // 32 - (gy0 + 31) // 32
    )
    pid = t["polygon_id"].to_numpy()
    assert (got_keys.loc[pid].to_numpy() == want_keys).all()
    assert (got_full.loc[pid].to_numpy() == want_full).all()
