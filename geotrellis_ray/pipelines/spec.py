"""JSON/dict pipeline spec -> chained Dataset ops — the engine's counterpart
of the spark-pipeline JSON AST (ref:spark-pipeline/src/main/scala/geotrellis/
spark/pipeline/ast/, json/PipelineExprType.scala — L:unverified,
/root/reference empty at survey time; SURVEY.md §2.10/§3.2).

A spec is a list of stage dicts, folded left over a Dataset:

    [
      {"op": "read.parquet", "path": ".../pages", "columns": [...]},
      {"op": "transform.enrich"},
      {"op": "transform.assign_keys", "zoom": 8, "s2_level": 12},
      {"op": "join.pip", "polygons": "<path to polygon parquet>"},
      {"op": "agg.tile_assignments"},
      {"op": "write.layer", "catalog": "/tmp/cat", "name": "pages", "zoom": 8}
    ]

``register_op(name, fn)`` is the user-extension surface (the method-extension
analogue, SURVEY.md §2.10): fn(ds, **params) -> ds.
"""

from __future__ import annotations

import json
from typing import Any, Callable

_REGISTRY: dict[str, Callable] = {}


def register_op(name: str, fn: Callable) -> None:
    _REGISTRY[name] = fn


def get_op(name: str) -> Callable:
    if name not in _REGISTRY:
        raise KeyError(f"unknown pipeline op {name!r}; registered: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def run_spec(spec: list[dict[str, Any]] | str):
    """Execute a pipeline spec; returns the final Dataset (or the write
    result for sink stages)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    ds = None
    for stage in spec:
        stage = dict(stage)
        op = get_op(stage.pop("op"))
        ds = op(ds, **stage)
    return ds


# --- built-in ops -----------------------------------------------------------

def _op_read_parquet(ds, path: str, columns=None, **kw):
    import ray.data

    return ray.data.read_parquet(path, columns=columns, **kw)


def _op_enrich(ds, **kw):
    from ..stages.enrich import enrich_batch

    return ds.map_batches(lambda b: enrich_batch(b, **kw), batch_format="pyarrow", zero_copy_batch=True)


def _op_assign_keys(ds, **kw):
    from ..stages.enrich import assign_keys_batch

    return ds.map_batches(lambda b: assign_keys_batch(b, **kw), batch_format="pyarrow", zero_copy_batch=True)


def _op_pip_join(ds, polygons, **kw):
    import pyarrow.parquet as pq

    from ..stages.pip_join import pip_join

    table = pq.read_table(polygons) if isinstance(polygons, str) else polygons
    return pip_join(ds, table, **kw)


def _op_voronoi_assign(ds, sites, extent, **kw):
    """Assign streamed points to the Voronoi cells of a (small, broadcast)
    site table: cells built once via stages/overlay.voronoi_diagram (the
    Delaunay dual), then the ordinary broadcast PIP join."""
    import pyarrow.parquet as pq

    from ..stages.overlay import voronoi_diagram
    from ..stages.pip_join import pip_join

    table = pq.read_table(sites) if isinstance(sites, str) else sites
    return pip_join(ds, voronoi_diagram(table, tuple(extent)), **kw)


def _op_tile_assignments(ds, **kw):
    from ..stages.tile_agg import tile_assignments

    return tile_assignments(ds, **kw)


def _op_filter_expr(ds, expr: str):
    return ds.filter(expr=expr)


def _op_select(ds, columns):
    return ds.select_columns(columns)


def _op_write_layer(ds, catalog: str, name: str, zoom: int, **kw):
    from ..sources.layer import write_layer

    write_layer(ds, catalog, name, zoom, **kw)
    return ds


def _op_write_parquet(ds, path: str, **kw):
    ds.write_parquet(path, **kw)
    return ds


def _op_local_unary(ds, fn: str):
    # spec key is "fn" (NOT "op" — that's the reserved dispatch key run_spec
    # pops before calling the handler): {"op": "local.unary", "fn": "sqrt"}
    from ..stages.layer_ops import layer_local_unary

    return layer_local_unary(ds, fn)


def _op_local_scalar(ds, fn: str, scalar: float):
    # spec key is "fn": {"op": "local.scalar", "fn": "multiply", "scalar": 2}
    from ..stages.layer_ops import layer_local_scalar

    return layer_local_scalar(ds, fn, scalar)


def _op_focal_mean(ds, margin: int = 1):
    from ..stages.layer_ops import focal_mean

    return focal_mean(ds, margin=margin)


def _op_focal(ds, stat: str = "mean", margin: int = 1):
    from ..stages.layer_ops import focal_op

    return focal_op(ds, stat, margin=margin)


def _op_focal_convolve(ds, kernel):
    from ..stages.layer_ops import focal_convolve

    return focal_convolve(ds, kernel)


def _op_focal_slope(ds, cell_width: float, cell_height: float, z_factor: float = 1.0):
    from ..stages.layer_ops import focal_slope

    return focal_slope(ds, cell_width, cell_height, z_factor)


def _op_focal_aspect(ds, cell_width: float, cell_height: float):
    from ..stages.layer_ops import focal_aspect

    return focal_aspect(ds, cell_width, cell_height)


def _op_focal_hillshade(ds, cell_width: float, cell_height: float,
                        azimuth: float = 315.0, altitude: float = 45.0, z_factor: float = 1.0):
    from ..stages.layer_ops import focal_hillshade

    return focal_hillshade(ds, cell_width, cell_height, azimuth, altitude, z_factor)


def _op_resample_tiles(ds, out_cols: int, out_rows: int, method: str = "nearest"):
    from ..stages.layer_ops import layer_resample

    return layer_resample(ds, out_cols, out_rows, method)


def _op_buffer_tiles(ds, margin: int = 1):
    from ..stages.layer_ops import buffer_tiles

    return buffer_tiles(ds, margin=margin)


def _op_reproject_points(ds, src: str, dst: str, **kw):
    from ..stages.reproject import reproject_points_batch

    return ds.map_batches(
        lambda b: reproject_points_batch(b, src, dst, **kw),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _op_reproject_layer(ds, src_extent, src_tile_layout, dst_extent,
                        dst_tile_layout, src_crs: str, dst_crs: str,
                        method: str = "nearest"):
    """spark-pipeline's Reproject node is a LAYER op (TileRDDReproject,
    ref:spark-pipeline/.../ast/Reproject, L:unverified) — warp a tile
    layer between CRS/layouts; ``method`` picks nearest or a kernel
    (bilinear/cubic/cubic-spline/lanczos, r5)."""
    from ..stages.reproject import reproject_layer

    return reproject_layer(ds, _layout_from_args(src_extent, src_tile_layout),
                           _layout_from_args(dst_extent, dst_tile_layout),
                           src_crs, dst_crs, method=method)


def _op_spacetime_key(ds, **kw):
    from ..stages.spacetime import assign_spacetime_key_batch

    return ds.map_batches(
        lambda b: assign_spacetime_key_batch(b, **kw),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _op_dedup_exact(ds, **kw):
    from ..stages.dedup import dedup_exact

    return dedup_exact(ds, **kw)


def _op_keep_best(ds, **kw):
    from ..stages.dedup import keep_best_dedup

    return keep_best_dedup(ds, **kw)


def _op_sort_grouped_top_k(ds, **kw):
    from ..stages.agg import sort_grouped_top_k

    return sort_grouped_top_k(ds, **kw)


def _op_count_distinct(ds, **kw):
    from ..stages.agg import sort_group_count_distinct

    return sort_group_count_distinct(ds, **kw)


def _op_grouped_quantile(ds, **kw):
    from ..stages.agg import exact_grouped_quantile

    return exact_grouped_quantile(ds, **kw)


def _op_grouped_mode(ds, **kw):
    from ..stages.agg import sort_group_mode

    return sort_group_mode(ds, **kw)


def _op_moving_window_sum(ds, **kw):
    from ..stages.window import moving_window_sum

    return moving_window_sum(ds, **kw)


def _op_as_of(ds, direction: str = "prev", **kw):
    from ..stages.window import as_of_next, as_of_prev

    if direction not in ("prev", "next"):
        raise ValueError("as_of direction must be 'prev' or 'next'")
    return (as_of_next if direction == "next" else as_of_prev)(ds, **kw)


def _op_partial_groupby(ds, keys, specs):
    from ..stages.agg import partial_groupby

    return partial_groupby(ds, keys, [tuple(s) for s in specs])


def _layout_from_args(extent, tile_layout):
    from ..core.layout import Extent, LayoutDefinition, TileLayout

    return LayoutDefinition(Extent(*extent), TileLayout(*tile_layout))


def _op_rasterize(ds, extent, tile_layout, salt_k: int = 0, **kw):
    from ..stages.rasterize_stage import rasterize_features

    return rasterize_features(ds, _layout_from_args(extent, tile_layout), salt_k=salt_k, **kw)


def _op_clip_to_grid(ds, extent, tile_layout, **kw):
    from ..stages.clip import clip_to_grid_batch

    layout = _layout_from_args(extent, tile_layout)
    return ds.map_batches(
        lambda b: clip_to_grid_batch(b, layout, **kw),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _op_cost_distance(ds, source_cells, max_rounds: int = 64):
    from ..stages.costdistance import cost_distance

    return cost_distance(ds, [tuple(s) for s in source_cells], max_rounds=max_rounds)


def _op_viewshed(ds, viewpoint, observer_height: float = 0.0, max_rounds: int = 64):
    from ..stages.viewshed import viewshed

    out, _vp = viewshed(ds, tuple(viewpoint), observer_height=observer_height,
                        max_rounds=max_rounds)
    return out


def _op_flow_direction(ds):
    from ..stages.hydrology import flow_direction

    return flow_direction(ds)


def _op_flow_accumulation(ds, max_rounds: int = 64):
    from ..stages.hydrology import flow_accumulation

    return flow_accumulation(ds, max_rounds=max_rounds)


def _op_read_geotiffs(ds, path: str):
    from ..sources.raster_ingest import read_geotiffs

    return read_geotiffs(path)


def _op_write_geotiffs(ds, out_dir: str, extent, tile_layout, epsg: int = 4326, **kw):
    from ..sources.raster_ingest import write_geotiffs

    write_geotiffs(ds, out_dir, _layout_from_args(extent, tile_layout), epsg=epsg, **kw)
    return ds


def _op_read_geojson(ds, path: str):
    from ..core.geojson import read_geojson

    return read_geojson(path)


def _op_read_shapefiles(ds, path: str):
    from ..core.shapefile import read_shapefile

    return read_shapefile(path)


def _op_bm25_rank(ds, terms, top_k: int = 20, **kw):
    from ..stages.retrieval import bm25_rank

    return bm25_rank(ds, list(terms), top_k=top_k, **kw)


def _op_read_geoparquet(ds, path: str, columns=None):
    from ..core.geoparquet import read_geoparquet

    return read_geoparquet(path, columns=columns)


def _op_write_geoparquet(ds, path: str, wkb_col: str = "wkb"):
    from ..core.geoparquet import write_geoparquet

    write_geoparquet(ds, path, wkb_col=wkb_col)
    return ds


def _op_read_rasters(ds, path: str):
    from ..sources.raster_ingest import read_raster_files

    return read_raster_files(path)


def _op_tile_to_layout(ds, extent, tile_layout):
    from ..sources.raster_ingest import tile_to_layout

    return tile_to_layout(ds, _layout_from_args(extent, tile_layout))


def _op_equalize(ds):
    from ..stages.enhance import equalize_layer

    return equalize_layer(ds)


def _op_normalize(ds, new_min: float, new_max: float):
    from ..stages.enhance import normalize_layer

    return normalize_layer(ds, new_min, new_max)


def _op_sigmoidal(ds, alpha: float = 0.5, beta: float = 10.0):
    from ..stages.enhance import sigmoidal_contrast

    return sigmoidal_contrast(ds, alpha, beta)


def _op_reclassify(ds, breaks):
    from ..stages.layer_ops import layer_reclassify

    return layer_reclassify(ds, breaks)


def _op_morans_local(ds):
    from ..stages.autocorr import morans_i_local

    return morans_i_local(ds)


def _op_getis_ord(ds):
    from ..stages.autocorr import getis_ord_gstar

    return getis_ord_gstar(ds)


def _op_pack_shards(ds, budget: int, id_col: str = "doc_id",
                    tokens_col: str = "n_tokens"):
    from ..stages.agg import pack_token_shards

    return pack_token_shards(ds, budget, id_col=id_col, tokens_col=tokens_col)


def _op_pack_spans(ds, budget: int, id_col: str = "doc_id",
                   tokens_col: str = "n_tokens"):
    from ..stages.agg import pack_token_spans

    return pack_token_spans(ds, budget, id_col=id_col, tokens_col=tokens_col)


def _op_quality_scorer(ds, **kw):
    import inspect

    from ..functions.text_analysis import HashedNgramScorer
    from ..state.pool import actor_pool_size

    inspect.signature(HashedNgramScorer).bind(**kw)  # unknown keys fail here, not in an actor
    return ds.map_batches(HashedNgramScorer, fn_constructor_kwargs=kw,
                          concurrency=actor_pool_size(2),
                          batch_format="pyarrow", zero_copy_batch=True)


def _op_line_freq_filter(ds, min_count: int = 2, delim: str = "\n",
                         id_col: str = "doc_id", text_col: str = "text",
                         key: str = "text"):
    from ..stages.dedup import line_frequency_filter

    return line_frequency_filter(ds, min_count=min_count, delim=delim,
                                 id_col=id_col, text_col=text_col, key=key)


def _op_temporal_composite(ds, fn: str = "median"):
    from ..stages.temporal import temporal_composite

    return temporal_composite(ds, fn)


def _op_temporal_trend(ds):
    from ..stages.temporal import temporal_trend

    return temporal_trend(ds)


def _op_url_canonicalize(ds, url_col: str = "url"):
    from ..functions.url_ops import canonicalize_batch

    return ds.map_batches(
        lambda b: canonicalize_batch(b, url_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _op_gopher_repetition(ds, id_col: str = "doc_id", text_col: str = "text"):
    from ..functions.text_analysis import ngram_repetition_batch

    return ds.map_batches(
        lambda b: ngram_repetition_batch(b, id_col=id_col, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _op_weighted_sample(ds, id_col: str, weight_col: str, k: int):
    from ..stages.sample import weighted_sample_topk

    return weighted_sample_topk(ds, id_col, weight_col, k)


def _op_render_png(ds, breaks, colors, nodata_color=(0, 0, 0, 0)):
    """Tile layer -> (key_col, key_row, png:binary) via ColorMap. The last
    mile of the GeoTrellis ETL (render a pyramid level to map tiles)."""
    import pyarrow as pa

    from ..core.raster import decode_tile
    from ..core.render import ColorMap, render_tile_png

    cm = ColorMap([float(b) for b in breaks],
                  [tuple(c) for c in colors], tuple(nodata_color))

    def fn(b: pa.Table) -> pa.Table:
        pngs = []
        for row in b.to_pylist():
            t = decode_tile(row["cells"], row["cols"], row["rows"], row["cell_type"])
            pngs.append(render_tile_png(t, cm))
        return pa.table({"key_col": b["key_col"], "key_row": b["key_row"],
                         "png": pa.array(pngs, pa.binary())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _op_pyramid_up_levels(ds, catalog: str, name: str, zoom: int, down_to: int = 0):
    import ray.data

    from ..stages.pyramid import pyramid_up_levels

    paths = pyramid_up_levels(ds, catalog, name, zoom, down_to)
    import pyarrow as pa

    return ray.data.from_arrow(pa.table({
        "zoom": pa.array(sorted(paths), pa.int32()),
        "path": pa.array([paths[z] for z in sorted(paths)], pa.string()),
    }))


def _op_zonal_fractional(ds, scale_num: int, scale_den: int,
                         off_x_num: int = 0, off_y_num: int = 0):
    from ..stages.stats import zonal_stats_fractional_grid

    return zonal_stats_fractional_grid(ds, scale_num, scale_den,
                                       off_x_num, off_y_num)


def _op_simplify(ds, tolerance: float, wkb_col: str = "wkb"):
    """Douglas-Peucker simplify every geometry in a WKB column (wkb.decode
    dict shape: LineString 'coords', Polygon 'rings' — rings keep >= 4
    points, simplify_geom's conservative fallback)."""
    import numpy as np
    import pyarrow as pa

    from ..core.geom import simplify_dp
    from ..core.wkb import decode as wkb_decode
    from ..core.wkb import encode as wkb_encode

    def simp(g: dict) -> dict:
        t = g["type"]
        if t == "LineString":
            return {"type": t, "coords": simplify_dp(g["coords"], tolerance)}
        if t == "Polygon":
            rings = []
            for ring in g["rings"]:
                s = simplify_dp(ring, tolerance)
                rings.append(s if len(s) >= 4 else np.asarray(ring, np.float64))
            return {"type": t, "rings": rings}
        if t.startswith("Multi"):
            return {"type": t, "parts": [simp(p) for p in g["parts"]]}
        return g

    def fn(b: pa.Table) -> pa.Table:
        out = [wkb_encode(simp(wkb_decode(v))) for v in b[wkb_col].to_pylist()]
        i = b.schema.get_field_index(wkb_col)
        return b.set_column(i, wkb_col, pa.array(out, pa.binary()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


for _name, _fn in {
    "read.parquet": _op_read_parquet,
    "transform.enrich": _op_enrich,
    "transform.assign_keys": _op_assign_keys,
    "join.pip": _op_pip_join,
    "join.voronoi": _op_voronoi_assign,
    "agg.tile_assignments": _op_tile_assignments,
    "filter.expr": _op_filter_expr,
    "transform.select": _op_select,
    "write.layer": _op_write_layer,
    "write.parquet": _op_write_parquet,
    "local.unary": _op_local_unary,
    "local.scalar": _op_local_scalar,
    "focal.mean": _op_focal_mean,
    "focal.op": _op_focal,
    "focal.convolve": _op_focal_convolve,
    "focal.slope": _op_focal_slope,
    "focal.aspect": _op_focal_aspect,
    "focal.hillshade": _op_focal_hillshade,
    "transform.resample_tiles": _op_resample_tiles,
    "focal.cost_distance": _op_cost_distance,
    "focal.viewshed": _op_viewshed,
    "hydrology.flow_direction": _op_flow_direction,
    "hydrology.flow_accumulation": _op_flow_accumulation,
    "buffer.tiles": _op_buffer_tiles,
    "transform.reproject": _op_reproject_points,
    "transform.reproject-layer": _op_reproject_layer,
    "transform.spacetime_key": _op_spacetime_key,
    "dedup.exact": _op_dedup_exact,
    "dedup.keep_best": _op_keep_best,
    "agg.partial_groupby": _op_partial_groupby,
    "agg.sort_grouped_top_k": _op_sort_grouped_top_k,
    "agg.count_distinct": _op_count_distinct,
    "agg.grouped_quantile": _op_grouped_quantile,
    "agg.grouped_mode": _op_grouped_mode,
    "window.moving_sum": _op_moving_window_sum,
    "window.as_of": _op_as_of,
    "rasterize.features": _op_rasterize,
    "transform.clip_to_grid": _op_clip_to_grid,
    "pyramid.up_levels": _op_pyramid_up_levels,
    "render.png": _op_render_png,
    "enhance.equalize": _op_equalize,
    "enhance.normalize": _op_normalize,
    "enhance.sigmoidal": _op_sigmoidal,
    "local.reclassify": _op_reclassify,
    "focal.morans_local": _op_morans_local,
    "focal.getis_ord": _op_getis_ord,
    "dedup.line_freq": _op_line_freq_filter,
    "transform.quality_score": _op_quality_scorer,
    "transform.pack_shards": _op_pack_shards,
    "transform.pack_spans": _op_pack_spans,
    "temporal.composite": _op_temporal_composite,
    "temporal.trend": _op_temporal_trend,
    "transform.url_canonicalize": _op_url_canonicalize,
    "transform.gopher_repetition": _op_gopher_repetition,
    "sample.weighted_topk": _op_weighted_sample,
    "read.rasters": _op_read_rasters,
    "read.geotiffs": _op_read_geotiffs,
    "write.geotiffs": _op_write_geotiffs,
    "read.geojson": _op_read_geojson,
    "read.shapefiles": _op_read_shapefiles,
    "read.geoparquet": _op_read_geoparquet,
    "retrieval.bm25": _op_bm25_rank,
    "write.geoparquet": _op_write_geoparquet,
    "transform.tile_to_layout": _op_tile_to_layout,
    "agg.zonal_fractional": _op_zonal_fractional,
    "transform.simplify": _op_simplify,
}.items():
    register_op(_name, _fn)
