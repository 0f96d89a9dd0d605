"""The flagship pipeline — the BASELINE.json headline metric:

    read pages.parquet -> extract_text -> geocode -> assign SpatialKey+SFC
    -> STRtree point-in-polygon join (actor pool) -> tile-assignment
    aggregation -> (optionally) layer write

One linear streaming chain: no branch recomputes the enrichment, nothing
materializes the full input; the only shuffle is the tiny groupby over
per-batch partial aggregates. Throughput metric = pages/sec end-to-end.
"""

from __future__ import annotations

from typing import Any

from ..stages.enrich import assign_keys_batch, enrich_batch
from ..stages.pip_join import pip_join
from ..stages.tile_agg import tile_assignments


def enriched_pages(
    ds,
    zoom: int = 8,
    s2_level: int | None = 12,
    hex_res: int | None = 6,
    verify_text: bool = False,
):
    """pages Dataset -> enriched+keyed Dataset (text, lat/lon, h, keys, sfc,
    cell ids, time_bin). Stateless vectorized map_batches stages."""
    # num_cpus=0.5 serves two purposes: finer-grained scheduling for the
    # cheap vectorized stages, and (critically) it blocks Ray's task->actor
    # operator fusion — fused, the whole chain would run on only the PIP
    # actor pool and the other cores would idle (measured 3x slower)
    ds = ds.map_batches(
        lambda b: enrich_batch(b, verify_text=verify_text),
        batch_format="pyarrow",
        zero_copy_batch=True,
        num_cpus=0.5,
    )
    return ds.map_batches(
        lambda b: assign_keys_batch(b, zoom=zoom, s2_level=s2_level, hex_res=hex_res),
        batch_format="pyarrow",
        zero_copy_batch=True,
        num_cpus=0.5,
    )


def flagship(
    pages_ds,
    polygons_ref: Any,
    zoom: int = 8,
    batch_size: int = 8192,
    verify_text: bool = False,
):
    """Full headline chain -> (joined_ds, tile_assignments_ds).

    ``joined_ds``: one row per page with polygon_id (primary hit or -1) and
    n_hits — left-outer PIP join, row count preserved.
    ``tile_assignments_ds``: (key_col, key_row, sfc, n_docs, n_hits).
    Both are lazy; consume with write_parquet / to_pandas / count.
    """
    enriched = enriched_pages(pages_ds, zoom=zoom, verify_text=verify_text)
    joined = pip_join(enriched, polygons_ref, mode="annotate", batch_size=batch_size)
    tiles = tile_assignments(joined, sum_cols=("n_hits",))
    return joined, tiles


def flagship_resumable(pages_dir: str, out_dir: str, zoom: int = 8, shard_size: int = 2):
    """The north_rule integration: the flagship join over a sharded pages
    corpus with per-shard lineage checkpoints — a killed run restarts and
    skips completed shards (pipelines/resume.py). Output: per-shard Parquet
    dirs of join rows (url, polygon_id, n_hits, key_col, key_row, sfc).
    Returns the run metrics dict (shards/processed/skipped/rows)."""
    import glob

    import ray
    import ray.data

    from ..fixtures import gen_polygons_table
    from ..pipelines.resume import run_resumable

    polys_ref = ray.put(gen_polygons_table())
    files = sorted(glob.glob(f"{pages_dir}/*.parquet"))

    def pipeline(shard_files):
        ds = ray.data.read_parquet(shard_files)
        joined, _tiles = flagship(ds, polys_ref, zoom=zoom)
        return joined.select_columns(["url", "polygon_id", "n_hits", "key_col", "key_row", "sfc"])

    # content hashing disabled for speed: shard identity is the input
    # fingerprint; outputs are deterministic given the shard (tested)
    return run_resumable(files, out_dir, pipeline, shard_size=shard_size,
                         stage_name="flagship", hasher=None)
