"""Seeded inputs, all generated by the repository's pure fixtures.

A seed picks a window of the pages corpus (``gen_pages_table(n, start=...)``)
and, through one ``numpy`` generator, every other random choice: the planted
duplicates of ``curation``, the bbox and lookup sets of ``layer_store``. The
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# keyed-point columns shared by layer_store and tile_join
POINT_COLS = ["url", "lat", "lon", "h", "key_col", "key_row", "sfc", "time_bin"]
ZOOM = 8


def window_start(seed: int) -> int:
    """First page id of the seed's window; windows of different seeds lie
    far apart in the corpus so they share no pages."""
    return 1_000_000 * (1 + seed % 1000)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@functools.lru_cache(maxsize=4)
def pages(seed: int, n: int, offset: int = 0) -> pa.Table:
    """The seed's window of n pages; recent windows are kept, so
    workloads of one run share them."""
    from geotrellis_ray.fixtures import gen_pages_table

    return gen_pages_table(n, start=window_start(seed) + offset)


def write_shards(table: pa.Table, path: str, shards: int) -> str:
    """One Parquet file per shard, so ``read_parquet`` reads in parallel."""
    os.makedirs(path, exist_ok=True)
    step = -(-table.num_rows // shards)
    for s in range(shards):
        pq.write_table(table.slice(s * step, step), os.path.join(path, f"part-{s:03d}.parquet"))
    return path


def curation_docs(seed: int, page_table: pa.Table, dup_share: float) -> pa.Table:
    """(doc_id, text) of the window, where a seeded ``dup_share`` of the docs
    carry an exact copy of another doc's text."""
    n = page_table.num_rows
    r = rng(seed, 1)
    src = np.arange(n)
    dups = r.choice(n, size=int(n * dup_share), replace=False)
    src[dups] = r.integers(0, n, size=len(dups))
    text = page_table["text"].take(pa.array(src))
    ids = pa.array(window_start(seed) + np.arange(n, dtype=np.int64))
    return pa.table({"doc_id": ids, "text": text})


def keyed_points(page_table: pa.Table, batch_rows: int = 8192) -> pa.Table:
    """Pages -> keyed points, in process, through the flagship's public
    enrichment functions."""
    from geotrellis_ray.stages.enrich import assign_keys_batch, enrich_batch

    parts = []
    for off in range(0, page_table.num_rows, batch_rows):
        b = enrich_batch(page_table.slice(off, batch_rows))
        b = assign_keys_batch(b, zoom=ZOOM)
        parts.append(b.select(POINT_COLS))
    return pa.concat_tables(parts).combine_chunks()


def bbox_queries(seed: int, points: pa.Table, count: int, half_width: int = 3) -> list[tuple]:
    """Seeded (col_min, row_min, col_max, row_max) boxes, each centred on
    the tile of a seeded keyed point, so every box returns rows."""
    r = rng(seed, 2)
    idx = r.integers(0, points.num_rows, size=count)
    cols = points["key_col"].to_numpy()[idx]
    rows = points["key_row"].to_numpy()[idx]
    return [(int(c) - half_width, int(w) - half_width, int(c) + half_width, int(w) + half_width)
            for c, w in zip(cols, rows)]


def lookup_keys(seed: int, points: pa.Table, count: int) -> list[tuple[int, int]]:
    """Seeded (key_col, key_row) of existing keyed points."""
    r = rng(seed, 3)
    idx = r.integers(0, points.num_rows, size=count)
    cols = points["key_col"].to_numpy()[idx]
    rows = points["key_row"].to_numpy()[idx]
    return [(int(c), int(w)) for c, w in zip(cols, rows)]
