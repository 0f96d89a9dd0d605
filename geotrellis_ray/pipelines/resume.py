"""Resumable execution with per-partition lineage records (north_rule
mandate; absent in the reference, which reruns whole jobs — SURVEY.md §4).

Unit of resumption: an INPUT SHARD (one or more parquet fragments). Each
shard runs the full streaming chain independently and writes:

    {out_dir}/shard={k}/part-*.parquet          (atomic: tmp dir + rename)
    {out_dir}/_lineage/shard-{k}.json           (the lineage record)

Lineage record: stage name, input files, row counts in/out, wall ms, output
content hash (order-insensitive), engine fingerprint. Resume = list lineage
dir, skip shards whose record exists and matches the input fingerprint;
reprocess only the missing/invalid ones. Output paths are shard-deterministic
so reruns are idempotent (overwrite the same dirs).

Scale note: shards are processed as a rolling window of independent Ray Data
pipelines (each itself parallel over fragments); on a cluster the same layout
lets a restarted driver skip finished work in O(#shards) metadata reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Callable

import pyarrow as pa

from ..state.pool import cluster_cpus


def _content_hash(table: pa.Table) -> str:
    """Order-insensitive content hash: xor of row sha256s over canonical CSV
    of sorted columns."""
    if table.num_rows == 0:
        return "empty"
    cols = sorted(table.column_names)
    t = table.select(cols)
    acc = 0
    rows = list(zip(*[t[c].to_pylist() for c in cols]))
    for r in rows:
        h = int.from_bytes(hashlib.sha256(repr(r).encode()).digest()[:16], "big")
        acc ^= h
    return f"{acc:032x}"


def _stabilize_fsspec_http_import() -> None:
    """Ray's path resolution lazily does ``from fsspec.implementations.http
    import HTTPFileSystem`` and catches ModuleNotFoundError (absent aiohttp).
    Under CONCURRENT imports from several driver threads the failed import can
    instead surface as a bare ImportError (partially-initialized module seen
    by the second thread), which Ray does NOT catch. Resolve the import once
    up front; if it fails, install a sentinel module with an HTTPFileSystem
    class nothing is an instance of — semantically identical to Ray's
    ModuleNotFoundError branch, but race-free."""
    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        import sys
        import types

        m = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel: isinstance() is always False
            pass

        m.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = m


def _shard_stats(tmp_out: str, hasher: Callable[[pa.Table], str] | None) -> tuple[int, int, str | None]:
    """(rows_out, bytes_out, content_hash) for a written shard dir — WITHOUT
    collecting the shard's output on the driver. Row counts come from parquet
    FOOTER metadata (no data pages read); the optional hash streams one row
    group at a time and xor-combines the per-group hashes (the default
    ``_content_hash`` is an xor of per-row hashes, so per-group xor yields the
    identical value as hashing the concatenated table)."""
    import pyarrow.parquet as pq

    rows = 0
    nbytes = 0
    acc = 0
    hashed_any = False
    for f in sorted(os.listdir(tmp_out)):
        if not f.endswith(".parquet"):
            continue
        path = os.path.join(tmp_out, f)
        pf = pq.ParquetFile(path)
        rows += pf.metadata.num_rows
        nbytes += os.path.getsize(path)
        if hasher is not None:
            for rg in range(pf.metadata.num_row_groups):
                h = hasher(pf.read_row_group(rg))
                if h != "empty":
                    acc ^= int(h, 16)
                    hashed_any = True
    content_hash = None
    if hasher is not None:
        content_hash = f"{acc:032x}" if hashed_any else "empty"
    return rows, nbytes, content_hash


def run_resumable(
    input_files: list[str],
    out_dir: str,
    pipeline_fn: Callable,
    shard_size: int = 1,
    stage_name: str = "flagship",
    hasher: Callable[[pa.Table], str] | None = _content_hash,
    window: int | None = None,
) -> dict:
    """Run ``pipeline_fn(files) -> ray.data.Dataset`` over shards of the
    input file list with lineage checkpointing. Returns run metrics
    including how many shards were skipped (lineage hits).

    Shards execute as a bounded WINDOW of concurrent Ray Data pipelines
    (``window`` driver threads, default cpus//8 capped at 4): small shards
    can't keep a big cluster busy one at a time, while an unbounded fan-out
    would oversubscribe the object store. Shard outputs are never collected
    on the driver — rows/bytes come from parquet footers and the optional
    content hash streams per row group (``hasher`` must therefore be
    order-insensitive and xor-combinable, as the default is)."""
    import ray.data  # noqa: F401  (pipeline_fn returns Datasets)

    lineage_dir = os.path.join(out_dir, "_lineage")
    os.makedirs(lineage_dir, exist_ok=True)
    shards = [input_files[i : i + shard_size] for i in range(0, len(input_files), shard_size)]
    if window is None:
        window = max(1, min(4, cluster_cpus() // 8))
    skipped = 0
    total_rows = 0
    t_start = time.monotonic()
    todo: list[tuple[int, list[str], str, str]] = []
    for k, files in enumerate(shards):
        rec_path = os.path.join(lineage_dir, f"shard-{k}.json")
        fingerprint = hashlib.sha256(json.dumps(sorted(files)).encode()).hexdigest()[:16]
        if os.path.exists(rec_path):
            with open(rec_path) as f:
                rec = json.load(f)
            if rec.get("input_fingerprint") == fingerprint and rec.get("status") == "done":
                skipped += 1
                total_rows += rec.get("rows_out", 0)
                continue
        todo.append((k, files, rec_path, fingerprint))

    def process(k: int, files: list[str], rec_path: str, fingerprint: str) -> int:
        shard_out = os.path.join(out_dir, f"shard={k}")
        tmp_out = shard_out + ".tmp"
        shutil.rmtree(tmp_out, ignore_errors=True)
        shutil.rmtree(shard_out, ignore_errors=True)
        t0 = time.monotonic()
        ds = pipeline_fn(files)
        os.makedirs(tmp_out, exist_ok=True)
        ds.write_parquet(tmp_out)
        rows_out, bytes_out, content_hash = _shard_stats(tmp_out, hasher)
        os.replace(tmp_out, shard_out)
        rec = {
            "stage": stage_name,
            "shard": k,
            "input_files": files,
            "input_fingerprint": fingerprint,
            "rows_out": rows_out,
            "bytes_out": bytes_out,
            "wall_ms": int((time.monotonic() - t0) * 1000),
            "content_hash": content_hash,
            "status": "done",
        }
        with open(rec_path + ".tmp", "w") as f:
            json.dump(rec, f)
        os.replace(rec_path + ".tmp", rec_path)
        return rows_out

    processed = 0
    if todo:
        from concurrent.futures import ThreadPoolExecutor

        _stabilize_fsspec_http_import()
        pool = ThreadPoolExecutor(max_workers=min(window, len(todo)))
        # lazy submission: never more than `window` shards queued/running, so
        # a failed shard stops the run after at most window-1 extra shards
        # (in-flight ones finish and their lineage stays valid for resume)
        pending = list(todo)
        futures = []
        for _ in range(min(window, len(pending))):
            futures.append(pool.submit(process, *pending.pop(0)))
        try:
            i = 0
            while i < len(futures):
                rows = futures[i].result()
                processed += 1
                total_rows += rows
                i += 1
                if pending:
                    futures.append(pool.submit(process, *pending.pop(0)))
        finally:
            for f in futures:
                f.cancel()
            pool.shutdown(wait=True)
    return {
        "shards": len(shards),
        "processed": processed,
        "skipped": skipped,
        "rows_out": total_rows,
        "wall_ms": int((time.monotonic() - t_start) * 1000),
    }


def read_lineage(out_dir: str) -> list[dict]:
    ld = os.path.join(out_dir, "_lineage")
    if not os.path.isdir(ld):
        return []
    out = []
    for f in sorted(os.listdir(ld)):
        if f.endswith(".json"):
            with open(os.path.join(ld, f)) as fh:
                out.append(json.load(fh))
    return out
