"""Traced run: the per-layer metrics.

A traced run sets up four workloads in one Ray session (``tile_join``
doing both joins, the tile table and the previous crawl, so ``crawl_join``
needs no sweep of its own) and runs each once with a span (name, start, end, parent) around every call into a layer
of ``geotrellis_ray``. The spans are kept in memory and written as one JSON
trace at the end (``.bench_out/trace-<workload>-<seed>.json``). Besides the
spans it records:

- per Ray Data operator, grouped into the stage it belongs to, the summed
  task wall, task CPU and rows out, read from the executed plan's stats;
- the in-process cost of each public batch function on a fixed sample of
  the window's batches (``us_per_row``);
- the flagship's fixed floor and per-doc slope from passes at two sizes;
- the tracing overhead: traced against untraced ``docs_per_s`` of the
  run's own workload, alternating while another pair fits in ``--seconds``.

The flagship is split at public boundaries so Ray's operator stats survive:
the ``joined`` Dataset that ``pipelines.flagship.flagship`` returns is
materialized, then ``stages.tile_agg.tile_assignments`` runs on it. What
``read_layer`` plans (its SFC ranges and its Parquet scan) is recorded by
wrapping the functions it calls for the duration of the call. Each traced
pass passes the workload's own output check.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

from . import inputs
from .probes import StorePeak, Window
from .workloads import BUDGET, WORKLOADS, _tables

SWEEP = ("flagship", "curation", "layer_store", "tile_join")
JOIN_SIDES = ("small", "large")
SAMPLE_ROWS = 4096  # rows per batch of the in-process sample
SAMPLE_BATCHES = 2
KERNEL_REPEATS = 3
TRACED_BBOXES = 4
TRACED_LOOKUPS = 8

# Ray Data operators, in execution order, are assigned to the stage whose
# marker they contain; an operator without a marker stays in the stage
# before it.
STAGES = {
    "flagship": [("read", "ReadParquet"), ("enrich_keys", "MapBatches(<lambda>)"),
                 ("pip_join", "PipJoiner")],
    "curation": [("scorer", "HashedNgramScorer"), ("hash_pack", "keep_hash_pack"),
                 ("sort", "Sort"), ("pack", "unpack")],
    "layer_store": [("read", "")],
}


class Tracer:
    """Spans kept in memory; ``span`` nests through a stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    @staticmethod
    def seconds(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**meta, "spans": self.spans}, f)


@contextmanager
def recording(tracer: Tracer, owner, attr: str, span: str):
    """Replaces ``owner.attr`` by a wrapper that records a span and
    (seconds, result) for each call made through it, e.g. by a layer
    function that looks the name up at call time."""
    real = getattr(owner, attr)
    calls: list[tuple[float, object]] = []

    def wrapper(*args, **kwargs):
        with tracer.span(span) as sp:
            out = real(*args, **kwargs)
        calls.append((Tracer.seconds(sp), out))
        return out

    setattr(owner, attr, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, attr, real)


def _exec_order(summary) -> list:
    out = []
    for p in summary.parents:
        out += _exec_order(p)
    return out + list(summary.operators_stats)


def stage_stats(ds, stages: list[tuple[str, str]], into: dict, prefix: str) -> None:
    """Adds {prefix}.{stage}.{wall_s,cpu_s,rows_out} of an executed Dataset
    to ``into``; rows_out is what the stage's last operator emitted."""
    current = stages[0][0]
    names = [s for s, _ in stages]
    got: dict[str, float] = {}
    for op in _exec_order(ds._plan.stats().to_summary()):
        for stage, marker in stages[names.index(current):]:
            if marker and marker in op.operator_name:
                current = stage
        key = f"{prefix}.{current}"
        got[f"{key}.wall_s"] = got.get(f"{key}.wall_s", 0.0) + (op.wall_time or {}).get("sum", 0.0)
        got[f"{key}.cpu_s"] = got.get(f"{key}.cpu_s", 0.0) + (op.cpu_time or {}).get("sum", 0.0)
        rows = (op.output_num_rows or {}).get("sum")
        if rows is not None:
            got[f"{key}.rows_out"] = float(rows)
    for k, v in got.items():
        into[k] = into.get(k, 0.0) + v


def us_per_row(fn, batches: list[pa.Table]) -> tuple[float, list]:
    """Median over repeats of fn's in-process µs per input row, and the
    outputs of the last repeat."""
    rows = sum(b.num_rows for b in batches)
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        outs = [fn(b) for b in batches]
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / rows, outs


def kernels(m: dict, seed: int, n: int) -> None:
    """In-process µs/row of each public batch function on a fixed sample:
    the first SAMPLE_BATCHES batches of the seed's window."""
    from geotrellis_ray.fixtures import gen_polygons_table
    from geotrellis_ray.functions.text_analysis import HashedNgramScorer, token_count_batch
    from geotrellis_ray.stages.dedup import content_hash_batch
    from geotrellis_ray.stages.enrich import assign_keys_batch, enrich_batch
    from geotrellis_ray.stages.pip_join import PipJoiner
    from geotrellis_ray.stages.tile_agg import partial_tile_counts

    window = inputs.pages(seed, n)
    sample = [window.slice(i * SAMPLE_ROWS, SAMPLE_ROWS) for i in range(SAMPLE_BATCHES)]
    m["stages.enrich.enrich_us_per_row"], enriched = us_per_row(enrich_batch, sample)
    m["stages.enrich.keys_us_per_row"], keyed = us_per_row(
        lambda b: assign_keys_batch(b, zoom=inputs.ZOOM, s2_level=12, hex_res=6), enriched)
    joiner = PipJoiner(gen_polygons_table(), mode="annotate")
    m["stages.pip_join.us_per_row"], joined = us_per_row(joiner, keyed)
    m["stages.pip_join.hits_per_row"] = (sum(int(j["n_hits"].to_numpy().sum()) for j in joined)
                                         / sum(j.num_rows for j in joined))
    m["stages.tile_agg.partial_us_per_row"], _ = us_per_row(partial_tile_counts, joined)
    docs = [pa.table({"doc_id": pa.array(np.arange(b.num_rows, dtype=np.int64)),
                      "text": b["text"]}) for b in sample]
    m["functions.text_analysis.scorer_us_per_row"], _ = us_per_row(HashedNgramScorer(), docs)
    m["functions.text_analysis.token_count_us_per_row"], _ = us_per_row(token_count_batch, docs)
    m["stages.dedup.content_hash_us_per_row"], _ = us_per_row(content_hash_batch, docs)


class TracedSweep:
    """One traced pass of every workload, sharing one Ray session."""

    def __init__(self, runner, tracer: Tracer):
        self.runner = runner
        self.tr = tracer
        self.m: dict[str, float] = {}
        self.attempted = self.failed = 0
        self.residue = StorePeak()
        self.residue_peak = 0.0
        self.store_peak = 0.0

    def checked(self, name: str, err: str | None) -> None:
        self.attempted += 1
        if err:
            self.failed += 1
            self.runner.errors.append(f"traced {name}: {err}")

    def after_pass(self, win: Window) -> None:
        self.store_peak = max(self.store_peak, win.store_peak_mb)
        self.residue_peak = max(self.residue_peak, self.residue.used() / 1e6)

    # -- flagship ---------------------------------------------------------
    def flagship_pass(self, w) -> pa.Table:
        import ray.data

        from geotrellis_ray.pipelines.flagship import flagship
        from geotrellis_ray.stages.tile_agg import tile_assignments

        tr = self.tr
        with tr.span("pipelines.flagship"):
            with tr.span("pipelines.flagship.flagship.joined"):
                joined, _ = flagship(ray.data.read_parquet(w.pages_dir), w.polys_ref,
                                     zoom=inputs.ZOOM)
                joined = joined.materialize()
            with tr.span("stages.tile_agg.tile_assignments") as final:
                tiles = _tables(tile_assignments(joined, sum_cols=("n_hits",)))
        self.joined, self.final_s = joined, tr.seconds(final)
        return tiles

    def flagship(self, w) -> None:
        import ray

        from geotrellis_ray.stages.tile_agg import partial_tile_counts

        with Window() as win:
            tiles = self.flagship_pass(w)
        self.after_pass(win)
        self.checked("flagship", w.check_pass(tiles))
        self.m["stages.tile_agg.final_s"] = self.final_s
        stage_stats(self.joined, STAGES["flagship"], self.m, "ray_data.flagship")
        # rows the per-block combiner hands to the final merge
        self.m["stages.tile_agg.partial_rows"] = float(sum(
            partial_tile_counts(b).num_rows for b in ray.get(self.joined.to_arrow_refs())))
        kernel_s = w.n * 1e-6 * sum(self.m[k] for k in (
            "stages.enrich.enrich_us_per_row", "stages.enrich.keys_us_per_row",
            "stages.pip_join.us_per_row", "stages.tile_agg.partial_us_per_row"))
        self.m["ray_data.flagship.orchestration_cpu_share"] = 1 - kernel_s / win.cpu_s
        self.floor_and_slope(w)

    def floor_and_slope(self, w) -> None:
        """Untraced flagship walls, one pass each at a quarter and the whole
        window -> intercept (floor_s) and slope (us_per_doc)."""
        small_n = w.n // 4
        small_dir = inputs.write_shards(inputs.pages(w.seed, w.n).slice(0, small_n),
                                        os.path.join(w.work, "pages_quarter"), 2)
        walls = {}
        for n, path in ((small_n, small_dir), (w.n, w.pages_dir)):
            t0 = time.perf_counter()
            w.run_pass(path)
            walls[n] = time.perf_counter() - t0
        slope = (walls[w.n] - walls[small_n]) / (w.n - small_n)
        self.m["pipelines.flagship.us_per_doc"] = 1e6 * slope
        self.m["pipelines.flagship.floor_s"] = walls[small_n] - slope * small_n

    # -- curation ---------------------------------------------------------
    def curation_pass(self, w) -> pa.Table:
        import ray.data

        from geotrellis_ray.pipelines.curation import curation_chain

        with self.tr.span("pipelines.curation.curation_chain"):
            ds = curation_chain(ray.data.read_parquet(w.docs_dir), budget=BUDGET).materialize()
            out = _tables(ds)
        self.curated = ds
        return out

    def curation(self, w) -> None:
        import ray.data

        from geotrellis_ray.stages.agg import pack_token_shards

        with Window() as win:
            out = self.curation_pass(w)
        self.after_pass(win)
        self.checked("curation", w.check_pass(out))
        stage_stats(self.curated, STAGES["curation"], self.m, "ray_data.curation")
        self.m["stages.agg.sort_group_rows_in"] = self.m["ray_data.curation.hash_pack.rows_out"]
        self.m["stages.agg.groups_out"] = float(out.num_rows)
        # the packing stage again on its own input, to time it alone
        survivors = out.select(["doc_id", "n_tokens", "n_dupes"])
        with self.tr.span("stages.agg.pack_token_shards") as sp:
            repacked = _tables(pack_token_shards(ray.data.from_arrow(survivors), budget=BUDGET))
        self.m["stages.agg.pack_s"] = self.tr.seconds(sp)
        self.checked("pack_token_shards", None if repacked.sort_by("doc_id").equals(
            out.sort_by("doc_id").select(repacked.column_names)) else "repacked shards differ")
        kept = self.m["stages.agg.sort_group_rows_in"]
        kernel_s = 1e-6 * (w.n * self.m["functions.text_analysis.scorer_us_per_row"] + kept * (
            self.m["functions.text_analysis.token_count_us_per_row"]
            + self.m["stages.dedup.content_hash_us_per_row"]))
        self.m["ray_data.curation.orchestration_cpu_share"] = 1 - kernel_s / win.cpu_s

    # -- layer store ------------------------------------------------------
    def layer_write(self, w) -> str:
        with self.tr.span("sources.layer.write_layer"):
            return w.write()

    def layer_store(self, w) -> None:
        import ray.data

        import geotrellis_ray.sources.layer as layer
        from geotrellis_ray.core.layout import KeyBounds

        with Window() as win:
            name = self.layer_write(w)
        self.after_pass(win)
        self.m["sources.layer.write_s"] = win.wall_s
        self.checked("write_layer", w.check_write(name))
        path = layer.layer_path(w.catalog, w.layer, inputs.ZOOM)
        files = [os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")]
        self.m["sources.layer.files_written"] = float(len(files))
        self.m["sources.layer.bytes_written_per_input_byte"] = (
            sum(os.path.getsize(f) for f in files) / w.points.nbytes)

        plan, exe, ranges, range_s, listed, returned, read = [], [], [], [], 0, 0, 0
        for i in range(TRACED_BBOXES):
            c0, r0, c1, r1 = w.bboxes[i]
            with self.tr.span("sources.layer.read_layer", query=i) as sp, \
                    recording(self.tr, layer, "zorder_ranges", "core.sfc.zorder_ranges") as planned, \
                    recording(self.tr, ray.data, "read_parquet", "ray.data.read_parquet") as scans:
                ds = layer.read_layer(w.catalog, w.layer, inputs.ZOOM,
                                      intersects=KeyBounds(c0, r0, c1, r1))
            plan.append(self.tr.seconds(sp))
            with self.tr.span("sources.layer.read_layer.consume", query=i) as sp:
                got = _tables(ds).num_rows
            exe.append(self.tr.seconds(sp))
            self.checked(f"bbox {i}", None if got == w.bbox_rows[i] else
                         f"got {got} rows, expected {w.bbox_rows[i]}")
            stage_stats(ds, STAGES["layer_store"], self.m, "ray_data.layer_store")
            range_s += [seconds for seconds, _ in planned]
            ranges.append(sum(len(rs) for _, rs in planned))
            returned += got
            # Ray fuses the scan with the exact key filter, so the scan's own
            # rows are counted by running the scan read_layer planned again
            for _, scan in scans:
                listed += len(scan.input_files())
                read += scan.count()
        for k in ("wall_s", "cpu_s", "rows_out"):
            self.m[f"ray_data.layer_store.read.{k}"] /= TRACED_BBOXES
        self.m["sources.layer.read_plan_ms"] = 1000 * statistics.median(plan)
        self.m["sources.layer.read_exec_ms"] = 1000 * statistics.median(exe)
        self.m["sources.layer.files_listed_per_query"] = listed / TRACED_BBOXES
        self.m["sources.layer.rows_returned_per_row_read"] = returned / max(read, 1)
        self.m["core.sfc.ranges_per_query"] = float(statistics.mean(ranges))
        self.m["core.sfc.range_ms"] = 1000 * statistics.median(range_s) if range_s else 0.0

        lookup_s, rows = [], 0
        for i in range(TRACED_LOOKUPS):
            c, r = w.lookups[i]
            with self.tr.span("sources.layer.value_read", lookup=i) as sp:
                got = layer.value_read(w.catalog, w.layer, inputs.ZOOM, c, r).num_rows
            lookup_s.append(self.tr.seconds(sp))
            rows += got
            self.checked(f"lookup {i}", None if got == w.lookup_rows[i] else
                         f"got {got} rows, expected {w.lookup_rows[i]}")
        self.m["sources.layer.value_read_ms"] = 1000 * statistics.median(lookup_s)
        self.m["sources.layer.rows_per_lookup"] = rows / TRACED_LOOKUPS

    # -- tile join --------------------------------------------------------
    def tile_join_pass(self, w, sides: tuple[str, ...] = JOIN_SIDES):
        out = []
        self.joins = {}
        for side in sides:
            with self.tr.span(f"stages.join.{side}_right") as sp:
                with self.tr.span("stages.join.spatial_join"):
                    joined = getattr(w, f"join_{side}")().materialize()
                with self.tr.span("stages.agg.partial_groupby"):
                    out.append(getattr(w, f"group_{side}")(joined))
            self.joins[side] = (joined, self.tr.seconds(sp))
        return tuple(out)

    def tile_join(self, w) -> None:
        with Window() as win:
            out = self.tile_join_pass(w)
        self.after_pass(win)
        self.checked("tile_join", w.check_pass(out, JOIN_SIDES))
        for side, (joined, seconds) in self.joins.items():
            self.m[f"stages.join.{side}_right_s"] = seconds
            stage_stats(joined, [(f"{side}_right", "")], self.m, "ray_data.tile_join")
        self.m["stages.join.small_right_rows"] = float(w.tiles.num_rows)
        self.m["stages.join.large_right_rows"] = float(w.prev.num_rows)

    # -- overhead ---------------------------------------------------------
    def overhead(self, w, seconds: float) -> None:
        """Alternate untraced and traced rounds of the run's workload while
        another pair fits in ``seconds`` (at least one pair);
        overhead = 1 - traced / untraced docs_per_s."""
        traced = {"flagship": self.flagship_pass, "curation": self.curation_pass,
                  "layer_store": self.layer_write,
                  "tile_join": lambda w: self.tile_join_pass(w, w.sides),
                  "crawl_join": lambda w: self.tile_join_pass(w, w.sides)}[w.name]
        plain = w.write if w.name == "layer_store" else w.run_pass
        check = w.check_write if w.name == "layer_store" else w.check_pass
        walls = {False: [], True: []}
        wins = []
        deadline = time.perf_counter() + seconds
        while not walls[True] or time.perf_counter() + walls[False][-1] + walls[True][-1] < deadline:
            for is_traced in (False, True):
                with Window() as win:
                    out = self.runner.call(lambda: traced(w) if is_traced else plain(), 120)
                self.checked(f"{w.name} (traced={is_traced})", check(out))
                walls[is_traced].append(win.wall_s)
                wins.append(win)
        dps = {k: w.n / statistics.median(v) for k, v in walls.items()}
        self.m["trace.untraced_docs_per_s"] = dps[False]
        self.m["trace.traced_docs_per_s"] = dps[True]
        self.m["trace.overhead_frac"] = 1 - dps[True] / dps[False]
        wall = sum(x.wall_s for x in wins)
        self.m["host.steal_s"] = sum(x.steal_s for x in wins)
        self.m["host.ext_load_frac"] = sum(x.ext_load_frac * x.wall_s for x in wins) / wall


def traced_run(runner, w, setup_s: float):
    """-> (attempted, failed, metrics, report) of a traced run."""
    tr = Tracer()
    sweep = TracedSweep(runner, tr)
    kernels(sweep.m, w.seed, w.n)
    # a crawl_join run traces both joins on its own inputs
    by_name = {"tile_join" if w.name == "crawl_join" else w.name: w}
    for name in SWEEP:
        if name not in by_name:
            other = WORKLOADS[name](w.seed, runner.work)
            other.prepare()
            other.start()
            if name == "layer_store":
                other.warm()
            by_name[name] = other
    for name in SWEEP:
        with tr.span(f"workload.{name}"):
            runner.call(lambda: getattr(sweep, name)(by_name[name]), 170)
    sweep.overhead(w, runner.args.seconds)
    sweep.m["ray_data.store_peak_mb"] = sweep.store_peak
    sweep.m["ray_data.store_residue_mb"] = sweep.residue_peak
    tr.write(os.path.join(runner.root, ".bench_out", f"trace-{w.name}-{w.seed}.json"),
             {"workload": w.name, "seed": w.seed, "setup_s": setup_s})
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(sweep.m.items())}
    return sweep.attempted, sweep.failed, metrics, {"spans": len(tr.spans)}


def unit_of(name: str) -> str:
    units = (("us_per_row", "us/row"), ("us_per_doc", "us/doc"), ("docs_per_s", "docs/s"),
             ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("rows_out", "rows"), ("_rows", "rows"),
             ("rows_in", "rows"), ("groups_out", "rows"), ("rows_per_lookup", "rows"),
             ("files_written", "count"), ("_per_query", "count"))
    return next((unit for suffix, unit in units if name.endswith(suffix)), "ratio")
