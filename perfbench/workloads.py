"""The workloads. Each one prepares its seeded inputs, runs a closed loop
of operations through the public functions of ``geotrellis_ray`` and checks
every output against a reference computed outside the timed window.

- ``flagship``: pages -> ``read_parquet`` -> ``pipelines.flagship.flagship``
  -> tiles consumed. The paper's headline chain.
- ``curation``: (doc_id, text) with planted exact duplicates ->
  ``pipelines.curation.curation_chain`` consumed. One sort shuffle, no geo.
- ``layer_store``: rounds of a ``sources.layer.write_layer`` of the keyed
  points, a seeded bbox ``read_layer`` query and seeded ``value_read``
  lookups on the layer just written.
- ``tile_join`` and ``crawl_join``: keyed points joined through
  ``stages.join.spatial_join`` with a small right side (``tile_join``: the
  few-thousand-row tile table, on ``sfc``) or a large one (``crawl_join``:
  a previous crawl of the same size shifted by half the window, on ``h``),
  followed by ``partial_groupby``. The traced run does both joins.

An operation is a callable returning a summary; ``check`` compares the
summary with the reference and returns an error text or ``None``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import inputs

# Hash joins start num_partitions aggregator actors; chained joins sized
# beyond the cluster's CPUs can deadlock, so the joins stay at the CPU count.
JOIN_PARTITIONS = 4
BUDGET = 4096  # curation shard budget in tokens
PARQUET_SHARDS = 8


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    docs: int
    timeout_s: float


def _tables(ds) -> pa.Table:
    """Consume a Dataset fully, as one Arrow table."""
    import ray

    refs = ds.to_arrow_refs()
    parts = [t for t in ray.get(refs) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _sum(t: pa.Table, col: str) -> int:
    return int(pc.sum(t[col]).as_py() or 0) if t.num_rows else 0


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _first_error(*errs: str | None) -> str | None:
    return next((e for e in errs if e), None)


class Workload:
    name = ""
    window = 0  # pages in the seed's window; a run, set-up included, stays under a minute
    docs_kind = "pass"  # the operation docs_per_s and cpu_ms_per_doc are read from

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.n = self.window

    def prepare(self) -> None:
        """In-process inputs and references; runs before Ray starts."""

    def start(self) -> None:
        """Puts the inputs into the Ray session."""

    def warm(self) -> None:
        """One untimed round."""
        self.check_pass(self.run_pass())

    def timed_ops(self, deadline: float):
        """Operations of the timed window, in order, until ``deadline``."""
        while time.perf_counter() < deadline:
            yield Op("pass", self.run_pass, self.check_pass, self.n, 90.0)

    def run_pass(self) -> Any:
        raise NotImplementedError

    def check_pass(self, out) -> str | None:
        raise NotImplementedError


class Flagship(Workload):
    name = "flagship"
    window = 80_000

    def prepare(self) -> None:
        self.pages_dir = inputs.write_shards(
            inputs.pages(self.seed, self.n), os.path.join(self.work, "pages"), PARQUET_SHARDS)
        self.ref = None

    def start(self) -> None:
        import ray

        from geotrellis_ray.fixtures import gen_polygons_table

        self.polys_ref = ray.put(gen_polygons_table())

    def run_pass(self, pages_dir: str | None = None) -> pa.Table:
        import ray.data

        from geotrellis_ray.pipelines.flagship import flagship

        ds = ray.data.read_parquet(pages_dir or self.pages_dir)
        _joined, tiles = flagship(ds, self.polys_ref, zoom=inputs.ZOOM)
        return _tables(tiles)

    def summary(self, tiles: pa.Table) -> tuple[int, int, int]:
        return tiles.num_rows, _sum(tiles, "n_docs"), _sum(tiles, "n_hits")

    def check_pass(self, tiles: pa.Table) -> str | None:
        n_tiles, n_docs, n_hits = self.summary(tiles)
        if self.ref is None:  # the run's first pass fixes what must repeat
            self.ref = (n_tiles, n_docs, n_hits)
        return _first_error(_expect("sum(n_docs)", n_docs, self.n),
                            _expect("tiles", n_tiles, self.ref[0]),
                            _expect("sum(n_hits)", n_hits, self.ref[2]))


class Curation(Workload):
    name = "curation"
    window = 30_000
    DUP_SHARE = 0.1

    def prepare(self) -> None:
        from geotrellis_ray.functions.text_analysis import HashedNgramScorer

        docs = inputs.curation_docs(self.seed, inputs.pages(self.seed, self.n), self.DUP_SHARE)
        self.docs_dir = inputs.write_shards(docs, os.path.join(self.work, "docs"), PARQUET_SHARDS)
        scorer = HashedNgramScorer()
        self.kept = sum(_sum(scorer(docs.slice(o, 8192)), "keep")
                        for o in range(0, docs.num_rows, 8192))
        self.ref = None

    def run_pass(self) -> pa.Table:
        import ray.data

        from geotrellis_ray.pipelines.curation import curation_chain

        return _tables(curation_chain(ray.data.read_parquet(self.docs_dir), budget=BUDGET))

    def summary(self, out: pa.Table) -> tuple[int, int]:
        return out.num_rows, _sum(out, "n_tokens")

    def check_pass(self, out: pa.Table) -> str | None:
        if self.ref is None:  # the run's first pass fixes what must repeat
            self.ref = self.summary(out)
        err = _first_error(_expect("sum(n_dupes)", _sum(out, "n_dupes"), self.kept),
                           _expect("(docs_out, tokens)", self.summary(out), self.ref))
        if err:
            return err
        out = out.sort_by("doc_id")
        toks = out["n_tokens"].to_numpy()
        start = np.concatenate([[0], np.cumsum(toks)[:-1]])
        pos = out["shard_id"].to_numpy() * BUDGET + out["offset_in_shard"].to_numpy()
        return None if np.array_equal(pos, start) else "shard offsets are not contiguous"


class LayerStore(Workload):
    name = "layer_store"
    window = 40_000
    docs_kind = "write"
    LOOKUPS_PER_BBOX = 4

    def prepare(self) -> None:
        self.points = inputs.keyed_points(inputs.pages(self.seed, self.n))
        self.bboxes = inputs.bbox_queries(self.seed, self.points, 256)
        self.lookups = inputs.lookup_keys(self.seed, self.points, 1024)
        col = self.points["key_col"].to_numpy()
        row = self.points["key_row"].to_numpy()
        self.bbox_rows = [int(((col >= c0) & (col <= c1) & (row >= r0) & (row <= r1)).sum())
                          for c0, r0, c1, r1 in self.bboxes]
        self.lookup_rows = [int(((col == c) & (row == r)).sum()) for c, r in self.lookups]
        self.catalog = os.path.join(self.work, "catalog")
        self.layer = None
        self.writes = 0

    def start(self) -> None:
        import ray.data

        step = -(-self.points.num_rows // PARQUET_SHARDS)
        self.points_ds = ray.data.from_arrow(
            [self.points.slice(o, step) for o in range(0, self.points.num_rows, step)]).materialize()

    def write(self) -> str:
        from geotrellis_ray.sources.layer import write_layer

        self.writes += 1
        name = f"points{self.writes}"
        write_layer(self.points_ds, self.catalog, name, inputs.ZOOM)
        return name

    def check_write(self, name: str) -> str | None:
        import pyarrow.dataset as pads

        from geotrellis_ray.sources.layer import layer_path

        if self.layer is not None:
            shutil.rmtree(os.path.join(self.catalog, self.layer), ignore_errors=True)
        self.layer = name
        d = pads.dataset(layer_path(self.catalog, name, inputs.ZOOM), format="parquet",
                         partitioning="hive")
        return _expect("rows written", d.count_rows(), self.points.num_rows)

    def bbox(self, i: int) -> int:
        from geotrellis_ray.core.layout import KeyBounds
        from geotrellis_ray.sources.layer import read_layer

        c0, r0, c1, r1 = self.bboxes[i % len(self.bboxes)]
        ds = read_layer(self.catalog, self.layer, inputs.ZOOM, intersects=KeyBounds(c0, r0, c1, r1))
        return ds.count()

    def lookup(self, i: int) -> int:
        from geotrellis_ray.sources.layer import value_read

        c, r = self.lookups[i % len(self.lookups)]
        return value_read(self.catalog, self.layer, inputs.ZOOM, c, r).num_rows

    def warm(self) -> None:
        self.check_write(self.write())
        self.bbox(0)
        self.lookup(0)

    def timed_ops(self, deadline: float):
        # rounds of a write, a bbox query and lookups, so that writes and
        # reads both sample the whole window rather than one end of it
        q = 0
        while time.perf_counter() < deadline:
            yield Op("write", self.write, self.check_write, self.n, 60.0)
            yield Op("bbox", lambda i=q: self.bbox(i),
                     lambda got, i=q: _expect(f"bbox {i} rows", got,
                                              self.bbox_rows[i % len(self.bboxes)]),
                     0, 30.0)
            for k in range(q * self.LOOKUPS_PER_BBOX, (q + 1) * self.LOOKUPS_PER_BBOX):
                yield Op("lookup", lambda i=k: self.lookup(i),
                         lambda got, i=k: _expect(f"lookup {i} rows", got,
                                                  self.lookup_rows[i % len(self.lookups)]),
                         0, 10.0)
            q += 1


class TileJoin(Workload):
    """A pass joins the keyed points with the tile table on ``sfc``."""

    name = "tile_join"
    window = 30_000
    sides = ("small",)

    def prepare(self) -> None:
        half = self.n // 2
        both = inputs.keyed_points(inputs.pages(self.seed, self.n + half))
        self.points = both.slice(0, self.n)
        # the previous crawl: the same corpus shifted by half a window
        self.prev = both.slice(half, self.n).select(["h", "time_bin"]).rename_columns(
            ["h", "prev_time_bin"])
        self.tiles = self.points.group_by(["key_col", "key_row", "sfc"]).aggregate(
            [("h", "count")]).rename_columns(["key_col", "key_row", "sfc", "n_docs"]).select(
            ["sfc", "n_docs"])
        small = self.points.join(self.tiles, "sfc", join_type="inner")
        self.ref = {"small": (small.num_rows, _sum(small, "n_docs")),
                    "large": (self.points.join(self.prev, "h", join_type="inner").num_rows,)}

    def start(self) -> None:
        import ray.data

        def blocks(t: pa.Table):
            step = -(-t.num_rows // PARQUET_SHARDS)
            return ray.data.from_arrow([t.slice(o, step) for o in range(0, t.num_rows, step)]).materialize()

        self.left = blocks(self.points)
        self.small_right = blocks(self.tiles)
        self.large_right = blocks(self.prev)

    def join_small(self):
        from geotrellis_ray.stages.join import spatial_join

        return spatial_join(self.left, self.small_right, on=("sfc",),
                            num_partitions=JOIN_PARTITIONS)

    def join_large(self):
        from geotrellis_ray.stages.join import spatial_join

        return spatial_join(self.left, self.large_right, on=("h",),
                            num_partitions=JOIN_PARTITIONS)

    @staticmethod
    def group_small(joined) -> pa.Table:
        from geotrellis_ray.stages.agg import partial_groupby

        return _tables(partial_groupby(joined, ["key_row"], [("h", "count", "n"),
                                                             ("n_docs", "sum", "density")],
                                       final="single"))

    @staticmethod
    def group_large(joined) -> pa.Table:
        from geotrellis_ray.stages.agg import partial_groupby

        return _tables(partial_groupby(joined, ["key_row"], [("h", "count", "n")], final="single"))

    def run_pass(self) -> tuple[pa.Table, ...]:
        return tuple(getattr(self, f"group_{side}")(getattr(self, f"join_{side}")())
                     for side in self.sides)

    def check_pass(self, out, sides: tuple[str, ...] | None = None) -> str | None:
        """out holds one grouped table per join side, in ``sides`` order
        (default: the workload's own)."""
        sides = sides or self.sides
        got = tuple((_sum(t, "n"), _sum(t, "density")) if side == "small" else (_sum(t, "n"),)
                    for side, t in zip(sides, out))
        return _expect(f"{sides} joined rows (and sum(n_docs))", got,
                       tuple(self.ref[side] for side in sides))


class CrawlJoin(TileJoin):
    """A pass joins the keyed points with the previous crawl on ``h``."""

    name = "crawl_join"
    sides = ("large",)


WORKLOADS = {w.name: w for w in (Flagship, Curation, LayerStore, TileJoin, CrawlJoin)}
