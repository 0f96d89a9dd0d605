"""partial_groupby and grouped_top_k pick their last merge from the size of
their partial rows: on the driver, in one block, or (above 128 MiB) a range
sort.
Each branch is forced here by
patching the two thresholds, and each must match DuckDB on nulls (in keys
and values), int32, uint64 >= 2^63, float32, NaN, one-row and empty blocks,
and on an empty dataset, which gives a typed empty table. The branch taken
is read from the engine's decision log, and so is the driver answer's
origin: the partial block itself when it is one block with unique groups,
else a rebuilt one. Every driver answer is one block."""

from __future__ import annotations

import logging
import math

import duckdb
import numpy as np
import pyarrow as pa
import pytest

ray = pytest.importorskip("ray")
import ray.data  # noqa: E402

from geotrellis_ray.stages import agg as agg_mod  # noqa: E402

HIGH = np.uint64(1) << np.uint64(63)


def _rows(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)

    def mask(p):
        return rng.random(n) < p

    f = (rng.integers(-8, 8, n) / 2).astype(np.float32)
    f[rng.random(n) < 0.08] = np.nan
    return pa.table({
        "k1": pa.array(rng.integers(0, 6, n).astype(np.int32), pa.int32(), mask=mask(0.1)),
        "k2": pa.array(rng.choice(["a", "b", "c"], n), pa.string(), mask=mask(0.1)),
        "i": pa.array(rng.integers(-1000, 1000, n), pa.int64(), mask=mask(0.2)),
        "u": pa.array(HIGH + rng.integers(0, 50, n).astype(np.uint64), pa.uint64(), mask=mask(0.1)),
        "f": pa.array(f, pa.float32(), mask=mask(0.05)),
        "t": pa.array(np.arange(n), pa.int64()),
    })


# k1 = 6 holds only null and NaN floats and null ints: the all-null and
# all-NaN groups
T = pa.concat_tables([_rows(297, 8), pa.table({
    "k1": pa.array([6, 6, 6], pa.int32()), "k2": pa.array(["a", "a", "a"]),
    "i": pa.array([None, None, None], pa.int64()),
    "u": pa.array([None, None, None], pa.uint64()),
    "f": pa.array([np.nan, None, np.nan], pa.float32()),
    "t": pa.array([297, 298, 299], pa.int64())})])

SPECS = [("i", "sum", "si"), ("i", "count", "n"), ("i", "min", "mni"),
         ("u", "min", "mnu"), ("u", "max", "mxu"),
         ("f", "sum", "sf"), ("f", "min", "mnf"), ("f", "max", "mxf")]
SQL_AGGS = ("sum(i) AS si, count(*) AS n, min(i) AS mni, min(u) AS mnu, max(u) AS mxu, "
            "sum(f) AS sf, min(f) AS mnf, max(f) AS mxf")
AGG_TYPES = {"si": pa.int64(), "n": pa.int64(), "mni": pa.int64(), "mnu": pa.uint64(),
             "mxu": pa.uint64(), "sf": pa.float64(), "mnf": pa.float32(), "mxf": pa.float32()}

# (driver max bytes, one-block max bytes) that force each merge
BRANCHES = {"driver": (1 << 30, 1 << 30), "one_block": (0, 1 << 30), "fallback": (0, 0)}


def _ds(empty: bool):
    if empty:
        return ray.data.from_arrow(T.slice(0, 0))
    # a one-row block, an empty block (with its schema) and two large ones
    return ray.data.from_arrow([T.slice(0, 1), T.slice(1, 0), T.slice(1, 150), T.slice(151)])


def _norm(v):
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    return None if v is None else int(v) if not isinstance(v, (str, float)) else v


def _rowset(t: pa.Table, cols) -> list[tuple]:
    rows = [tuple(_norm(r[c]) for c in cols) for r in t.to_pylist()]
    return sorted(rows, key=lambda r: tuple((x is None, str(x)) for x in r))


def _run(fn, branch, monkeypatch, caplog):
    driver_max, block_max = BRANCHES[branch]
    monkeypatch.setattr(agg_mod, "_SINGLE_DRIVER_MAX_BYTES", driver_max)
    monkeypatch.setattr(agg_mod, "_SINGLE_FINAL_MAX_BYTES", block_max)
    with caplog.at_level(logging.DEBUG, logger=agg_mod.__name__):
        ds = fn().materialize()
    log = [r for r in caplog.records if r.name == agg_mod.__name__][-1].args
    monkeypatch.undo()
    if log["choice"] == "driver":
        assert ds.num_blocks() == 1
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return (pa.concat_tables(parts) if parts else None), log


def _choice(branch: str, empty: bool) -> str:
    if empty:
        return "driver"
    return "sort" if branch == "fallback" else branch


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
@pytest.mark.parametrize("keys", [["k1"], ["k1", "k2"], ["u"], []], ids=["one", "two", "u64", "keyless"])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_partial_groupby_matches_duckdb(ray_session, monkeypatch, caplog, branch, keys, empty):
    got, log = _run(lambda: agg_mod.partial_groupby(_ds(empty), keys, SPECS), branch,
                    monkeypatch, caplog)
    assert log["site"] == "stages.agg.partial_groupby"
    assert log["choice"] == _choice(branch, empty)
    # the four input blocks meet in one combiner batch, so a keyed driver
    # answer is that partial block; keyless reduce drops the constant key
    reused = branch == "driver" and keys and not empty
    assert log["answer"] == ("partial" if reused else "rebuilt")
    _check_groupby(got, keys, T.slice(0, 0) if empty else T)


def _check_groupby(got: pa.Table, keys, src: pa.Table):
    types = {c: src.schema.field(c).type for c in keys} | AGG_TYPES
    assert {f.name: f.type for f in got.schema} == types
    con = duckdb.connect()
    con.register("t", src)
    group = ", ".join(keys or ["g"])
    exp = con.execute(f"SELECT {', '.join(keys + [SQL_AGGS])} "
                      f"FROM (SELECT 0 AS g, * FROM t) GROUP BY {group}").arrow()
    cols = keys + list(AGG_TYPES)
    assert _rowset(got, cols) == _rowset(exp, cols)


@pytest.mark.parametrize("keys", [["k1"], ["k1", "k2"], ["u"]], ids=["one", "two", "u64"])
@pytest.mark.parametrize("multi", [False, True], ids=["one_block", "multi_block"])
def test_repeated_groups_rebuild_the_answer(ray_session, monkeypatch, caplog, keys, multi):
    """With 64-row combiner batches, one 300-row block gives one partial
    block in which groups repeat (a partial row per batch), and the
    four-block input gives several partial blocks: either way the driver
    rebuilds the answer, as one block that matches DuckDB."""
    seen = []
    driver_final = agg_mod._driver_final

    def spy(ds, partial, *args):
        seen.append((partial.num_blocks(), partial.count()))
        return driver_final(ds, partial, *args)

    monkeypatch.setattr(agg_mod, "_COMBINE_BATCH_ROWS", 64)
    monkeypatch.setattr(agg_mod, "_driver_final", spy)
    src = _ds(False) if multi else ray.data.from_arrow(T)
    got, log = _run(lambda: agg_mod.partial_groupby(src, keys, SPECS), "driver",
                    monkeypatch, caplog)
    assert log["choice"] == "driver" and log["answer"] == "rebuilt"
    [(blocks, rows)] = seen
    assert blocks > 1 if multi else (blocks == 1 and rows > got.num_rows)
    _check_groupby(got, keys, T)


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
@pytest.mark.parametrize("descending", [True, False], ids=["desc", "asc"])
@pytest.mark.parametrize("keys", [["k1"], ["k1", "k2"], []], ids=["one", "two", "keyless"])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_grouped_top_k_matches_duckdb(ray_session, monkeypatch, caplog, branch, keys,
                                      descending, empty):
    got, log = _run(lambda: agg_mod.grouped_top_k(_ds(empty), keys, "f", 3,
                                                  descending=descending, tie_col="t"),
                    branch, monkeypatch, caplog)
    assert log["site"] == "stages.agg.grouped_top_k"
    assert log["choice"] == _choice(branch, empty)
    assert log["answer"] == "rebuilt"  # reduce adds the rank column
    src = T.slice(0, 0) if empty else T
    assert got.schema == src.schema.append(pa.field("rank", pa.int64()))
    con = duckdb.connect()
    con.register("t", src)
    # the engine's order: numbers first, then NaN, then null, in either direction
    order = f"(f IS NULL OR isnan(f)), f IS NULL, f {'DESC' if descending else 'ASC'}, t"
    part = f"PARTITION BY {', '.join(keys)} " if keys else ""
    exp = con.execute(f"SELECT *, row_number() OVER ({part}ORDER BY {order}) AS rank "
                      "FROM t QUALIFY rank <= 3").arrow()
    cols = src.column_names + ["rank"]
    assert _rowset(got, cols) == _rowset(exp, cols)


def _keyed(n: int, order: list[str], null_at: int, seed: int) -> pa.Table:
    """Key columns named by ``order`` (``s``/``s2`` string, ``i`` int64),
    a quarter of the key at ``null_at`` null, and an int value ``v``."""
    rng = np.random.default_rng(seed)
    cols = {}
    for j, name in enumerate(order):
        vals = rng.integers(0, 60 if name.startswith("s") else 100, n)
        mask = rng.random(n) < (0.25 if j == null_at else 0.0)
        cols[name] = (pa.array([f"s{v}" for v in vals], pa.string(), mask=mask)
                      if name.startswith("s") else pa.array(vals, pa.int64(), mask=mask))
    return pa.table({**cols, "v": pa.array(rng.integers(-9, 9, n), pa.int64())})


ORDERS = [["s", "i"], ["i", "s"], ["s", "i", "s2"], ["s"], ["i"]]


@pytest.mark.parametrize("order,null_at", [(o, j) for o in ORDERS for j in range(len(o))],
                         ids=[f"{'-'.join(o)}@{j}" for o in ORDERS for j in range(len(o))])
def test_batch_partial_key_orders_match_duckdb(order, null_at):
    """pyarrow 16's group_by splits groups when a string key comes before a
    fixed-width key and either holds nulls (40k rows of [string with nulls,
    int] gave about twice DuckDB's groups): every key order, with nulls in
    each position, gives DuckDB's groups and keeps the caller's columns."""
    t = _keyed(40_000, order, null_at, seed=len(order) * 10 + null_at)
    got = agg_mod._batch_partial(t, order, [("v", "sum", "sv"), ("v", "count", "n")])
    assert got.column_names == order + ["sv", "n"]
    assert got.schema.types[:len(order)] == [t.schema.field(c).type for c in order]
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(f"SELECT {', '.join(order)}, sum(v) AS sv, count(*) AS n "
                      f"FROM t GROUP BY {', '.join(order)}").arrow()
    assert got.num_rows == exp.num_rows
    cols = order + ["sv", "n"]
    assert _rowset(got, cols) == _rowset(exp, cols)


def test_empty_mapped_input_passes_through(ray_session):
    """Ray 2.49's map skips empty blocks, so a map over no rows has no
    schema to type an answer with: both entry points give such an input
    back with neither rows nor a schema."""
    ds = ray.data.from_arrow(T.slice(0, 0)).map_batches(lambda b: b, batch_format="pyarrow")
    for out in (agg_mod.partial_groupby(ds, ["k1"], SPECS),
                agg_mod.grouped_top_k(ds, ["k1"], "f", 3, tie_col="t")):
        assert out.count() == 0 and out.schema() is None


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
def test_driver_answer_reads_without_execution(ray_session, executions, empty):
    """The driver and empty answers come back holding their one block:
    reading them starts no Ray Data execution."""
    for out in (agg_mod.partial_groupby(_ds(empty), ["k1"], SPECS),
                agg_mod.grouped_top_k(_ds(empty), ["k1"], "f", 3, tie_col="t")):
        executions.n = 0
        refs = out.to_arrow_refs()
        n = out.count()
        rows = out.take_all()
        assert executions.n == 0
        assert n == len(rows) == sum(t.num_rows for t in ray.get(refs))
        assert (n == 0) == empty
