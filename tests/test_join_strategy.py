"""spatial_join picks a broadcast or a shuffle path from the measured right
side. Both paths must give the same rows and the same schema, and both must
match a DuckDB join: uint64 keys at or above 2^63, tuple keys, duplicate and
null keys, a suffixed non-key column, an empty right side, a right side with
aggregate lineage, and one-row and empty left blocks."""

from __future__ import annotations

import logging

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

ray = pytest.importorskip("ray")
import ray.data  # noqa: E402

from geotrellis_ray.stages import join as join_mod  # noqa: E402

HIGH = np.uint64(1) << np.uint64(63)


def _layer(n: int, n_keys: int, seed: int) -> pa.Table:
    """Keyed rows: sfc >= 2^63, (key_col, key_row) from the same small key,
    about a tenth of the keys null, and a non-key column ``v`` that both
    sides carry."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    null = rng.random(n) < 0.1
    return pa.table({
        "sfc": pa.array(HIGH + k.astype(np.uint64), pa.uint64(), mask=null),
        "key_col": pa.array(k % 7, pa.int64(), mask=null),
        "key_row": pa.array(k // 7, pa.int64()),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })


LEFT = _layer(400, 40, 1).append_column("lid", pa.array(np.arange(400), pa.int64()))
# 60 rows over 30 keys: duplicate right keys and keys with no left match
RIGHT = _layer(60, 30, 2).append_column("name", pa.array([f"n{i}" for i in range(60)]))


def _left_ds():
    """A one-row block, an empty block (with its schema) and two large ones."""
    return ray.data.from_arrow([LEFT.slice(0, 1), LEFT.slice(1, 0), LEFT.slice(1, 200), LEFT.slice(201)])


def _table(ds) -> pa.Table:
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(parts)


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _oracle(right: pa.Table, on, how: str) -> pa.Table:
    con = duckdb.connect()
    con.register("lt", LEFT)
    con.register("rt", right)
    rcols = [c for c in right.column_names if c not in on]
    sel = [f'lt."{c}"' for c in LEFT.column_names] + [
        f'rt."{c}" AS "{c}_r"' if c in LEFT.column_names else f'rt."{c}"' for c in rcols]
    cond = " AND ".join(f'lt."{k}" = rt."{k}"' for k in on)
    verb = "JOIN" if how == "inner" else "LEFT JOIN"
    return con.execute(f"SELECT {', '.join(sel)} FROM lt {verb} rt ON {cond}").arrow()


def _run(right_ds, on, how, choice, monkeypatch, caplog) -> pa.Table:
    if choice == "shuffle":
        monkeypatch.setattr(join_mod, "BROADCAST_MAX_BYTES", -1)
    with caplog.at_level(logging.DEBUG, logger=join_mod.__name__):
        ds = join_mod.spatial_join(_left_ds(), right_ds, how, num_partitions=2, on=on).materialize()
    assert [r for r in caplog.records if r.name == join_mod.__name__][-1].args["choice"] == choice
    assert ("MapBatches(_broadcast_join)" in ds.stats()) == (choice == "broadcast")
    monkeypatch.undo()
    return _table(ds)


def _aggregated_right():
    """Counts of two of RIGHT's (key_col, key_row) keys through Ray's
    groupby aggregate: with fewer keys than partitions, Ray 2.49 emits the
    partitions without rows as blocks with an empty schema."""
    few = pc.and_(pc.equal(RIGHT["key_row"], 0), pc.less(RIGHT["key_col"], 2))
    ds = (ray.data.from_arrow(RIGHT.filter(few)).repartition(4)
          .groupby(["key_col", "key_row"]).count().materialize())
    assert any(t.num_columns == 0 for t in ray.get(ds.to_arrow_refs()))
    return ds


CASES = {
    "sfc": (lambda: ray.data.from_arrow(RIGHT), ("sfc",)),
    "tuple_key": (lambda: ray.data.from_arrow(RIGHT), ("key_col", "key_row")),
    "empty_right": (lambda: ray.data.from_arrow(RIGHT.slice(0, 0)), ("sfc",)),
    "aggregate_right": (_aggregated_right, ("key_col", "key_row")),
}


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_broadcast_and_shuffle_agree_with_duckdb(ray_session, monkeypatch, caplog, case, how):
    make_right, on = CASES[case]
    right_ds = make_right()
    broadcast = _run(right_ds, on, how, "broadcast", monkeypatch, caplog)
    if case == "empty_right":
        # Ray 2.49's hash join builds its right partitions from rows only, so
        # a right side without rows leaves it no key column to join on; the
        # broadcast path (which always takes a zero-byte side) has the schema
        with pytest.raises(Exception, match="key field"):
            _run(right_ds, on, how, "shuffle", monkeypatch, caplog)
    else:
        shuffle = _run(right_ds, on, how, "shuffle", monkeypatch, caplog)
        assert broadcast.schema == shuffle.schema
        assert _sorted(broadcast).equals(_sorted(shuffle))
    expected = _oracle(_table(right_ds), on, how)
    assert expected.column_names == broadcast.column_names
    assert _sorted(expected.cast(broadcast.schema)).equals(_sorted(broadcast))
    if case in ("sfc", "tuple_key"):
        assert "v_r" in broadcast.column_names and broadcast.num_rows > LEFT.num_rows // 2
