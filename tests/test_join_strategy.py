"""spatial_join picks a broadcast or a shuffle path from the measured right
side. Both paths must give the same rows and the same schema, and both must
match a DuckDB join: uint64 keys at or above 2^63, tuple keys, duplicate and
null keys, a suffixed non-key column, an empty right side, a right side with
aggregate lineage, and one-row and empty left blocks. The broadcast path also
runs with its batch floor cut to a few dozen rows, so that batches split left
blocks and span them, and on a left side whose blocks are all empty."""

from __future__ import annotations

import logging
import uuid

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


def _join_log(caplog) -> dict:
    """The decision-log dict of the last spatial_join call."""
    return [r for r in caplog.records if r.name == join_mod.__name__][-1].args


def _run(right_ds, on, how, choice, monkeypatch, caplog) -> pa.Table:
    if choice == "shuffle":
        monkeypatch.setattr(join_mod, "BROADCAST_MAX_BYTES", -1)
    with caplog.at_level(logging.DEBUG, logger=join_mod.__name__):
        ds = join_mod.spatial_join(_left_ds(), right_ds, how, num_partitions=2, on=on).materialize()
    log = _join_log(caplog)
    assert log["choice"] == choice
    if choice == "broadcast":
        assert log["batch_rows"] >= join_mod._BROADCAST_MIN_BATCH_ROWS
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


# a batch floor of a few dozen rows: batches of max(right rows, 24) rows, at
# most RIGHT's 60, stay below _left_ds's 200-row blocks
SMALL_FLOOR = 24


def _run_small(right_ds, on, how, monkeypatch, caplog, tmp_path):
    """The broadcast path with its batch floor at SMALL_FLOOR. Returns the
    joined table and the left ``lid`` values of each join call."""
    join = join_mod._broadcast_join
    out = str(tmp_path)

    def _broadcast_join(batch, **kw):
        np.save(f"{out}/{uuid.uuid4().hex}.npy", batch["lid"].to_numpy())
        return join(batch, **kw)

    monkeypatch.setattr(join_mod, "_BROADCAST_MIN_BATCH_ROWS", SMALL_FLOOR)
    monkeypatch.setattr(join_mod, "_broadcast_join", _broadcast_join)
    with caplog.at_level(logging.DEBUG, logger=join_mod.__name__):
        ds = join_mod.spatial_join(_left_ds(), right_ds, how, num_partitions=2, on=on).materialize()
    log = _join_log(caplog)
    assert log["choice"] == "broadcast"
    assert log["batch_rows"] == max(right_ds.count(), SMALL_FLOOR)
    monkeypatch.undo()
    return _table(ds), [np.load(p) for p in tmp_path.glob("*.npy")]


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_small_batches_agree_with_duckdb(ray_session, monkeypatch, caplog, tmp_path, case, how):
    make_right, on = CASES[case]
    right_ds = make_right()
    got, batches = _run_small(right_ds, on, how, monkeypatch, caplog, tmp_path)
    expected = _oracle(_table(right_ds), on, how)
    assert expected.column_names == got.column_names
    assert _sorted(expected.cast(got.schema)).equals(_sorted(got))
    # each left row went to exactly one join call; _left_ds's blocks hold
    # lids [0], [], [1, 201) and [201, 400)
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(LEFT.num_rows))
    blocks = [set(np.searchsorted([1, 201], b, side="right").tolist()) for b in batches]
    assert any(len(b) > 1 for b in blocks), "no batch spans two left blocks"
    assert any(sum(k in b for b in blocks) > 1 for k in range(3)), "no left block is split"


@pytest.mark.parametrize("floor", ["default", "small"])
def test_duplicate_and_null_keys_match_pandas(ray_session, monkeypatch, floor):
    """Equi-join on one int64 key == pandas merge, incl. duplicate right keys,
    keys missing on the right and left-outer nulls; null keys match nothing."""
    import pandas as pd

    if floor == "small":
        monkeypatch.setattr(join_mod, "_BROADCAST_MIN_BATCH_ROWS", SMALL_FLOOR)
    rng = np.random.default_rng(21)
    left = pa.table({"k": pa.array(rng.integers(0, 50, 500), pa.int64()),
                     "lv": pa.array(np.arange(500), pa.int64())})
    # right: some keys duplicated, some missing
    rk = np.concatenate([np.arange(0, 40), np.array([3, 3, 7])])
    right = pa.table({"k": pa.array(rk, pa.int64()),
                      "rv": pa.array(rk * 10, pa.int64()),
                      "name": pa.array([f"n{v}" for v in rk], pa.string())})
    for how in ("inner", "left_outer"):
        got = (join_mod.spatial_join(ray.data.from_arrow(left).repartition(4),
                                     ray.data.from_arrow(right), how, on=("k",))
               .to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True))
        exp = left.to_pandas().merge(
            right.to_pandas(), on="k",
            how=("inner" if how == "inner" else "left"),
        ).sort_values(["lv", "rv"]).reset_index(drop=True)
        got2 = got[["k", "lv", "rv", "name"]]
        exp2 = exp[["k", "lv", "rv", "name"]]
        if how == "left_outer":
            got2 = got2.astype({"rv": "float64"})
        pd.testing.assert_frame_equal(got2, exp2)

    # a null key matches nothing, not even a null on the right (SQL; pandas
    # merge would pair the nulls)
    lnull = pa.table({"k": pa.array([1, None, 2], pa.int64()), "lv": pa.array([0, 1, 2], pa.int64())})
    rnull = pa.table({"k": pa.array([1, None], pa.int64()), "rv": pa.array([10, 20], pa.int64())})
    for how, want in (("inner", [(1, 0, 10)]),
                      ("left_outer", [(1, 0, 10), (None, 1, None), (2, 2, None)])):
        rows = join_mod.spatial_join(ray.data.from_arrow(lnull), ray.data.from_arrow(rnull), how,
                                     on=("k",)).take_all()
        assert sorted(((r["k"], r["lv"], r["rv"]) for r in rows), key=lambda t: t[1]) == want


@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_all_empty_left_blocks(ray_session, monkeypatch, how):
    """Ray does not call the join on a bundle without rows, so a left side
    whose blocks are all empty gives no rows and no schema, as it did when
    each block was joined on its own."""
    for floor in (SMALL_FLOOR, join_mod._BROADCAST_MIN_BATCH_ROWS):
        monkeypatch.setattr(join_mod, "_BROADCAST_MIN_BATCH_ROWS", floor)
        ds = join_mod.spatial_join(ray.data.from_arrow([LEFT.slice(0, 0)] * 3),
                                   ray.data.from_arrow(RIGHT), how).materialize()
        assert ds.count() == 0 and ds.schema() is None
        assert all(t.num_rows == 0 for t in ray.get(ds.to_arrow_refs()))
