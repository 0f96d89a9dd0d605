"""Arrow-native group-assembly helpers for the engine's ``map_groups``
stages.

Every ``groupby(...).map_groups`` in the package runs with
``batch_format="pyarrow"`` (tests/test_group_apply_format.py fails on any
other): a pandas group apply boxes every group into a DataFrame, and binary
``cells`` payloads into per-row Python bytes, at 4-5x the wall of the same
apply on ``pa.Table`` groups. Group functions read their columns as numpy
(``ints``), binary payloads through zero-copy ``memoryview`` views
(``views``; np.frombuffer / struct.unpack_from accept them directly), sort
inside a group with the stable ``pa.Table.sort_by``, and build typed Arrow
outputs (``tile_table`` / ``one_tile`` for tile rows) so empty groups unify
with populated ones.

Output dtypes match what the earlier pandas applies produced
(python-int -> int64, bytes -> binary, str -> string) so every downstream
schema, layer write, and DuckDB oracle verdict is unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.sfc import zorder

# The canonical tile-layer row (sources/layer.py write schema).
TILE_FIELDS: tuple[tuple[str, pa.DataType], ...] = (
    ("key_col", pa.int64()),
    ("key_row", pa.int64()),
    ("sfc", pa.int64()),
    ("cells", pa.binary()),
    ("cols", pa.int64()),
    ("rows", pa.int64()),
    ("cell_type", pa.string()),
)


def ints(g: pa.Table, name: str) -> np.ndarray:
    """Numeric column of a group table as a numpy array (zero-copy when the
    column has no nulls and a single chunk; Arrow copies otherwise)."""
    return g[name].to_numpy(zero_copy_only=False)


def views(g: pa.Table, name: str) -> list[memoryview]:
    """Zero-copy per-row memoryviews of a binary column. np.frombuffer,
    struct.unpack_from and core.wkb.decode all accept these directly — the
    bytes never leave the Arrow buffer."""
    col = g[name]
    out: list[memoryview] = []
    for chunk in col.chunks if isinstance(col, pa.ChunkedArray) else (col,):
        odt = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        offs = np.frombuffer(chunk.buffers()[1], dtype=odt)[
            chunk.offset: chunk.offset + len(chunk) + 1]
        mv = memoryview(chunk.buffers()[2])
        out.extend(mv[offs[i]: offs[i + 1]] for i in range(len(chunk)))
    return out


def tile_table(rows: dict | None, extra: dict[str, tuple[pa.DataType, list]] | None = None) -> pa.Table:
    """Build a typed tile-row table. ``rows`` maps TILE_FIELDS names (minus
    sfc, computed here) to LISTS of values; pass ``None`` for a correctly
    typed EMPTY table (groups that emit nothing must still unify schemas).
    ``extra`` adds columns as name -> (pa type, list of values)."""
    data: dict[str, pa.Array] = {}
    if rows is None:
        for n, t in TILE_FIELDS:
            data[n] = pa.array([], t)
        if extra:
            for n, (t, _) in extra.items():
                data[n] = pa.array([], t)
        return pa.table(data)
    kc, kr = rows["key_col"], rows["key_row"]
    sfc = [int(zorder(c, r)) for c, r in zip(kc, kr)]
    vals = {**rows, "sfc": rows.get("sfc", sfc)}
    for n, t in TILE_FIELDS:
        data[n] = pa.array(vals[n], t)
    if extra:
        for n, (t, v) in extra.items():
            data[n] = pa.array(v, t)
    return pa.table(data)


def one_tile(key_col: int, key_row: int, cells: bytes, cols: int, rows: int,
             cell_type: str, sfc: int | None = None,
             extra: dict[str, tuple[pa.DataType, list]] | None = None) -> pa.Table:
    """One-row tile table (the common group-fn output)."""
    base = {"key_col": [int(key_col)], "key_row": [int(key_row)],
            "cells": [cells], "cols": [int(cols)], "rows": [int(rows)],
            "cell_type": [cell_type]}
    if sfc is not None:
        base["sfc"] = [int(sfc)]
    return tile_table(base, extra)
