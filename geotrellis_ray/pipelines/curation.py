"""End-to-end LLM corpus-curation chain — the text counterpart of the
raster ETL chain (pipelines/spec ``q_etl_grid``): quality-score -> filter ->
exact dedup -> token count -> GPT-style shard packing, composed so the whole
chain runs with exactly ONE all-to-all exchange.

Scale shape (100 TB):
- Quality scoring and token counting happen in the SAME map_batches pass as
  the read — text never leaves its arrival batch (the scorer's
  ``passthrough`` carries it, not a join).
- The dedup shuffle ships only (content_hash, packed) where
  packed = doc_id * 2^20 + n_tokens — the min over packed IS the min doc_id
  (with its own token count riding in the low bits), so the winner's tokens
  survive ``sort_group_aggregate``'s single range sort without a join-back.
- Packing is the O(#blocks) distributed prefix scan of
  ``stages/agg.pack_token_shards`` (one range sort on doc_id — inherent to
  sequence packing — plus a driver side channel of block sums).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TOK_BITS = 20  # packed = doc_id << 20 | n_tokens; docs capped at ~1M tokens


def curation_chain(ds, budget: int = 4096, id_col: str = "doc_id",
                   text_col: str = "text"):
    """-> Dataset (doc_id, n_tokens, n_dupes, shard_id, offset_in_shard) for
    every document that (a) scores > 0 on the hashed-n-gram quality model
    and (b) is the minimal-id representative of its exact-text duplicate
    group — packed densely into ``budget``-token shards in doc_id order."""
    from ..functions.text_analysis import HashedNgramScorer, token_count_batch
    from ..stages.agg import pack_token_shards, sort_group_aggregate
    from ..stages.dedup import content_hash_batch
    from ..state.pool import actor_pool_size

    # the scorer is the chain's dominant compute (a rolling 4-gram hash over
    # every byte): half the cluster as actors
    scored = ds.map_batches(
        HashedNgramScorer,
        fn_constructor_kwargs={"id_col": id_col, "text_col": text_col,
                               "passthrough": (text_col,)},
        concurrency=actor_pool_size(2),
        batch_format="pyarrow", zero_copy_batch=True)

    def keep_hash_pack(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["keep"], 1))
        b = token_count_batch(b, text_col)
        b = content_hash_batch(b, text_col)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = b["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(toks) and toks.max() >= 1 << _TOK_BITS:
            raise ValueError(f"curation_chain: n_tokens must be < 2^{_TOK_BITS}")
        if len(ids) and (ids.min() < 0 or ids.max() >= 1 << (63 - _TOK_BITS)):
            raise ValueError(f"curation_chain: {id_col} must be in [0, 2^{63 - _TOK_BITS})")
        return pa.table({
            "content_hash": b["content_hash"],
            "packed": pa.array((ids << _TOK_BITS) | toks, pa.int64()),
        })

    slim = scored.map_batches(keep_hash_pack, batch_format="pyarrow",
                              zero_copy_batch=True)
    winners = sort_group_aggregate(slim, "content_hash", [
        ("packed", "min", "packed"),
        ("content_hash", "count", "n_dupes"),
    ])

    def unpack(b: pa.Table) -> pa.Table:
        p = b["packed"].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(p >> _TOK_BITS, pa.int64()),
            "n_tokens": pa.array(p & ((1 << _TOK_BITS) - 1), pa.int64()),
            "n_dupes": b["n_dupes"],
        })

    survivors = winners.map_batches(unpack, batch_format="pyarrow",
                                    zero_copy_batch=True)
    return pack_token_shards(survivors, budget=budget, id_col=id_col,
                             tokens_col="n_tokens")
