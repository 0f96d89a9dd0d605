"""Distributed text retrieval: BM25 ranking over the documents table — the
search/scoring side of a training-data curation pipeline (pick the most
query-relevant documents out of a crawl; the reference has no retrieval
layer, this is an engine-native addition like the dedup family).

Scale shape (100 TB): the text is read ONCE — the first map_batches reduces
every document to a slim (doc_id, tf_1..tf_k, dl) row (k = #query terms,
vectorized RE2 counts over the Arrow column). Corpus statistics (N, df_t,
avgdl) tree-aggregate from per-block partials (one tiny row per block);
scoring is a broadcast-free second map over the MATERIALIZED slim table
(constants ride the closure), and the final ranking is the keyless
grouped_top_k partial combiner (no all-to-all), whose rank is the output's.

Cross-engine exactness: the classic BM25 idf = ln((N-df+0.5)/(df+0.5)+1)
is NOT bit-reproducible across engines (ln differs in the last ulp between
numpy's SIMD libm and DuckDB's). This implementation uses the LOG-FREE
rational idf  wf_t = (N - df_t + 0.5) / (df_t + 0.5)  — the same monotone
relevance ordering per term, but every operation in the whole score is
+ - * / on IEEE doubles evaluated in a documented order, so a DuckDB
oracle reproduces scores bit-for-bit (entry_queries.SQL_BM25_RANK).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _term_pattern(term: str) -> str:
    """RE2 word-boundary pattern for one (alphanumeric) query term — the
    same pattern string is pasted into the DuckDB oracle, so keep it to
    RE2 syntax both engines share."""
    if not re.fullmatch(r"[A-Za-z0-9]+", term):
        raise ValueError(f"query terms must be alphanumeric (got {term!r})")
    return rf"\b{term}\b"


def bm25_rank(ds, terms: list[str], id_col: str = "doc_id",
              text_col: str = "text", k1: float = 1.2, b: float = 0.75,
              top_k: int = 20):
    """-> Dataset (rank, doc_id, dl, tf_total) — the ``top_k`` documents by
    the log-free BM25 score over ``terms``, rank 1 = best, ties broken by
    ascending doc_id. Only documents matching at least one term rank.

    score(d) = Σ_t wf_t · tf_t·(k1+1) / (tf_t + k1·(1 − b + b·dl/avgdl)),
    wf_t = (N − df_t + 0.5)/(df_t + 0.5), summed left-to-right in term
    order (the evaluation order IS the spec — the oracle spells it out)."""
    from .agg import grouped_top_k

    pats = [_term_pattern(t) for t in terms]

    def slim(batch: pa.Table) -> pa.Table:
        cols = {id_col: batch[id_col]}
        cols["dl"] = pc.count_substring_regex(batch[text_col], r"\S+").cast(pa.int64())
        for i, p in enumerate(pats):
            cols[f"tf{i}"] = pc.count_substring_regex(batch[text_col], p).cast(pa.int64())
        return pa.table(cols)

    slim_ds = ds.map_batches(slim, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    def partial_stats(batch: pa.Table) -> pa.Table:
        row = {"n": pa.array([batch.num_rows], pa.int64()),
               "sum_dl": pa.array([int(batch["dl"].to_numpy(
                   zero_copy_only=False).sum()) if batch.num_rows else 0], pa.int64())}
        for i in range(len(pats)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            row[f"df{i}"] = pa.array([int((tf > 0).sum()) if batch.num_rows else 0],
                                     pa.int64())
        return pa.table(row)

    stats = slim_ds.map_batches(partial_stats, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas().sum()
    n_docs = int(stats["n"])
    if n_docs == 0:
        return slim_ds  # empty in, empty out (schema differs, but no rows exist)
    avgdl = float(stats["sum_dl"]) / float(n_docs)  # one IEEE division
    wfs = [(float(n_docs) - float(stats[f"df{i}"]) + 0.5)
           / (float(stats[f"df{i}"]) + 0.5) for i in range(len(pats))]

    def score(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        # k1·(1 − b + b·dl/avgdl): evaluated in THIS order (oracle parity)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(len(dl), np.float64)
        tf_total = np.zeros(len(dl), np.int64)
        for i, wf in enumerate(wfs):  # left-to-right term sum
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            tf_total += tf
            tff = tf.astype(np.float64)
            s = s + wf * (tff * (k1 + 1.0)) / (tff + norm)
        keep = tf_total > 0
        return pa.table({id_col: batch[id_col].filter(pa.array(keep)),
                         "dl": batch["dl"].filter(pa.array(keep)),
                         "tf_total": pa.array(tf_total[keep], pa.int64()),
                         "score": pa.array(s[keep], pa.float64())})

    scored = slim_ds.map_batches(score, batch_format="pyarrow",
                                 zero_copy_batch=True)
    top = grouped_top_k(scored, [], "score", top_k, descending=True, tie_col=id_col)
    return top.map_batches(lambda b: b.select(["rank", id_col, "dl", "tf_total"]),
                           batch_format="pyarrow", zero_copy_batch=True)
