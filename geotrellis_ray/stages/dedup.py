"""Deduplication operators over a document stream — first-class components of
the 100 TB training-data pipeline (driver mandate; absent in the GeoTrellis
reference beyond same-key collapse, SURVEY.md §2.7).

All variants follow the same scale shape:
- exact:   vectorized content hash per batch -> groupby(hash) -> keep min id.
  Hash-partitioned shuffle moves only (hash, id) pairs, not text.
- minhash: shingle->minhash per batch (actor pool) -> explode to
  (band, band_hash, id) rows -> ONE ``agg.group_map`` co-locates buckets,
  each block holding whole buckets -> vectorized adjacent-pair extraction
  -> signature-agreement verify -> connected components (driver union-find
  over the sparse edge set; distributed min-label propagation above a
  threshold).
- simhash: 4x16-bit band blocking -> candidate pairs -> Hamming verify.
- embedding cosine near-dup lives in stages/ann.py (same bucketing idea).

Every grouping sort here (LSH buckets, simhash bands, exact-substring
docs, paragraph docs) is ``group_map``: nothing reaches the driver to
repair a group split across blocks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import (
    hamming64,
    jaccard,
    lsh_bands,
    minhash_signatures_batch,
    sha256_prefix64_column,
    shingles,
    simhash_batch,
    tokenize,
)


def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    # sha256 straight off zero-copy Arrow buffer views — the per-row Python
    # string round-trip (to_pylist + encode) never happens on this
    # full-corpus pass (r5 fix, VERDICT r04 #2)
    hs = sha256_prefix64_column(batch[text_col])
    # int64 REINTERPRET of the 64-bit hash (bijective). Ray's sort-based
    # groupby/aggregate rebuilds key columns through Python ints; uint64
    # values >= 2^63 overflow that path and silently fall back to
    # pickled-object blocks (observed in the sf0.01 harness logs) — int64
    # keys stay zero-copy Arrow end to end.
    return batch.append_column("content_hash", pa.array(hs.view(np.int64), pa.int64()))


def dedup_exact(ds, id_col: str = "doc_id", text_col: str = "text", keep_text: bool = False):
    """Exact dedup: one surviving row (min id) per distinct text. Returns
    Dataset (content_hash, doc_id=min id, n_dupes). The shuffle carries only
    (hash, id) — text is projected away before the groupby.

    Group cardinality ~ #docs (near-unique keys), so this uses
    sort_group_aggregate — ONE range sort + vectorized segment reduce —
    instead of Ray's sort-based Aggregate, which pays a ~300x per-group
    overhead in exactly this regime (r5 rehearsal measurement, stages/
    agg.py:sort_group_aggregate)."""
    from .agg import sort_group_aggregate

    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col), batch_format="pyarrow", zero_copy_batch=True
    )
    slim = hashed.select_columns(["content_hash", id_col])
    return sort_group_aggregate(
        slim, "content_hash",
        [(id_col, "min", id_col), ("content_hash", "count", "n_dupes")])


def keep_best_dedup(ds, key_col: str, score_col: str, id_col: str = "doc_id"):
    """Quality-ranked dedup: per key group keep the row with the MAXIMAL
    (score, id) — keep-BEST rather than keep-first (when near-identical
    docs collide on a canonical URL / content key, a training-data
    pipeline wants the longest / highest-quality copy, not the lowest id;
    the RefinedWeb-style refinement of ``dedup_exact``).

    Scale shape (100 TB): argmax rides an ordinary max — each row is
    reduced to a slim (key, packed) pair with packed = score << 32 | id,
    so the winner survives sort_group_aggregate's ONE range sort +
    segment reduce even at UNBOUNDED key cardinality (canonical URLs ~
    #docs, the regime where Ray's Aggregate pays ~300x per group).
    Payloads never move; join the returned winner ids back to recover
    them. Ties break toward the larger id (packed max).

    Contract (validated): 0 <= score < 2^31 and 0 <= id < 2^32.
    -> Dataset (key_col, n_dups, id_col, score_col) — winners only."""
    from .agg import sort_group_aggregate

    def pack(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = b[score_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= 1 << 32):
            raise ValueError(f"keep_best_dedup: {id_col} must be in [0, 2^32)")
        if len(sc) and (sc.min() < 0 or sc.max() >= 1 << 31):
            raise ValueError(f"keep_best_dedup: {score_col} must be in [0, 2^31)")
        return pa.table({key_col: b[key_col],
                         "__packed": pa.array((sc << 32) | ids, pa.int64())})

    slim = ds.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
    won = sort_group_aggregate(slim, key_col, [
        (key_col, "count", "n_dups"), ("__packed", "max", "__win")])

    def unpack(b: pa.Table) -> pa.Table:
        w = b["__win"].to_numpy(zero_copy_only=False)
        return pa.table({key_col: b[key_col], "n_dups": b["n_dups"],
                         id_col: pa.array(w & 0xFFFFFFFF, pa.int64()),
                         score_col: pa.array(w >> 32, pa.int64())})

    return won.map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True)


def _default_pool() -> int:
    """Actor-pool size scaled to the cluster — a fixed concurrency starves
    the hashing stage on big nodes (see flagship.py's measured sizing)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, cpus // 4)


class MinHasher:
    """Actor-pool stage: LSH band rows per doc. Emits ONLY (id, band,
    band_hash) — ~20 bytes/row. Round 1 also carried the full 512-byte
    signature on every band row (8 KB/doc through the range sort); the 2M-doc
    shuffle rehearsal measured that filling the object store to 99.9% and
    collapsing throughput 5x. Signature agreement is now recovered per
    candidate PAIR via text joins (sparse) instead."""

    def __init__(self, num_perm: int = 64, bands: int = 16, ngram: int = 3,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.num_perm = num_perm
        self.bands = bands
        self.ngram = ngram
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sigs = minhash_signatures_batch(texts, self.num_perm, self.ngram)
        bands = lsh_bands(sigs, self.bands)  # (n, bands)
        n = len(texts)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.bands)),
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n), pa.int32()),
                "band_hash": pa.array(bands.ravel(), pa.uint64()),
            }
        )


def _bucket_pairs(band_rows, id_col: str):
    """(id_col, band, band_hash) rows -> (id_a, id_b) chaining every LSH
    bucket: ONE ``group_map`` on (band, band_hash) with the id as the local
    order, then each row pairs with its predecessor in the bucket, which
    connects the bucket's docs. A block holds whole buckets, so the pairing
    is vectorized per block and nothing is stitched on the driver."""
    from .agg import _group_starts, group_map

    def chain(b: pa.Table) -> pa.Table:
        ids = b[id_col]
        same = ~_group_starts(b, ["band", "band_hash"])[1:]
        same &= pc.not_equal(ids.slice(1), ids.slice(0, max(len(ids) - 1, 0))).to_numpy(
            zero_copy_only=False)
        idx = pa.array(np.flatnonzero(same), pa.int64())
        return pa.table({"id_a": ids.take(idx), "id_b": ids.take(pc.add(idx, 1))})

    return group_map(band_rows, ["band", "band_hash"], chain, order=[id_col])


_PAIR_BROADCAST_MAX = 25_000  # pairs; ~2x that many texts gathered at most


def _pair_texts(pairs, ds, id_col: str, text_col: str):
    """Attach (text_a, text_b) to a slim candidate-pair stream, inner-join
    semantics on both sides. ``pairs`` MUST be materialized (count() free).

    Two regimes, picked by measured pair count:
    - <= _PAIR_BROADCAST_MAX (the common near-dup-sparse case and every
      bench scale): gather ONLY pair-relevant texts with one pruned scan
      (<= 2 * n_pairs rows reach the driver), ray.put the id->text table
      ONCE, and attach texts in a plain map over the pair stream.
    - larger: two pair->text spatial_joins (pair-sparse; the corpus text
      ships once per join) — the 10^12-doc scale shape. The pair side is
      the right side, which spatial_join materializes.
    """
    import ray

    from .join import spatial_join

    n_pairs = pairs.count()
    if n_pairs <= _PAIR_BROADCAST_MAX:
        pair_df = pairs.to_pandas()  # slim (ids + small floats), <= 25k rows
        want = np.unique(np.concatenate([
            pair_df["id_a"].to_numpy(), pair_df["id_b"].to_numpy()])) \
            if n_pairs else np.empty(0, dtype=np.int64)
        want_ref = ray.put(want)

        def gather(b: pa.Table) -> pa.Table:
            w = ray.get(want_ref)
            ids = b[id_col].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(w, ids)
            idx[idx >= len(w)] = 0
            mask = pa.array((w[idx] == ids) if len(w) else
                            np.zeros(len(ids), dtype=bool))
            return pa.table({id_col: b[id_col].filter(mask),
                             text_col: b[text_col].filter(mask)})

        if n_pairs:
            rel = ds.map_batches(gather, batch_format="pyarrow",
                                 zero_copy_batch=True).to_pandas()
            order = np.argsort(rel[id_col].to_numpy())
            rel_ids = rel[id_col].to_numpy()[order]
            rel_texts = rel[text_col].to_numpy()[order]
        else:  # empty-pair stream: skip the corpus scan entirely
            rel_ids = np.empty(0, dtype=np.int64)
            rel_texts = np.empty(0, dtype=object)
        texts_ref = ray.put((rel_ids, rel_texts))

        def attach(b: pa.Table) -> pa.Table:
            rid, rtx = ray.get(texts_ref)
            out = b
            keep = np.ones(b.num_rows, dtype=bool)
            side_vals = {}
            for side in ("a", "b"):
                ids = b[f"id_{side}"].to_numpy(zero_copy_only=False)
                idx = np.searchsorted(rid, ids)
                idx[idx >= len(rid)] = 0
                ok = (rid[idx] == ids) if len(rid) else \
                    np.zeros(len(ids), dtype=bool)
                keep &= ok
                side_vals[side] = idx
            mask = pa.array(keep)
            out = out.filter(mask)
            for side in ("a", "b"):
                vals = rtx[side_vals[side][keep]] if keep.any() else \
                    np.empty(0, dtype=object)
                out = out.append_column(f"text_{side}",
                                        pa.array(vals, pa.string()))
            return out

        return pairs.map_batches(attach, batch_format="pyarrow",
                                 zero_copy_batch=True)

    docs_a = ds.map_batches(
        lambda b: pa.table({"id_a": b[id_col], "text_a": b[text_col]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    docs_b = ds.map_batches(
        lambda b: pa.table({"id_b": b[id_col], "text_b": b[text_col]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return spatial_join(docs_b, spatial_join(docs_a, pairs, on=("id_a",)), on=("id_b",))


def minhash_candidate_pairs(ds, num_perm: int = 64, bands: int = 16, ngram: int = 3,
                            id_col: str = "doc_id", text_col: str = "text",
                            concurrency=None, batch_size: int = 1024,
                            with_est: bool = True):
    """Docs -> candidate pairs with est_jaccard (= minhash signature
    agreement). Scale shape (re-validated by the 2M-doc rehearsal):

    1. ONE ``group_map`` co-locates buckets — over SLIM band rows only
       (id, band, band_hash; no signatures);
    2. vectorized adjacent-pair extraction per block of whole buckets
       (``_bucket_pairs``);
    3. pairs dedupe to one row per (id_a, id_b) BEFORE any join;
    4. est_jaccard via two pair->text joins + per-pair signature
       recompute — the corpus text ships once per join, the (sparse) pair
       stream carries everything else.
    Never materializes signatures corpus-wide."""
    from .agg import partial_groupby

    if concurrency is None:
        concurrency = _default_pool()
    band_rows = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"num_perm": num_perm, "bands": bands, "ngram": ngram,
                               "id_col": id_col, "text_col": text_col},
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency,
    )
    pairs = _bucket_pairs(band_rows, id_col)

    # one row per pair BEFORE the text joins (a pair can surface from
    # several bands)
    unique_pairs = partial_groupby(pairs, ["id_a", "id_b"],
                                   [("id_a", "count", "n_bands")]).drop_columns(["n_bands"])
    if not with_est:
        # callers that re-verify exactly anyway (ngram-jaccard path) skip the
        # two est joins entirely
        return unique_pairs

    # est_jaccard: ship each pair its two texts, recompute both signatures
    # per pair (pair-sparse work), compare. Broadcast regime below
    # _PAIR_BROADCAST_MAX pairs, spatial_joins above (see _pair_texts).
    j = _pair_texts(unique_pairs.materialize(), ds, id_col, text_col)

    def est(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                             "est_jaccard": pa.array([], pa.float64())})
        sa = minhash_signatures_batch(batch["text_a"].to_pylist(), num_perm, ngram)
        sb = minhash_signatures_batch(batch["text_b"].to_pylist(), num_perm, ngram)
        return pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "est_jaccard": pa.array((sa == sb).mean(axis=1), pa.float64()),
            }
        )

    return j.map_batches(est, batch_format="pyarrow", zero_copy_batch=True)


def minhash_dedup(ds, threshold: float = 0.7, rounds: int = 4,
                  driver_edge_threshold: int = 5_000_000, **kw):
    """Full near-dedup -> Dataset (doc_id, cluster_id); cluster_id = min id of
    the near-dup component; docs with no near-dup get cluster_id = doc_id.

    Near-dup EDGES are sparse relative to the corpus, so when the edge count
    is below ``driver_edge_threshold`` we collect only the edges (never the
    docs), union-find them on the driver, and broadcast the label map into a
    streaming map_batches — one small collect instead of ``rounds`` join+
    groupby shuffles. Above the threshold (truly dup-dense corpora at
    10^12-doc scale) we fall back to distributed min-label propagation."""
    import ray
    import ray.data

    id_col = kw.get("id_col", "doc_id")
    pairs = minhash_candidate_pairs(ds, **kw)
    edges = pairs.map_batches(
        lambda b: b.filter(pa.compute.greater_equal(b["est_jaccard"], threshold)).select(["id_a", "id_b"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()  # small: only near-dup edges
    return labels_from_edges(ds.select_columns([id_col]), edges, id_col,
                             rounds=rounds,
                             driver_edge_threshold=driver_edge_threshold)


def labels_from_edges(ids_ds, edges, id_col: str = "doc_id", rounds: int = 4,
                      driver_edge_threshold: int = 5_000_000):
    """(ids, sparse edge list) -> Dataset (id_col, cluster_id) with
    cluster_id = min id of the connected component (isolated ids label
    themselves). The shared connected-components engine behind
    minhash_dedup and cluster_eps: below ``driver_edge_threshold`` edges,
    driver union-find + broadcast searchsorted label map; above it,
    ``rounds`` of distributed min-label propagation via spatial_join (labels
    never collect to the driver)."""
    import ray
    import ray.data

    from .agg import partial_groupby
    from .join import spatial_join

    if edges.count() <= driver_edge_threshold:
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for b in edges.iter_batches(batch_format="pyarrow"):
            for a, c in zip(b["id_a"].to_pylist(), b["id_b"].to_pylist()):
                ra, rc = find(a), find(c)
                if ra != rc:
                    parent[max(ra, rc)] = min(ra, rc)
        # broadcast the label map as two sorted numpy arrays; lookup inside
        # map_batches is a vectorized searchsorted, not a per-row dict probe
        lbl_keys = np.array(sorted(parent), dtype=np.int64)
        lbl_vals = np.array([find(int(k)) for k in lbl_keys], dtype=np.int64)
        ref = ray.put((lbl_keys, lbl_vals))

        def apply_labels(b: pa.Table, *, _ref=ref) -> pa.Table:
            keys, vals = ray.get(_ref)
            ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
            cluster = ids.copy()
            if len(keys):
                pos = np.searchsorted(keys, ids)
                pos_c = np.clip(pos, 0, len(keys) - 1)
                hit = keys[pos_c] == ids
                cluster[hit] = vals[pos_c[hit]]
            return pa.table({id_col: b[id_col], "cluster_id": pa.array(cluster, pa.int64())})

        return ids_ds.map_batches(
            apply_labels, batch_format="pyarrow", zero_copy_batch=True
        )

    # label = min reachable id; propagate along edges `rounds` times
    labels = ids_ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "label": b[id_col]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    # symmetric edge list (a->b and b->a) so one join per round suffices;
    # the source column is named id_col to join the labels on
    sym_edges = edges.map_batches(
        lambda b: pa.table(
            {
                id_col: pa.concat_arrays([b["id_a"].combine_chunks(), b["id_b"].combine_chunks()]),
                "dst": pa.concat_arrays([b["id_b"].combine_chunks(), b["id_a"].combine_chunks()]),
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    for _ in range(rounds):
        # message passing via spatial_join (distributed — labels never collect to
        # the driver, so this holds at 10^12-doc scale): each edge forwards its
        # source's current label to dst.
        msgs = (
            spatial_join(sym_edges, labels, on=(id_col,))
            .select_columns(["dst", "label"])
            .map_batches(lambda b: b.rename_columns([id_col, "label"]),
                         batch_format="pyarrow", zero_copy_batch=True)
        )
        labels = partial_groupby(labels.union(msgs), [id_col], [("label", "min", "label")])
    return labels.map_batches(
        lambda b: b.rename_columns([id_col, "cluster_id"]), batch_format="pyarrow", zero_copy_batch=True
    )


class SimHasher:
    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = simhash_batch(batch[self.text_col].to_pylist())
        return pa.table({self.id_col: batch[self.id_col], "simhash": pa.array(sh, pa.uint64())})


_BUCKET_ALLPAIRS_CAP = 2048  # all-pairs above this degrades to a sorted window


def _hamming_bucket_pairs_np(key: np.ndarray, ids: np.ndarray, v: np.ndarray,
                             max_hamming: int):
    """Vectorized all-pairs Hamming verify over CONTIGUOUS buckets of a
    (composite-key-sorted) row span. Returns (id_a, id_b, hamming) with
    id_a < id_b. Buckets above _BUCKET_ALLPAIRS_CAP degrade to a
    sorted-by-hash neighbor window of 64 (documented approximation)."""
    out_a, out_b, out_h = [], [], []
    bounds = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    for i, start in enumerate(bounds):
        end = bounds[i + 1] if i + 1 < len(bounds) else len(key)
        n = end - start
        if n < 2:
            continue
        bi, bv = ids[start:end], v[start:end]
        # drop in-bucket duplicate ids (an input may repeat a doc)
        _u, first = np.unique(bi, return_index=True)
        if len(first) < n:
            bi, bv = bi[np.sort(first)], bv[np.sort(first)]
            n = len(bi)
            if n < 2:
                continue
        if n <= _BUCKET_ALLPAIRS_CAP:
            iu, ju = np.triu_indices(n, k=1)
        else:
            order = np.argsort(bv, kind="stable")
            bi, bv = bi[order], bv[order]
            w = 64
            iu = np.repeat(np.arange(n), w)
            ju = iu + np.tile(np.arange(1, w + 1), n)
            keep_w = ju < n
            iu, ju = iu[keep_w], ju[keep_w]
        ham = hamming64(bv[iu], bv[ju])
        keep = ham <= max_hamming
        if keep.any():
            ia, ib = bi[iu[keep]], bi[ju[keep]]
            out_a.append(np.minimum(ia, ib))
            out_b.append(np.maximum(ia, ib))
            out_h.append(ham[keep])
    if not out_a:
        e = np.array([], np.int64)
        return e, e, np.array([], np.uint64)
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_h)


def hamming_band_pairs(hash_ds, hash_col: str, id_col: str = "doc_id",
                       max_hamming: int = 3):
    """(id, 64-bit hash) rows -> near-dup pairs within ``max_hamming`` via
    4x16-bit band blocking (a pair within Hamming distance 3 shares at least
    one of 4 bands — pigeonhole), ALL-pairs Hamming verify in-bucket.
    Shared by simhash text near-dups and dHash image near-dups.

    Execution shape (r03 rewrite, 2.4x measured): ONE ``group_map`` over
    slim band rows, then a per-BLOCK vectorized bucket scan (bucket bounds +
    triu all-pairs over the block's whole buckets — not one call per
    bucket; ~17k tiny buckets made per-group calls the whole wall).
    Duplicate pair findings collapse in the grouped-MIN final."""

    def explode(batch: pa.Table) -> pa.Table:
        v = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(v)
        bands = np.empty((n, 4), dtype=np.uint64)
        for b in range(4):
            bands[:, b] = (v >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        # composite sort/bucket key: band in the top 2 bits' worth above the
        # 16-bit band value (int64, low-entropy-high-bits hazard does not
        # apply to range sort)
        key = (np.tile(np.arange(4, dtype=np.uint64), n) << np.uint64(16)) \
            | bands.ravel()
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, 4)),
                hash_col: pa.array(np.repeat(v, 4), pa.uint64()),
                "bkey": pa.array(key.astype(np.int64), pa.int64()),
            }
        )

    def scan(b: pa.Table) -> pa.Table:
        a_, b_, h_ = _hamming_bucket_pairs_np(
            b["bkey"].to_numpy(zero_copy_only=False),
            np.asarray(b[id_col].to_numpy(zero_copy_only=False), np.int64),
            b[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64), max_hamming)
        return pa.table({"id_a": pa.array(a_, pa.int64()), "id_b": pa.array(b_, pa.int64()),
                         "hamming": pa.array(h_.astype(np.int64), pa.int64())})

    from .agg import group_map, partial_groupby

    slim = hash_ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    pairs = group_map(slim, ["bkey"], scan)
    # a pair can surface from several bands with the same hamming: grouped
    # MIN dedup
    return partial_groupby(pairs, ["id_a", "id_b"], [("hamming", "min", "hamming")])


def simhash_near_dups(ds, max_hamming: int = 3, id_col: str = "doc_id", text_col: str = "text",
                      concurrency=None):
    """SimHash near-dup pairs: 4x16-bit band blocking (a pair within Hamming
    distance 3 shares at least one of 4 bands), ALL-pairs Hamming verify
    in-bucket (a r03 fix: the r02 version verified only id-adjacent rows per
    bucket and could miss a true pair separated by an unrelated doc)."""
    if concurrency is None:
        concurrency = _default_pool()
    sh = ds.map_batches(
        SimHasher, fn_constructor_kwargs={"id_col": id_col, "text_col": text_col},
        batch_format="pyarrow", zero_copy_batch=True, concurrency=concurrency,
    )
    return hamming_band_pairs(sh, "simhash", id_col, max_hamming)


def ngram_jaccard_pairs(texts_a: list[str], texts_b: list[str], n: int = 3) -> np.ndarray:
    """Exact n-gram Jaccard for verification (driver/test-side helper)."""
    return np.array(
        [jaccard(shingles(tokenize(a), n), shingles(tokenize(b), n)) for a, b in zip(texts_a, texts_b)]
    )


def verify_pairs_exact_jaccard(pairs_ds, docs_ds, ngram: int = 3,
                               id_col: str = "doc_id", text_col: str = "text"):
    """Exact n-gram Jaccard for candidate pairs, distributed: each pair gets
    its TWO texts (broadcast lookup when the pair set is small, pair-sparse
    spatial_joins at scale — never the corpus cross-product), then a vectorized
    shingle/Jaccard per batch. Output: (id_a, id_b, est_jaccard, jaccard).
    The scale shape for 'n-gram Jaccard dedup': candidates come from
    MinHash-LSH; exactness comes from this verify."""
    # broadcast regime below _PAIR_BROADCAST_MAX pairs, pair-sparse
    # spatial_joins above — see _pair_texts
    j = _pair_texts(pairs_ds.materialize(), docs_ds, id_col, text_col)

    def exact(b: pa.Table) -> pa.Table:
        ja = ngram_jaccard_pairs(b["text_a"].to_pylist(), b["text_b"].to_pylist(), ngram)
        keep = [c for c in ("id_a", "id_b", "est_jaccard") if c in b.column_names]
        out = b.select(keep)
        return out.append_column("jaccard", pa.array(ja, pa.float64()))

    return j.map_batches(exact, batch_format="pyarrow", zero_copy_batch=True)


def duplicated_spans(ds, window: int = 40, stride: int = 20, min_count: int = 2,
                     id_col: str = "doc_id", text_col: str = "text", key: str = "text"):
    """Cross-document duplicated text spans — the chunk-hash approximation of
    exact-substring dedup (the published "deduplicating training data"
    recipe's detector, windowed instead of suffix-array): every document
    explodes to its length-``window`` spans at ``stride`` offsets
    (vectorized: ONE pyarrow utf8 slice per offset across the whole batch,
    not per doc), then a groupby counts spans appearing in >= ``min_count``
    places. Returns (span, n, min_doc).

    ``key="text"`` groups on the raw span (exact, SQL-checkable);
    ``key="hash"`` groups on a 64-bit hash — at 100 TB the shuffle then
    carries 8 bytes/span instead of ``window`` bytes (collisions ~ 2^-64 per
    pair; re-verify via a pair join when it matters)."""

    from .agg import partial_groupby

    def explode(b: pa.Table) -> pa.Table:
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        max_off = int(max(0, (lens.max() - window)) if len(lens) else 0)
        ids = b[id_col]
        parts = []
        for off in range(0, max_off + 1, stride):
            keep = lens >= off + window
            if not keep.any():
                break
            sl = pc.utf8_slice_codeunits(texts, off, off + window)
            mask = pa.array(keep)
            parts.append(pa.table({
                "span": sl.filter(mask),
                id_col: ids.filter(mask),
            }))
        if not parts:
            return pa.table({"span": pa.array([], pa.string()),
                             id_col: pa.array([], b.schema.field(id_col).type)})
        out = pa.concat_tables(parts)
        if key == "hash":
            h = np.fromiter(
                (int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "big") >> 1
                 for s in out["span"].to_pylist()),
                dtype=np.int64, count=out.num_rows)
            out = pa.table({"span_hash": pa.array(h, pa.int64()), id_col: out[id_col]})
        return out

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    group_col = "span" if key == "text" else "span_hash"
    counts = partial_groupby(
        exploded, [group_col],
        [(id_col, "count", "n"), (id_col, "min", "min_doc")],
    )
    return counts.filter(expr=f"n >= {min_count}")


# --- round 3: exact-substring duplicated spans (stride-1, suffix-window) ------


def _gram_hash64(spans: pa.Array, length: int) -> np.ndarray:
    """Vectorized 64-bit polynomial hash of fixed-length ASCII grams: the
    string array's flat data buffer is viewed as an (n, length) uint8 matrix
    (every span has exactly `length` code units) and dotted with powers of a
    prime under uint64 wraparound. No per-row Python."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    n = len(spans)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    b = spans.cast(pa.binary())
    offs = np.frombuffer(b.buffers()[1], dtype=np.int32, count=n + 1, offset=b.offset * 4)
    data = np.frombuffer(b.buffers()[2], dtype=np.uint8)
    mat = data[offs[0]: offs[-1]].reshape(n, length)
    p = np.uint64(1099511628211)
    pows = np.empty(length, dtype=np.uint64)
    pows[0] = np.uint64(1)
    with np.errstate(over="ignore"):
        for j in range(1, length):
            pows[j] = pows[j - 1] * p
        h = (mat.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64)
    # int64 VIEW (same bits): uint64 keys degrade to pickled-object extension
    # arrays through Ray groupby/join paths; int64 stays a native Arrow key
    return h.view(np.int64)


def exact_substring_spans(ds, min_len: int = 40, min_count: int = 2,
                          id_col: str = "doc_id", text_col: str = "text",
                          key: str = "text"):
    """Exact duplicated-substring coverage, the published training-data dedup
    semantics (suffix-array detector re-expressed Ray-Data-first): a character
    position is duplicated iff the ``min_len``-gram starting there occurs
    >= ``min_count`` times in the corpus (every duplicated run of length >=
    min_len is exactly the union of such windows). Returns per-doc MAXIMAL
    duplicated spans (doc_id, span_start, span_end), merged at stride 1 —
    no approximation, unlike duplicated_spans' strided chunks.

    Scale shape (the inherent O(total-bytes) of exact-substring dedup):
    1. explode every offset to a slim gram row — with ``key="hash"`` the
       shuffle carries 8-byte hashes (2^-64 collision/pair), with
       ``key="text"`` raw grams (SQL-checkable);
    2. partial_groupby counts grams (map-side combine) -> dup-gram set;
    3. re-explode (recompute beats materializing the fat stream) and join
       the dup set back to (doc, off) rows — join output is dup-volume,
       not corpus-volume;
    4. ONE ``group_map`` on the doc with the offset as the local order:
       each block merges the covered windows of its whole docs, vectorized.
    """

    from .agg import _group_starts, group_map, partial_groupby
    from .join import spatial_join

    gcol = "g" if key == "text" else "gh"

    def explode(b: pa.Table, with_pos: bool) -> pa.Table:
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        ids = b[id_col]
        max_off = int(max(0, (lens.max() - min_len)) if len(lens) else 0)
        parts = []
        for off in range(0, max_off + 1):
            keep = lens >= off + min_len
            if not keep.any():
                break
            mask = pa.array(keep)
            sl = pc.utf8_slice_codeunits(texts.filter(mask), off, off + min_len)
            cols = {}
            if key == "text":
                cols["g"] = sl
            else:
                cols["gh"] = pa.array(_gram_hash64(sl, min_len), pa.int64())
            if with_pos:
                cols[id_col] = ids.filter(mask)
                cols["off"] = pa.array(
                    np.full(len(sl), off, dtype=np.int64), pa.int64())
            parts.append(pa.table(cols))
        if not parts:
            sch = {gcol: pa.array([], pa.string() if key == "text" else pa.int64())}
            if with_pos:
                sch[id_col] = pa.array([], b.schema.field(id_col).type)
                sch["off"] = pa.array([], pa.int64())
            return pa.table(sch)
        return pa.concat_tables(parts)

    exploded0 = ds.map_batches(lambda b: explode(b, False), batch_format="pyarrow",
                               zero_copy_batch=True)
    if key == "hash":
        # scale path: gram keys are near-unique, the regime where Ray's
        # sort-based Aggregate pays ~300x per group (r5 rehearsal finding —
        # 6.3M unique keys: sort 0.6 s vs aggregate 189.5 s). ONE range sort
        # + segment reduce + having pushdown keeps only dup grams.
        from .agg import sort_group_aggregate

        counts = sort_group_aggregate(
            exploded0, gcol, [(gcol, "count", "n")],
            having_min_count=min_count).drop_columns(["n"])
    else:
        # key="text" (the SQL-oracle variant): string keys; partial_groupby
        # takes sort_group_aggregate's merge at corpus-sized key counts
        counts = partial_groupby(
            exploded0, [gcol], [(gcol, "count", "n")],
        ).filter(expr=f"n >= {min_count}").drop_columns(["n"])

    grams = ds.map_batches(lambda b: explode(b, True), batch_format="pyarrow",
                           zero_copy_batch=True)
    # short-circuit the no-duplicates corpus: the dup set is the SMALL side
    # by construction, so counting it here is cheap, and this fixes the
    # empty output's schema.
    counts = counts.materialize()
    if counts.count() == 0:
        import ray.data as rd

        id_t = ds.schema().base_schema.field(id_col).type
        return rd.from_arrow(pa.table({id_col: pa.array([], id_t),
                                       "span_start": pa.array([], pa.int64()),
                                       "span_end": pa.array([], pa.int64())}))
    covered = spatial_join(grams, counts, on=(gcol,))


    def merge(b: pa.Table) -> pa.Table:
        # a doc's covered offsets are whole in the block: runs of windows
        # at most min_len apart merge into one maximal span
        offs = b["off"].to_numpy(zero_copy_only=False)
        brk = _group_starts(b, [id_col])
        brk[1:] |= offs[1:] - offs[:-1] > min_len
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], b.num_rows] - 1
        return pa.table({id_col: b[id_col].take(pa.array(starts, pa.int64())),
                         "span_start": pa.array(offs[starts], pa.int64()),
                         "span_end": pa.array(offs[ends] + min_len, pa.int64())})

    return group_map(covered.select_columns([id_col, "off"]), [id_col], merge, order=["off"])


# --- benchmark decontamination (round 3) -------------------------------------

def decontaminate(ds, bench_ds, gram_len: int = 50, id_col: str = "doc_id",
                  text_col: str = "text"):
    """Benchmark decontamination (the Lee/Brown-style eval-overlap scrub a
    training-data pipeline runs before training): flag every corpus doc that
    shares ANY ``gram_len``-char substring with the benchmark corpus.
    -> Dataset (id_col, n_contaminated_grams, contaminated) — one row per
    corpus doc, n = number of character offsets whose gram hits the
    benchmark set (docs shorter than gram_len have 0 grams).

    Scale shape: benchmark sets are MB-scale against a TB corpus, so the
    benchmark side reduces to a sorted uint64 gram-hash array built with ONE
    distributed explode + partial_groupby (slim 8-byte rows, map-side
    combined), broadcast once via ray.put; the corpus probe is then a pure
    map_batches — one vectorized utf8_slice + poly-hash + searchsorted per
    offset across the whole batch, no per-row Python and NO shuffle at all.
    Hash membership stands in for string equality (64-bit polynomial,
    2^-64/pair collision odds — same contract as exact_substring_spans'
    key='hash' path)."""
    import ray

    from .agg import partial_groupby

    def explode_hashes(b: pa.Table) -> pa.Table:
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        max_off = int(max(0, (lens.max() - gram_len)) if len(lens) else 0)
        parts = []
        for off in range(0, max_off + 1):
            keep = lens >= off + gram_len
            if not keep.any():
                break
            sl = pc.utf8_slice_codeunits(texts.filter(pa.array(keep)), off, off + gram_len)
            parts.append(pa.table({"gh": pa.array(_gram_hash64(sl, gram_len), pa.int64())}))
        if not parts:
            return pa.table({"gh": pa.array([], pa.int64())})
        return pa.concat_tables(parts)

    uniq = partial_groupby(
        bench_ds.map_batches(explode_hashes, batch_format="pyarrow", zero_copy_batch=True),
        ["gh"], [("gh", "count", "n")],
    ).select_columns(["gh"])
    # benchmark-sized (MBs) by contract — the one permitted driver collect
    bench_hashes = np.sort(uniq.to_pandas()["gh"].to_numpy(dtype=np.int64))
    ref = ray.put(bench_hashes)

    def probe(b: pa.Table) -> pa.Table:
        bench = ray.get(ref)
        n = b.num_rows
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False) if n else np.empty(0, np.int64)
        counts = np.zeros(n, dtype=np.int64)
        max_off = int(max(0, (lens.max() - gram_len)) if n else 0)
        for off in range(0, max_off + 1):
            keep = lens >= off + gram_len
            if not keep.any():
                break
            idx = np.nonzero(keep)[0]
            sl = pc.utf8_slice_codeunits(texts.filter(pa.array(keep)), off, off + gram_len)
            h = _gram_hash64(sl, gram_len)
            if len(bench):
                pos = np.clip(np.searchsorted(bench, h), 0, len(bench) - 1)
                counts[idx] += (bench[pos] == h).astype(np.int64)
        return pa.table({
            id_col: b[id_col],
            "n_contaminated_grams": pa.array(counts, pa.int64()),
            "contaminated": pa.array(counts > 0, pa.bool_()),
        })

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


# --- paragraph-level exact dedup (round 3) -----------------------------------

_PARA_IDX_BITS = 20  # packed = doc_id << 20 | chunk_idx; docs stay < 2^43


def _check_packable_ids(ids: "np.ndarray") -> None:
    """The packed-position trick carries (doc_id, position) in ONE int64, so
    id_col must be a NON-NEGATIVE integer < 2^43. Out-of-range ids (e.g. raw
    64-bit content hashes) silently overflow the shift and every downstream
    join misses — caught live by the r5 rehearsal (101k docs -> 0 docs out).
    Fail loudly instead; remap wide ids (e.g. ``hash >> 21``) upstream."""
    if len(ids) and (ids.min() < 0 or ids.max() >= (1 << (63 - _PARA_IDX_BITS))):
        raise ValueError(
            f"id_col values must be integers in [0, 2^{63 - _PARA_IDX_BITS}) "
            "for the packed-position dedup ops; remap wide ids (e.g. "
            "content_hash >> 21) before calling")


def _packed_to_kept_csv(kept, id_col: str, idx_bits: int = _PARA_IDX_BITS):
    """(packed)-only Dataset -> (id_col, kept_csv) where kept_csv is the
    doc's surviving chunk indices in order, as a csv string (primitive
    columns survive every Ray join/pandas path). ONE ``group_map`` on the
    doc id unpacked from ``packed``, with ``packed`` as the local order;
    each block joins the chunk indices of its whole docs."""
    from .agg import _group_starts, group_map

    def unpack(b: pa.Table) -> pa.Table:
        return b.append_column(id_col, pc.shift_right(b["packed"], idx_bits))

    def assemble(b: pa.Table) -> pa.Table:
        idxs = b["packed"].to_numpy(zero_copy_only=False) & ((1 << idx_bits) - 1)
        starts = np.flatnonzero(_group_starts(b, [id_col]))
        ends = np.r_[starts[1:], b.num_rows]
        return pa.table({id_col: b[id_col].take(pa.array(starts, pa.int64())),
                         "kept_csv": pa.array([",".join(map(str, idxs[s:e]))
                                               for s, e in zip(starts, ends)], pa.string())})

    keyed = kept.map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True)
    return group_map(keyed, [id_col], assemble, order=["packed"])


def paragraph_dedup(ds, words_per_para: int = 12, id_col: str = "doc_id",
                    text_col: str = "text", key: str = "text"):
    """C4/RefinedWeb-style paragraph-level exact dedup: split every doc into
    fixed ``words_per_para``-word paragraphs, keep only the globally FIRST
    occurrence of each paragraph (ordered by (doc, position)), and reassemble
    each doc from its surviving paragraphs. Docs that lose every paragraph
    drop out. -> Dataset (id_col, text_dedup).

    (The reference engine has no text ops; this is the LLM-training-data
    counterpart of its dedup family — same keep-first-by-key semantics as
    dedup_exact, one level below the document.)

    Scale shape (the shuffles carry SLIM rows; doc text ships exactly twice —
    once into the paragraph explode, once into the final reassembly join):
    1. explode docs -> (paragraph, packed) rows, vectorized per chunk index
       (pc.split_pattern + list_slice + binary_join — no Python row loop);
       ``key="hash"`` swaps the paragraph text for a 64-bit hash so the wide
       groupby/join carry 16 B/row at 100 TB (2^-64 collision risk);
       ``key="text"`` keeps exact semantics (SQL-checkable).
    2. winner per paragraph = min(packed) via partial_groupby (map-side
       combine; its merge is picked by size — cardinality is unbounded).
    3. join winners back to the slim row stream; kept = packed == win.
    4. ONE ``group_map`` of the kept (packed)-only rows on the doc,
       per-doc kept-index assembly (idx list as a csv string — primitive
       columns survive every Ray join/pandas path); a block holds whole
       docs (``_packed_to_kept_csv``).
    5. inner join the original docs x (doc_id, kept csv) (text ships
       once per doc), then a vectorized-ish re-split + take + join per row.
    """

    from .agg import partial_groupby
    from .join import spatial_join

    pcol = "para" if key == "text" else "ph"

    def explode(b: pa.Table) -> pa.Table:
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _check_packable_ids(ids)
        words = pc.split_pattern(texts, " ")
        nwords = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        nchunks = -(-nwords // words_per_para)  # ceil; empty text -> 1 word -> 1 chunk
        parts = []
        for i in range(int(nchunks.max()) if len(nchunks) else 0):
            keep = nchunks > i
            mask = pa.array(keep)
            sl = pc.binary_join(
                pc.list_slice(words.filter(mask), i * words_per_para,
                              (i + 1) * words_per_para), " ")
            packed = (ids[keep] << _PARA_IDX_BITS) | i
            if key == "text":
                col = sl
            else:  # variable-length rows: pandas' cython string hasher
                col = pa.array(pd.util.hash_array(
                    np.asarray(sl.to_pylist(), dtype=object)).view(np.int64),
                    pa.int64())
            parts.append(pa.table({pcol: col,
                                   "packed": pa.array(packed, pa.int64())}))
        if not parts:
            return pa.table({pcol: pa.array([], pa.string() if key == "text" else pa.int64()),
                             "packed": pa.array([], pa.int64())})
        return pa.concat_tables(parts)

    chunks = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    if key == "hash":
        # near-unique key cardinality: ONE range sort + segment reduce beats
        # Ray's sort-based Aggregate ~300x per group here (agg.py:
        # sort_group_aggregate, r5 rehearsal finding)
        from .agg import sort_group_aggregate

        winners = sort_group_aggregate(chunks, pcol, [("packed", "min", "win")])
    else:
        winners = partial_groupby(chunks, [pcol], [("packed", "min", "win")])
    kept = spatial_join(chunks, winners, on=(pcol,))
    kept = kept.filter(expr="packed == win").select_columns(["packed"])
    inner = _packed_to_kept_csv(kept, id_col)
    joined = spatial_join(ds.select_columns([id_col, text_col]), inner, on=(id_col,))

    def reassemble(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        csvs = b["kept_csv"].to_pylist()
        out = []
        for t, csv in zip(texts, csvs):
            w = t.split(" ")
            out.append(" ".join(
                " ".join(w[i * words_per_para:(i + 1) * words_per_para])
                for i in (int(x) for x in csv.split(","))))
        return pa.table({id_col: b[id_col], "text_dedup": pa.array(out, pa.string())})

    return joined.map_batches(reassemble, batch_format="pyarrow",
                              zero_copy_batch=True)


def line_frequency_filter(ds, min_count: int = 2, delim: str = "\n",
                          id_col: str = "doc_id", text_col: str = "text",
                          key: str = "text"):
    """CCNet/RefinedWeb-style corpus-frequency line filter: drop EVERY copy
    of any line whose corpus-wide occurrence count reaches ``min_count``
    (boilerplate headers, nav bars, cookie banners), then reassemble each
    doc from its surviving lines in order. Docs that lose every line drop
    out. -> Dataset (id_col, n_lines, n_kept, text_filtered).

    Contrast with paragraph_dedup (keep-FIRST of each duplicate): the
    frequency-threshold variant removes a too-common line EVERYWHERE,
    including its first occurrence — the CCNet preprocessing semantics.

    Scale shape (slim shuffles; doc text ships exactly twice — once into
    the line explode, once into the final reassembly join):
    1. explode docs -> (line, packed) rows fully vectorized
       (pc.split_pattern + list_flatten + list_parent_indices — no Python
       row loop); ``key="hash"`` swaps line text for a 64-bit hash so the
       wide groupby/join carry 16 B/row at 100 TB; ``key="text"`` keeps
       exact semantics (SQL-checkable).
    2. corpus count per line via partial_groupby (map-side combine;
       merge picked by size — line cardinality is unbounded).
    3. join counts back to the slim rows; kept = count < min_count.
    4. kept (packed) rows -> (doc, kept csv) via _packed_to_kept_csv
       (ONE ``group_map`` on the doc).
    5. inner join with the original docs, vectorized-ish re-split +
       take per row; n_lines is recomputed from the joined text (free —
       the text is already in hand), so the shuffled rows never carry it.
    """

    from .agg import partial_groupby
    from .join import spatial_join

    kcol = "line" if key == "text" else "lh"

    def explode(b: pa.Table) -> pa.Table:
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lines = pc.split_pattern(texts, delim)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        nl = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        off = np.zeros(len(nl), dtype=np.int64)
        np.cumsum(nl[:-1], out=off[1:])
        pos = np.arange(len(parent), dtype=np.int64) - off[parent]
        _check_packable_ids(ids)
        packed = (ids[parent] << _PARA_IDX_BITS) | pos
        if key == "text":
            col = flat
        else:  # variable-length rows: pandas' cython string hasher
            col = pa.array(pd.util.hash_array(
                np.asarray(flat.to_pylist(), dtype=object)).view(np.int64),
                pa.int64())
        return pa.table({kcol: col, "packed": pa.array(packed, pa.int64())})

    rows = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    if key == "hash":
        from .agg import sort_group_aggregate

        counts = sort_group_aggregate(rows, kcol, [("packed", "count", "c")])
    else:
        counts = partial_groupby(rows, [kcol], [("packed", "count", "c")])
    kept = spatial_join(rows, counts, on=(kcol,))
    kept = kept.filter(expr=f"c < {int(min_count)}").select_columns(["packed"])
    inner = _packed_to_kept_csv(kept, id_col)
    joined = spatial_join(ds.select_columns([id_col, text_col]), inner, on=(id_col,))

    def reassemble(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        csvs = b["kept_csv"].to_pylist()
        out, n_lines, n_kept = [], [], []
        for t, csv in zip(texts, csvs):
            parts = t.split(delim)
            idxs = [int(x) for x in csv.split(",")]
            out.append(delim.join(parts[i] for i in idxs))
            n_lines.append(len(parts))
            n_kept.append(len(idxs))
        return pa.table({id_col: b[id_col],
                         "n_lines": pa.array(n_lines, pa.int64()),
                         "n_kept": pa.array(n_kept, pa.int64()),
                         "text_filtered": pa.array(out, pa.string())})

    return joined.map_batches(reassemble, batch_format="pyarrow",
                              zero_copy_batch=True)


def build_bloom(hash_ds, n_hint: int, bits_per_key: int = 10, k: int = 7,
                hash_col: str = "content_hash"):
    """Distributed Bloom-filter build over a slim uint64 hash column: one
    partial filter per block, lossless OR tree-merge (batch sized so a merge
    task holds <= ~256 MB of partials), tiny final OR on the driver. The
    filter is n_hint-sized up front so partials share one geometry."""
    from ..core.bloom import BloomFilter, bloom_size_bits

    m = bloom_size_bits(max(1, n_hint), bits_per_key)
    nbytes = m >> 3

    def partial(b: pa.Table) -> pa.Table:
        f = BloomFilter(m, k)
        f.add_many(b[hash_col].to_numpy(zero_copy_only=False))
        return pa.table({"bloom": pa.array([f.to_bytes()], pa.binary())})

    def remerge(b: pa.Table) -> pa.Table:
        f = BloomFilter(m, k)
        for raw in b["bloom"].to_pylist():
            f.merge(BloomFilter.from_bytes(m, k, raw))
        return pa.table({"bloom": pa.array([f.to_bytes()], pa.binary())})

    tree_batch = max(2, (256 << 20) // max(1, nbytes))
    partials = hash_ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
    merged = partials.map_batches(remerge, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=tree_batch)
    out = BloomFilter(m, k)
    for row in merged.take_all():
        out.merge(BloomFilter.from_bytes(m, k, row["bloom"]))
    return out


def bloom_dedup(new_ds, ref_ds, id_col: str = "doc_id", text_col: str = "text",
                bits_per_key: int = 10, k: int = 7):
    """Cross-corpus exact dedup with a Bloom prefilter: keep the new-corpus
    docs whose text does NOT appear in the reference corpus.

    Scale shape — the reason this beats a plain anti join at 100 TB:
    1. reference texts hash to slim uint64 rows; a Bloom filter (10
       bits/key, ~1% fp) is built DISTRIBUTED (build_bloom: per-block
       partials + OR tree-merge) and broadcast once via ray.put — MBs per
       worker instead of shuffling the new corpus against the full
       reference key set.
    2. every new doc probes the filter locally inside map_batches. Bloom
       negatives (the overwhelming majority when corpora barely overlap)
       are PROVEN absent (no false negatives) and pass through with zero
       shuffle.
    3. only Bloom positives (~overlap + 1% fp) enter the exact verify: a
       slim left_outer join against the DISTINCT reference hashes —
       candidate-volume, not corpus-volume. False positives are removed
       here, so the result is exact (64-bit content-hash equality, the
       same contract as dedup_exact).

    Returns the surviving (id_col, content_hash) rows. Hashes travel as
    int64 (bit-reinterpreted sha256 prefix) — Ray's shuffle machinery
    round-trips uint64 >= 2^63 through Python objects."""
    from .agg import partial_groupby
    from .join import spatial_join

    def hash_i64(b: pa.Table) -> pa.Table:
        hs = content_hash_batch(b, text_col)["content_hash"]
        i64 = hs.to_numpy(zero_copy_only=False).view(np.int64)
        return b.append_column("content_hash_i64", pa.array(i64, pa.int64()))

    ref_hashes = partial_groupby(
        ref_ds.map_batches(hash_i64, batch_format="pyarrow",
                           zero_copy_batch=True)
        .select_columns(["content_hash_i64"]),
        ["content_hash_i64"], [("content_hash_i64", "count", "n")],
    ).select_columns(["content_hash_i64"])
    ref_hashes = ref_hashes.materialize()
    bloom = build_bloom(ref_hashes, n_hint=ref_hashes.count(),
                        bits_per_key=bits_per_key, k=k,
                        hash_col="content_hash_i64")

    import ray

    from ..core.bloom import BloomFilter

    ref = ray.put((bloom.m, bloom.k, bloom.to_bytes()))

    def probe(b: pa.Table) -> pa.Table:
        m, kk, raw = ray.get(ref)
        f = BloomFilter.from_bytes(m, kk, raw)
        b = hash_i64(b).select([id_col, "content_hash_i64"])
        hit = f.contains_many(
            b["content_hash_i64"].to_numpy(zero_copy_only=False))
        return b.append_column("bloom_hit", pa.array(hit, pa.bool_()))

    probed = new_ds.map_batches(probe, batch_format="pyarrow",
                                zero_copy_batch=True)

    clear = probed.map_batches(
        lambda b: b.filter(pc.invert(b["bloom_hit"])).drop_columns(["bloom_hit"]),
        batch_format="pyarrow", zero_copy_batch=True)
    cand = probed.map_batches(
        lambda b: b.filter(b["bloom_hit"]).drop_columns(["bloom_hit"]),
        batch_format="pyarrow", zero_copy_batch=True)
    marked = ref_hashes.map_batches(
        lambda b: b.append_column("in_ref", pa.array(np.ones(b.num_rows, bool))),
        batch_format="pyarrow", zero_copy_batch=True)
    verified = spatial_join(cand, marked, how="left_outer", on=("content_hash_i64",))
    survivors = verified.map_batches(
        lambda b: b.filter(pc.is_null(b["in_ref"])).drop_columns(["in_ref"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return clear.union(survivors)
