"""_pair_texts (stages/dedup.py): the broadcast (small-pair) regime must be
row-identical to the hash-join (at-scale) regime, including inner-join
semantics for pair ids missing from the corpus."""
import numpy as np
import pyarrow as pa


def _fixture():
    import ray.data as rd

    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(["a", "b", "c", "d"], 6)) for _ in range(50)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(50), pa.int64()),
        "text": pa.array(texts)})).repartition(4)
    ida = [0, 3, 7, 12, 49, 11]
    idb = [1, 4, 9, 40, 2, 999]  # 999 is absent -> the pair must drop
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array(ida, pa.int64()),
        "id_b": pa.array(idb, pa.int64()),
        "est_jaccard": pa.array([0.5] * len(ida), pa.float64()),
    })).materialize()
    return docs, pairs, texts


def _rows(out):
    return sorted(
        (r["id_a"], r["id_b"], r["est_jaccard"], r["text_a"], r["text_b"])
        for r in out.take_all())


def test_regimes_agree(ray_session, monkeypatch):
    from geotrellis_ray.stages import dedup

    docs, pairs, texts = _fixture()
    bcast = _rows(dedup._pair_texts(pairs, docs, "doc_id", "text"))
    monkeypatch.setattr(dedup, "_PAIR_BROADCAST_MAX", 0)  # force hash joins
    joined = _rows(dedup._pair_texts(pairs, docs, "doc_id", "text"))
    assert bcast == joined
    assert len(bcast) == 5  # the id=999 pair dropped (inner semantics)
    for ia, ib, _e, ta, tb in bcast:
        assert ta == texts[ia] and tb == texts[ib]


def test_broadcast_empty_pairs(ray_session):
    import ray.data as rd

    from geotrellis_ray.stages import dedup

    docs, pairs, _ = _fixture()
    empty = rd.from_arrow(pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64()),
        "est_jaccard": pa.array([], pa.float64())})).materialize()
    out = dedup._pair_texts(empty, docs, "doc_id", "text")
    assert out.count() == 0


def test_self_pair_and_duplicate_ids(ray_session):
    """One doc on both sides and repeated across pairs — the broadcast
    lookup must not dedupe or reorder."""
    import ray.data as rd

    from geotrellis_ray.stages import dedup

    docs, _, texts = _fixture()
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([5, 5, 8], pa.int64()),
        "id_b": pa.array([5, 8, 5], pa.int64()),
        "est_jaccard": pa.array([1.0, 0.2, 0.2], pa.float64()),
    })).materialize()
    rows = _rows(dedup._pair_texts(pairs, docs, "doc_id", "text"))
    assert rows == sorted([
        (5, 5, 1.0, texts[5], texts[5]),
        (5, 8, 0.2, texts[5], texts[8]),
        (8, 5, 0.2, texts[8], texts[5])])
