"""BM25 retrieval (stages/retrieval.py, log-free rational-idf variant):
independent pandas brute oracle, block invariance, tie-break, edge cases."""

import numpy as np
import pyarrow as pa
import pytest


def _corpus():
    rng = np.random.default_rng(5)
    vocab = ["spark", "merge", "window", "table", "scan", "row", "agg", "fast"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(4, 40))))
             for _ in range(300)]
    texts[7] = texts[3]  # exact dup -> identical score, doc_id tie-break
    return pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64)),
                     "text": pa.array(texts, pa.string())})


def _brute(tab, terms, k1=1.2, b=0.75, top_k=20):
    docs = tab.to_pandas()
    docs["dl"] = docs["text"].str.count(r"\S+")
    for i, t in enumerate(terms):
        docs[f"tf{i}"] = docs["text"].str.count(rf"\b{t}\b")
    n = float(len(docs))
    avgdl = float(docs["dl"].sum()) / n
    score = np.zeros(len(docs))
    for i in range(len(terms)):
        df = float((docs[f"tf{i}"] > 0).sum())
        wf = (n - df + 0.5) / (df + 0.5)
        tf = docs[f"tf{i}"].to_numpy().astype(np.float64)
        score = score + wf * (tf * (k1 + 1.0)) / (
            tf + k1 * (1.0 - b + b * docs["dl"].to_numpy() / avgdl))
    docs["score"] = score
    docs["tf_total"] = sum(docs[f"tf{i}"] for i in range(len(terms)))
    out = docs[docs["tf_total"] > 0].sort_values(
        ["score", "doc_id"], ascending=[False, True]).head(top_k)
    return out[["doc_id", "dl", "tf_total"]].reset_index(drop=True)


def test_bm25_matches_brute(ray_session):
    import ray.data

    from geotrellis_ray.stages.retrieval import bm25_rank

    tab = _corpus()
    terms = ["spark", "merge", "window"]
    exp = _brute(tab, terms)
    for nblocks in (1, 7):
        got = (bm25_rank(ray.data.from_arrow(tab).repartition(nblocks), terms)
               .to_pandas().sort_values("rank").reset_index(drop=True))
        assert got["rank"].tolist() == list(range(1, len(exp) + 1))
        for col in ("doc_id", "dl", "tf_total"):
            assert got[col].tolist() == exp[col].tolist(), (col, nblocks)
    # the planted dup pair tie-broke by ascending doc_id
    ids = got["doc_id"].tolist()
    if 3 in ids and 7 in ids:
        assert ids.index(3) < ids.index(7)


def test_bm25_no_matches_and_bad_terms(ray_session):
    import ray.data

    from geotrellis_ray.stages.retrieval import bm25_rank

    tab = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(["alpha beta", "gamma delta"], pa.string())})
    got = bm25_rank(ray.data.from_arrow(tab), ["zzz"]).to_pandas()
    assert len(got) == 0
    with pytest.raises(ValueError, match="alphanumeric"):
        bm25_rank(ray.data.from_arrow(tab), ["bad term!"])


def test_hnsw_recall_and_determinism(ray_session):
    import ray.data

    from geotrellis_ray.stages.ann import _normalize, ann_brute_force, ann_hnsw

    rng = np.random.default_rng(2)
    centers = _normalize(rng.normal(size=(10, 32)).astype(np.float32))
    vecs = (np.repeat(centers, 150, axis=0)
            + rng.normal(scale=0.12, size=(1500, 32)).astype(np.float32))
    ids = np.arange(1500, dtype=np.int64)
    tab = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([v.tolist() for v in vecs])})
    queries = centers

    brute = (ann_brute_force(ray.data.from_arrow(tab), queries, k=10)
             .to_pandas())
    got = (ann_hnsw(ray.data.from_arrow(tab).repartition(3), queries, k=10,
                    ef_search=48).to_pandas())
    recalls = []
    for qi in range(len(queries)):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        h = set(got[got["query_id"] == qi]["vec_id"])
        recalls.append(len(b & h) / 10)
    assert np.mean(recalls) >= 0.9, recalls
    # deterministic for a fixed partitioning
    got2 = (ann_hnsw(ray.data.from_arrow(tab).repartition(3), queries, k=10,
                     ef_search=48).to_pandas())
    assert got.sort_values(["query_id", "rank"])["vec_id"].tolist() == \
        got2.sort_values(["query_id", "rank"])["vec_id"].tolist()


def test_hnsw_index_unit():
    from geotrellis_ray.stages.ann import HNSWIndex

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(120, 8)).astype(np.float32)
    ids = rng.permutation(120).astype(np.int64) * 3 + 1   # non-contiguous ids
    idx = HNSWIndex(vecs, ids, M=6, ef_construction=32)
    q = vecs[int(np.where(ids == ids.max())[0][0])]
    out_ids, cos = idx.search(q, 5, ef_search=32)
    assert len(out_ids) == 5
    assert ids.max() in out_ids          # the query vector itself is found
    assert cos[0] >= cos[-1] - 1e-12     # best-first
    # empty index
    empty = HNSWIndex(np.empty((0, 8), np.float32), np.empty(0, np.int64))
    e_ids, e_cos = empty.search(q, 3)
    assert len(e_ids) == 0
