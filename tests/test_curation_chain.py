"""Brute oracle for the end-to-end curation chain (pipelines/curation.py):
an independent pandas replay of quality-filter -> exact dedup (keep min id)
-> token count -> shard packing, against the distributed chain (which rides
one sort_group_aggregate shuffle with n_tokens packed into the min)."""

import numpy as np
import pyarrow as pa
import pytest


def _docs():
    texts = []
    rng = np.random.default_rng(11)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet"]
    for i in range(40):
        n = int(rng.integers(3, 30))
        texts.append(" ".join(rng.choice(words, n)))
    # planted exact duplicates
    texts[7] = texts[3]
    texts[19] = texts[3]
    texts[25] = texts[12]
    texts.append("ab")  # shorter than the 4-gram window -> score 0, dropped
    return pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                     "text": pa.array(texts, pa.string())})


def test_curation_chain_brute(ray_session):
    import ray.data

    from geotrellis_ray.functions.text_analysis import HashedNgramScorer
    from geotrellis_ray.pipelines.curation import curation_chain

    tab = _docs()
    got = (curation_chain(ray.data.from_arrow(tab).repartition(5), budget=64)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # independent replay: score each doc via the scorer on a 1-row batch
    # (exercises a different batching path), then plain pandas
    scorer = HashedNgramScorer()
    scores = {}
    for i in range(tab.num_rows):
        out = scorer(tab.slice(i, 1))
        scores[int(out["doc_id"][0].as_py())] = int(out["score"][0].as_py())
    df = tab.to_pandas()
    df["score"] = df["doc_id"].map(scores)
    kept = df[df["score"] > 0]
    ded = (kept.groupby("text", as_index=False)
           .agg(doc_id=("doc_id", "min"), n_dupes=("doc_id", "size")))
    ded["n_tokens"] = ded["text"].str.split().str.len()
    ded = ded.sort_values("doc_id").reset_index(drop=True)
    prefix = np.concatenate([[0], np.cumsum(ded["n_tokens"].to_numpy())[:-1]])
    ded["shard_id"] = prefix // 64
    ded["offset_in_shard"] = prefix % 64

    assert len(got) == len(ded)
    for col in ("doc_id", "n_tokens", "n_dupes", "shard_id", "offset_in_shard"):
        assert got[col].tolist() == ded[col].tolist(), col
    # the planted dup groups collapsed to their min ids
    winners = set(got["doc_id"])
    assert 7 not in winners and 19 not in winners and 25 not in winners
    assert int(got.set_index("doc_id").loc[3, "n_dupes"]) == 3
    # the too-short doc was quality-dropped
    assert int(tab.num_rows - 1) not in winners


def test_curation_chain_validates_packing_bounds(ray_session):
    import ray.data

    from geotrellis_ray.functions.text_analysis import HashedNgramScorer
    from geotrellis_ray.pipelines.curation import curation_chain

    # find a text the quality model KEEPS (score > 0) so the id-bound
    # validation is actually reached
    scorer = HashedNgramScorer()
    text = None
    for cand in ("alpha bravo charlie delta", "the quick brown fox jumps",
                 "hello world this is a test", "lorem ipsum dolor sit amet",
                 "pack my box with five dozen jugs"):
        t = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array([cand], pa.string())})
        if int(scorer(t)["score"][0].as_py()) > 0:
            text = cand
            break
    assert text is not None
    big = pa.table({"doc_id": pa.array([1 << 45], pa.int64()),
                    "text": pa.array([text], pa.string())})
    with pytest.raises(Exception, match="doc_id must be in"):
        curation_chain(ray.data.from_arrow(big)).to_pandas()


def test_curation_chain_empty_input(ray_session):
    """All docs quality-dropped -> empty chain output (regression: the
    pack_token_shards side channel used to KeyError on fully-empty input)."""
    import ray.data

    from geotrellis_ray.pipelines.curation import curation_chain

    tab = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(["ab", "xy"], pa.string())})  # < 4 chars
    got = curation_chain(ray.data.from_arrow(tab)).to_pandas()
    assert len(got) == 0


def test_pack_token_spans_brute(ray_session):
    """pack_token_spans vs a naive per-token loop: identical span rows,
    every shard except the last exactly full, per-doc spans contiguous."""
    import ray.data

    from geotrellis_ray.stages.agg import pack_token_spans

    rng = np.random.default_rng(3)
    n_docs, budget = 200, 64
    toks = rng.integers(0, 150, n_docs).astype(np.int64)  # zeros included
    tab = pa.table({"doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                    "n_tokens": pa.array(toks)})

    exp = []
    pos = 0
    for d in range(n_docs):
        n = int(toks[d])
        if n == 0:
            continue
        s, e = pos, pos + n
        sh = s // budget
        while sh * budget < e:
            lo, hi = max(s, sh * budget), min(e, (sh + 1) * budget)
            exp.append((d, sh, lo - s, hi - s, lo - sh * budget))
            sh += 1
        pos = e

    for nblocks in (1, 9):
        got = (pack_token_spans(ray.data.from_arrow(tab).repartition(nblocks),
                                budget=budget)
               .to_pandas().sort_values(["doc_id", "shard_id"])
               .reset_index(drop=True))
        rows = list(got.itertuples(index=False, name=None))
        assert rows == exp, nblocks

    # every shard except the last is exactly full
    per_shard = got.assign(w=got["tok_end"] - got["tok_start"]) \
                   .groupby("shard_id")["w"].sum()
    assert (per_shard.iloc[:-1] == budget).all()
    assert per_shard.sum() == int(toks.sum())
