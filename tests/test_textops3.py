"""Round-3 text ops: PII redaction parity, domain extraction parity, and
exact-substring span coverage (single-block oracle + planted duplicates)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geotrellis_ray.functions.text_analysis import (
    PII_EMAIL,
    PII_IPV4,
    PII_PHONE,
    URL_DOMAIN_RE,
    domain_of_batch,
    pii_redact_batch,
    synth_pii_batch,
)
from geotrellis_ray.stages.dedup import _gram_hash64, exact_substring_spans


def test_pii_patterns_match_duckdb():
    texts = [
        "reach me at bob.smith+x@corp.example.co or 10.1.2.3",
        "call +1 (555) 010-9876 now",
        "no pii here at all",
        "a@b.io c@d.org 192.168.0.1 0123456789",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = pii_redact_batch(t).to_pandas()
    con = duckdb.connect()
    con.register("docs", pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    want = con.execute(f"""
        WITH s1 AS (SELECT doc_id, length(regexp_extract_all(text, '{PII_EMAIL}')) AS n_emails,
                           regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g') AS t FROM docs),
        s2 AS (SELECT doc_id, n_emails, length(regexp_extract_all(t, '{PII_IPV4}')) AS n_ips,
                      regexp_replace(t, '{PII_IPV4}', '<IP>', 'g') AS t FROM s1),
        s3 AS (SELECT doc_id, n_emails, n_ips, length(regexp_extract_all(t, '{PII_PHONE}')) AS n_phones,
                      regexp_replace(t, '{PII_PHONE}', '<PHONE>', 'g') AS t FROM s2)
        SELECT doc_id, n_emails, n_ips, n_phones, t AS text_redacted FROM s3
        ORDER BY doc_id""").fetchdf()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True), want, check_dtype=False)


def test_synth_pii_plants_all_kinds():
    t = pa.table({"doc_id": pa.array([0, 105], pa.int64()),
                  "text": pa.array(["x", "y"])})
    s = synth_pii_batch(t)["text"].to_pylist()
    assert "@ex-mail.org" in s[0] and "(555)" in s[0] and "10.0.0.255" in s[0]
    r = pii_redact_batch(synth_pii_batch(t)).to_pandas()
    assert (r[["n_emails", "n_ips", "n_phones"]].to_numpy() > 0).all()


def test_domain_extraction_cases():
    urls = ["https://User:pw@WWW.Example.COM:8080/path?q=1",
            "http://a.b.c/x", "ftp://files.example.org"]
    t = pa.table({"url": pa.array(urls)})
    assert domain_of_batch(t)["domain"].to_pylist() == [
        "www.example.com", "a.b.c", "files.example.org"]
    con = duckdb.connect()
    con.register("u", pd.DataFrame({"url": urls}))
    want = con.execute(
        f"SELECT regexp_extract(lower(url), '{URL_DOMAIN_RE}', 1) AS d FROM u"
    ).fetchdf()["d"].tolist()
    assert domain_of_batch(t)["domain"].to_pylist() == want


def test_gram_hash64_deterministic_and_collision_free_locally():
    spans = pa.array(["abcdefgh", "abcdefgi", "abcdefgh", "zzzzzzzz"])
    h = _gram_hash64(spans, 8)
    assert h[0] == h[2] and h[0] != h[1] and h[1] != h[3]
    # stable across chunked inputs
    ch = pa.chunked_array([spans[:2], spans[2:]])
    assert (_gram_hash64(ch, 8) == h).all()


def _oracle_spans(texts: dict[int, str], L: int) -> set[tuple[int, int, int]]:
    """Single-process oracle: gram counts -> covered offsets -> merged."""
    from collections import Counter

    c = Counter()
    for t in texts.values():
        for o in range(len(t) - L + 1):
            c[t[o:o + L]] += 1
    out = set()
    for did, t in texts.items():
        cov = [o for o in range(len(t) - L + 1) if c[t[o:o + L]] >= 2]
        if not cov:
            continue
        s, e = cov[0], cov[0] + L
        for o in cov[1:]:
            if o <= e:
                e = o + L
            else:
                out.add((did, s, e))
                s, e = o, o + L
        out.add((did, s, e))
    return out


@pytest.mark.parametrize("key", ["text", "hash"])
def test_exact_substring_spans_vs_oracle(ray_session, key):
    import ray.data as rd

    rng = np.random.default_rng(21)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    texts = {}
    for i in range(60):
        texts[i] = " ".join(rng.choice(words, 12))
    # plant an exact shared 60-char block in several docs
    planted = "the quick brown fox jumps over the lazy dog again and again!"
    for i in (5, 17, 33):
        texts[i] = texts[i][:10] + planted + texts[i][10:]
    L = 20
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    got = exact_substring_spans(ds, min_len=L, min_count=2, key=key).to_pandas()
    got_set = {(int(r.doc_id), int(r.span_start), int(r.span_end))
               for r in got.itertuples()}
    assert got_set == _oracle_spans(texts, L)
    # the planted block must be fully covered in every planted doc
    for i in (5, 17, 33):
        s0 = texts[i].index(planted)
        assert any(d == i and s <= s0 and e >= s0 + len(planted)
                   for d, s, e in got_set)


def test_exact_substring_spans_block_boundary_stitch(ray_session):
    """Adversarial: force many tiny blocks so duplicated runs cross block
    edges; the edge-span driver stitch must reproduce the 1-block oracle."""
    import ray.data as rd

    # two long identical documents -> one giant duplicated span each
    base = "x" * 5 + "qwertyuiopasdfghjklzxcvbnm" * 12
    texts = {1: base, 2: base, 3: "completely different text with no dups!!"}
    L = 15
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    ds = ds.repartition(6)
    got = exact_substring_spans(ds, min_len=L, min_count=2).to_pandas()
    got_set = {(int(r.doc_id), int(r.span_start), int(r.span_end))
               for r in got.itertuples()}
    assert got_set == _oracle_spans(texts, L)
    assert got_set == {(1, 0, len(base)), (2, 0, len(base))}


def test_decontaminate_planted(ray_session):
    """Plant a benchmark passage inside some corpus docs: flagged docs are
    exactly the planters + the benchmark doc itself; counts match the brute
    per-offset substring check."""
    import ray.data

    from geotrellis_ray.stages.dedup import decontaminate

    L = 20
    secret = "the quick brown fox jumps over the lazy benchmark"
    rng = np.random.default_rng(9)

    def noise(n):
        return "".join(rng.choice(list("abcdefgh "), n))

    docs = []
    for i in range(40):
        if i == 0:
            t = secret  # the benchmark doc itself
        elif i in (3, 17):
            t = noise(30) + secret[5:35] + noise(25)  # shares 30 chars
        elif i == 25:
            t = noise(10)  # shorter than L
        else:
            t = noise(80)
        docs.append({"doc_id": i, "text": t})
    tbl = pa.Table.from_pylist(docs)
    ds = ray.data.from_arrow(tbl).repartition(5)
    bench = ray.data.from_arrow(tbl.filter(pa.array([d["doc_id"] == 0 for d in docs])))
    got = decontaminate(ds, bench, gram_len=L).to_pandas().set_index("doc_id").sort_index()

    bench_grams = {secret[o:o + L] for o in range(len(secret) - L + 1)}
    for d in docs:
        t = d["text"]
        n = sum(1 for o in range(max(0, len(t) - L + 1)) if t[o:o + L] in bench_grams)
        assert got.loc[d["doc_id"], "n_contaminated_grams"] == n, d["doc_id"]
        assert bool(got.loc[d["doc_id"], "contaminated"]) == (n > 0)
    assert got["contaminated"].sum() == 3  # doc 0 + the two planters


def test_stratified_sample_deterministic_and_rate(ray_session):
    """Keep set == the brute per-row hash check; repeated runs identical;
    achieved rates near the configured basis points."""
    import ray.data

    from geotrellis_ray.stages.sample import mix32, stratified_sample

    n = 5000
    ids = np.arange(n, dtype=np.int64)
    grp = np.array(["a", "b", "c"])[ids % 3]
    rates = {"a": 1000, "b": 5000, "c": 9000}
    tbl = pa.table({"doc_id": ids, "grp": grp})
    ds = ray.data.from_arrow(tbl).repartition(8)
    got1 = stratified_sample(ds, "grp", rates, "doc_id").to_pandas()
    got2 = stratified_sample(ds, "grp", rates, "doc_id").to_pandas()
    pd.testing.assert_frame_equal(got1.sort_values("doc_id").reset_index(drop=True),
                                  got2.sort_values("doc_id").reset_index(drop=True))
    keep = (mix32(ids) % np.uint64(10000)).astype(np.int64) < np.array([rates[g] for g in grp])
    exp_ids = ids[keep]
    np.testing.assert_array_equal(np.sort(got1["doc_id"].to_numpy()), exp_ids)
    for g, bp in rates.items():
        achieved = (got1["grp"] == g).sum() / (n / 3)
        assert abs(achieved - bp / 10000) < 0.03, (g, achieved)


def test_mix32_matches_duckdb_sql():
    from geotrellis_ray.stages.sample import mix32, sql_mix32

    ids = np.array([0, 1, 7, 12345, 987654321, 2**31], dtype=np.int64)
    con = duckdb.connect()
    sql = sql_mix32("v")
    exp = con.execute(
        f"SELECT {sql} FROM (SELECT unnest([0,1,7,12345,987654321,2147483648]) AS v)"
    ).fetchnumpy()
    got = mix32(ids).astype(np.int64)
    np.testing.assert_array_equal(got, list(exp.values())[0].astype(np.int64))


def test_script_stats_batch():
    import pyarrow as pa

    from geotrellis_ray.functions.text_analysis import script_stats_batch

    tab = pa.table({"doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                    "text": pa.array(["Hello мир 你好", "Привет мир", "日本語テキスト",
                                      "只有中文内容", ""])})
    out = script_stats_batch(tab)
    assert out["n_latin"].to_pylist() == [5, 0, 0, 0, 0]
    assert out["n_cyrillic"].to_pylist() == [3, 9, 0, 0, 0]
    assert out["n_han"].to_pylist() == [2, 0, 3, 6, 0]
    assert out["n_kana"].to_pylist() == [0, 0, 4, 0, 0]
    # dominant: strict-max beats priority; ties fall back to the fixed
    # order (all-zero doc -> latin)
    assert out["dominant_script"].to_pylist() == [
        "latin", "cyrillic", "kana", "han", "latin"]


def test_fingerprint_sql_replay_matches_engine():
    """q_doc_fingerprints oracle precondition + parity: the Rabin window
    hash replays in SQL byte-for-byte on ASCII docs >= window bytes."""
    from geotrellis_ray.entry_queries import _sql_doc_fingerprints
    from geotrellis_ray.functions.hashing import rolling_fingerprints_batch

    texts = [
        "the quick brown fox jumps over the lazy dog " * 3,
        "a" * 32,
        "spark merge window batch " * 4,
    ]
    fps = rolling_fingerprints_batch(texts, 32, 8)
    want = {i: (len(f), int(sum(int(x) for x in f) % (1 << 63)))
            for i, f in enumerate(fps)}
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS SELECT unnest(range(3)) AS doc_id, "
                "unnest(?) AS text", [texts])
    got = {r[0]: (r[1], r[2])
           for r in con.sql(_sql_doc_fingerprints()).fetchall()}
    assert got == want


def test_fingerprint_corpus_precondition_ascii_and_long():
    """All sf docs are ASCII and >= 32 bytes, so ord(substr)==byte and the
    short-doc sha1 fallback never fires (q_doc_fingerprints oracle)."""
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["text"])
    for x in t["text"].to_pylist():
        assert x.isascii() and len(x) >= 32


def test_splitmix64_sql_matches_numpy():
    """The q_hll_registers oracle's HUGEINT split-mulmod splitmix64 must
    track core/sketch.splitmix64 exactly (including values whose
    intermediate products overflow 64 bits)."""
    from geotrellis_ray.core.sketch import splitmix64
    from geotrellis_ray.entry_queries import _sql_splitmix64

    vals = np.concatenate([np.arange(64), np.array(
        [149, 10_000, 2**31, 2**52 - 1, 2**62, 2**63 - 1])]).astype(np.int64)
    want = splitmix64(vals.astype(np.uint64))
    con = duckdb.connect()
    got = con.sql(
        f"SELECT list({_sql_splitmix64('v')} ORDER BY rowid) FROM "
        "(SELECT unnest(?) AS v, unnest(range(?)) AS rowid)",
        params=[vals.tolist(), len(vals)],
    ).fetchone()[0]
    assert [int(x) for x in got] == [int(x) for x in want]


def test_ngram_repetition_hand_cases():
    """Gopher repetition signals vs hand-computed values: tie-break to the
    lexicographically smallest gram, overlap-union of duplicated 5-grams,
    token-less docs."""
    from geotrellis_ray.functions.text_analysis import ngram_repetition_batch

    b = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": [
        "the cat sat the cat sat on the mat",   # 9 toks, 26 chars
        "a b c d e a b c d e x y",              # dup 5-gram, overlap-union
        "!!! ???",                               # no tokens
        "w1 W1 w1",                              # case-fold + digits in tokens
    ]})
    t = ngram_repetition_batch(b).to_pandas().set_index("doc_id")
    # doc 1: "cat sat" and "the cat" both occur 2x; tie -> "cat sat" (6 ch)
    assert t.loc[1, "total_chars"] == 26
    assert t.loc[1, "top2_chars"] == 2 * 6
    assert t.loc[1, "top3_chars"] == 2 * 9   # "the cat sat" twice
    assert t.loc[1, "dup5_chars"] == 0       # every 5-gram unique
    # doc 2: "a b c d e" occurs at starts 0 and 5 -> 10 covered tokens
    assert t.loc[2, "total_chars"] == 12
    assert t.loc[2, "dup5_chars"] == 10
    assert t.loc[2, "dup5_frac"] == 10 / 12
    # doc 3: no [a-z0-9] tokens at all
    assert t.loc[3, "total_chars"] == 0
    assert (t.loc[3, ["top2_chars", "top3_chars", "dup5_chars",
                      "top2_frac", "top3_frac", "dup5_frac"]] == 0).all()
    # doc 4: case-folds to three identical "w1" tokens -> top2 "w1 w1" x2
    assert t.loc[4, "total_chars"] == 6
    assert t.loc[4, "top2_chars"] == 2 * 4


def test_ngram_repetition_matches_duckdb_inline():
    """Engine batch == the q_gopher_repetition DuckDB oracle on a small
    random-ish corpus with planted repetition (same SQL, inline table)."""
    from geotrellis_ray.entry_queries import SQL_GOPHER_REPETITION
    from geotrellis_ray.functions.text_analysis import ngram_repetition_batch

    rng = np.random.default_rng(7)
    vocab = ["alpha", "bb", "c3", "delta", "ee", "f"]
    texts = []
    for i in range(40):
        toks = list(rng.choice(vocab, size=rng.integers(0, 30)))
        if i % 4 == 0 and len(toks) >= 5:
            toks = toks + toks[:7]  # plant a duplicated block
        texts.append(" ".join(toks) + (".,;" if i % 3 == 0 else ""))
    b = pa.table({"doc_id": pa.array(range(40), pa.int64()), "text": texts})
    got = (ngram_repetition_batch(b).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", b)
    exp = (con.sql(SQL_GOPHER_REPETITION).df()
           .sort_values("doc_id").reset_index(drop=True))
    exp = exp[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_scrub_pii_batch():
    """Sequential RE2 redaction: rule order, multiplicity counts, and
    non-PII text passing through untouched."""
    import pyarrow as pa

    from geotrellis_ray.functions.text_analysis import scrub_pii_batch

    t = pa.table({"text": pa.array([
        "mail a.b+c@ex.co.uk and d@e.org ip 10.2.0.7 call 555-123-0042",
        "no pii here at all",
        "+420 555 1234 twice +421 555 4321",
        "",
    ])})
    o = scrub_pii_batch(t)
    assert o["text"].to_pylist() == [
        "mail <EMAIL> and <EMAIL> ip <IP> call <PHONE>",
        "no pii here at all",
        "<PHONE> twice <PHONE>",
        "",
    ]
    assert o["n_email"].to_pylist() == [2, 0, 0, 0]
    assert o["n_ipv4"].to_pylist() == [1, 0, 0, 0]
    assert o["n_phone"].to_pylist() == [1, 0, 2, 0]
