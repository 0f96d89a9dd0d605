"""Pure (no-Ray) tests for clip-to-grid, hashing/dedup kernels, text
analysis, ANN kernels, multimodal stubs."""

import numpy as np
import pyarrow as pa
import pytest

from geotrellis_ray.core import wkb
from geotrellis_ray.core.layout import Extent, LayoutDefinition, TileLayout
from geotrellis_ray.functions import hashing
from geotrellis_ray.functions.text_analysis import LangId, quality_score_batch, token_count_batch
from geotrellis_ray.stages.ann import _normalize, hyperplanes, lsh_bucket
from geotrellis_ray.stages.clip import clip_geom_to_grid, clip_to_grid_batch
from geotrellis_ray.stages.multimodal import AudioFrameSampler, ImageDecoder, media_meta_batch

# toy layout from FIXTURES.md §4: 4x4 tiles of 4x4 cells over (0,0,16,16)
TOY = LayoutDefinition(Extent(0, 0, 16, 16), TileLayout(4, 4, 4, 4))


def test_clip_point_cases():
    # interior point
    g = {"type": "Point", "coords": np.array([5.5, 5.5])}
    out = clip_geom_to_grid(g, TOY)
    assert [(c, r) for c, r, _, _ in out] == [(1, 2)]  # row from top: y=5.5 -> row 2
    # point on shared edge -> exactly one key (floor rule: x=8 -> col 2,
    # y=8 -> row 2 since row counts from the top and floor((16-8)/4) = 2)
    g = {"type": "Point", "coords": np.array([8.0, 8.0])}
    out = clip_geom_to_grid(g, TOY)
    assert [(c, r) for c, r, _, _ in out] == [(2, 2)]
    # layout corner clamps
    g = {"type": "Point", "coords": np.array([16.0, 0.0])}
    out = clip_geom_to_grid(g, TOY)
    assert [(c, r) for c, r, _, _ in out] == [(3, 3)]


def test_clip_line_crossing_3_cells():
    g = {"type": "LineString", "coords": np.array([(1.0, 1.0), (11.0, 1.0)], dtype=float)}
    out = clip_geom_to_grid(g, TOY)
    keys = sorted((c, r) for c, r, _, _ in out)
    assert keys == [(0, 3), (1, 3), (2, 3)]
    # each clipped part lies within its cell
    for c, r, cg, _ in out:
        cell = TOY.key_to_extent(c, r)
        coords = cg["coords"] if cg["type"] == "LineString" else np.vstack([p["coords"] for p in cg["parts"]])
        assert (coords[:, 0] >= cell.xmin - 1e-9).all() and (coords[:, 0] <= cell.xmax + 1e-9).all()


def test_clip_polygon_2x2_exact_and_contained():
    # polygon covering cells (1,1)-(2,2) exactly -> 4 keys, all full
    ring = np.array([(4.0, 4.0), (12.0, 4.0), (12.0, 12.0), (4.0, 12.0)], dtype=float)
    out = clip_geom_to_grid({"type": "Polygon", "rings": [ring]}, TOY)
    keys = sorted((c, r) for c, r, _, _ in out)
    assert keys == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(full for _, _, _, full in out)
    # polygon fully inside one cell
    ring = np.array([(1.0, 13.5), (2.5, 13.5), (2.0, 14.5)], dtype=float)
    out = clip_geom_to_grid({"type": "Polygon", "rings": [ring]}, TOY)
    assert len(out) == 1
    c, r, cg, full = out[0]
    assert (c, r) == (0, 0) and not full
    from geotrellis_ray.core.geom import polygon_area

    assert polygon_area(cg["rings"][0]) == pytest.approx(polygon_area(ring))


def test_clip_batch_explode():
    t = pa.table(
        {
            "geom_id": pa.array([0, 1], pa.int64()),
            "wkb": pa.array(
                [
                    wkb.encode_point(5.5, 5.5),
                    wkb.encode_polygon([np.array([(4.0, 4.0), (12.0, 4.0), (12.0, 12.0), (4.0, 12.0)])]),
                ],
                pa.binary(),
            ),
        }
    )
    out = clip_to_grid_batch(t, TOY)
    assert out.num_rows == 5
    assert set(out["geom_id"].to_pylist()) == {0, 1}


def test_minhash_similarity_ordering():
    base = "the quick brown fox jumps over the lazy dog again and again " * 3
    near = base.replace("lazy", "sleepy")
    far = "completely unrelated content about databases and indexes " * 3
    sigs = hashing.minhash_signatures_batch([base, near, far])
    sim_near = (sigs[0] == sigs[1]).mean()
    sim_far = (sigs[0] == sigs[2]).mean()
    assert sim_near > 0.5 > sim_far
    # est tracks exact jaccard within tolerance
    ja = hashing.jaccard(
        hashing.shingles(hashing.tokenize(base)), hashing.shingles(hashing.tokenize(near))
    )
    assert abs(sim_near - ja) < 0.25
    # identical docs collide on all bands
    b1 = hashing.lsh_bands(sigs[0])
    b2 = hashing.lsh_bands(hashing.minhash_signatures_batch([base])[0])
    assert (b1 == b2).all()


def test_simhash_hamming():
    a = "alpha beta gamma delta epsilon zeta eta theta"
    b = "alpha beta gamma delta epsilon zeta eta iota"
    c = "unrelated words entirely different tokens here now ok"
    hs = hashing.simhash_batch([a, b, c])
    hab = hashing.hamming64(hs[:1], hs[1:2])[0]
    hac = hashing.hamming64(hs[:1], hs[2:3])[0]
    assert hab < hac


def test_token_quality_lang():
    t = pa.table({"text": ["The cat and the dog sat.", "der hund und die katze", ""]})
    assert token_count_batch(t)["n_tokens"].to_pylist() == [6, 5, 0]
    q = quality_score_batch(t)
    assert q["n_punct"].to_pylist() == [1, 0, 0]
    assert LangId()(t)["lang_pred"].to_pylist()[:2] == ["en", "de"]


def test_langid_vectorized_parity():
    """Vectorized LangId == the original per-row loop spec (VERDICT r03 #1)."""
    from geotrellis_ray.functions.text_analysis import LANG_PROFILES

    def reference(texts):
        langs = sorted(LANG_PROFILES)
        words = {lang: set(LANG_PROFILES[lang]) for lang in langs}
        out = []
        for t in texts:
            toks = t.lower().split()
            best_lang, best_score = "en", -1
            for lang in langs:
                score = sum(1 for w in toks if w in words[lang])
                if lang in ("zh", "ja"):
                    score = sum(t.count(w) for w in words[lang])
                if score > best_score:
                    best_lang, best_score = lang, score
            out.append(best_lang)
        return out

    texts = [
        "The cat and the dog sat on the mat of the house",
        "der hund und die katze und der Vogel",
        "le chat et les chiens des villes",
        "el gato y los perros que viven de una casa",
        "o gato e os caes que vivem de uma casa",
        "我有一个的的的是了在",
        "и в не на что он и в",
        "の に は を た が の に",
        "", "   ", "x", "THE AND OF\nTO IN IS",  # newline tokenization
        "the the the the", "often soft lofty",   # 'of' inside words must NOT count
        "que de una  el la los",                 # es/fr/pt tie territory
        "a-b the, and. of!",                     # punct stays attached to tokens
        "的是了 the and of to in is the and",     # CJK chars beat en tokens? tie rules
    ]
    assert LangId().predict(texts) == reference(texts)


def test_fingerprints_batch_parity():
    """rolling_fingerprints_batch == scalar rolling_fingerprint per text."""
    rng2 = np.random.default_rng(11)
    texts = [
        "", "short", "x" * 31, "y" * 32, "z" * 33,
        "the quick brown fox jumps over the lazy dog " * 8,
    ] + ["".join(chr(rng2.integers(32, 127)) for _ in range(int(n)))
         for n in rng2.integers(0, 300, 12)]
    got = hashing.rolling_fingerprints_batch(texts)
    for t, g in zip(texts, got):
        np.testing.assert_array_equal(g, hashing.rolling_fingerprint(t))


def test_ann_kernels():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(100, 16)).astype(np.float32)
    planes = hyperplanes(16, 8)
    assert planes.shape == (8, 16)
    b = lsh_bucket(_normalize(m), planes)
    assert b.dtype == np.uint64 and (b < 256).all()
    # same vector -> same bucket; near vector -> usually same bucket
    b2 = lsh_bucket(_normalize(m + 1e-6), planes)
    assert (b == b2).mean() > 0.9


def test_multimodal_stub_plumbing():
    payloads = [b"img-%d" % i for i in range(6)]
    t = pa.table({"media_id": pa.array(range(6), pa.int64()), "media": pa.array(payloads, pa.binary())})
    meta = media_meta_batch(t)
    assert meta["media_bytes"].to_pylist() == [len(p) for p in payloads]
    with pytest.raises(NotImplementedError):
        ImageDecoder(fake=False)(t)
    out = ImageDecoder(fake=True, target_size=8)(t)
    assert "media" not in out.column_names  # payload projected away
    assert len(out["img_feat"][0].as_py()) == 6
    # deterministic: same payload -> same features
    out2 = ImageDecoder(fake=True, target_size=8)(t)
    assert out["img_feat"].to_pylist() == out2["img_feat"].to_pylist()
    a = AudioFrameSampler(fake=True)(t)
    assert len(a["audio_rms"][0].as_py()) == 8


def test_terms_and_line_stats_edge_cases():
    from geotrellis_ray.functions.text_analysis import line_stats_batch, terms_batch

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["The cat! THE CAT.", "", "a b c 123", "x\n\nx\n"], pa.string()),
    })
    terms = terms_batch(t).to_pandas()
    # doc 1: 'the' x2, 'cat' x2; doc 2: none; doc 3: no >=2-char alpha tokens
    got = {(r.doc_id, r.term): r.tf for r in terms.itertuples()}
    assert got == {(1, "the"): 2, (1, "cat"): 2}
    ls = line_stats_batch(t).to_pandas().set_index("doc_id")
    assert ls.loc[1, "n_lines"] == 1 and ls.loc[1, "n_dup_lines"] == 0
    # 'x\n\nx\n' -> ['x','','x',''] : 4 lines, 2 distinct, 2 dups
    assert ls.loc[4, "n_lines"] == 4
    assert ls.loc[4, "n_distinct_lines"] == 2
    assert ls.loc[4, "n_dup_lines"] == 2


def test_geohash_known_vectors_and_roundtrip():
    import numpy as np

    from geotrellis_ray.core.cellid import geohash_decode, geohash_encode

    # public reference vectors
    assert geohash_encode([57.64911], [10.40744], 11)[0] == "u4pruydqqvj"
    assert geohash_encode([42.6], [-5.6], 5)[0] == "ezs42"
    # decode bounds contain the encoded point; re-encoding any interior
    # point of the cell returns the same hash (cell consistency)
    rng = np.random.default_rng(13)
    lats = rng.uniform(-85, 85, 200)
    lons = rng.uniform(-180, 180, 200)
    for p in (1, 4, 7):
        ghs = geohash_encode(lats, lons, p)
        for la, lo, gh in zip(lats[:40], lons[:40], ghs[:40]):
            lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode(gh)
            assert lat_lo <= la <= lat_hi and lon_lo <= lo <= lon_hi
            mid = geohash_encode([(lat_lo + lat_hi) / 2], [(lon_lo + lon_hi) / 2], p)
            assert mid[0] == gh
