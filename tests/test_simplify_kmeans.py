"""Douglas-Peucker simplification properties + distributed k-means /
SemDeDup-style semantic dedup with planted structure."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrellis_ray.core.geom import line_length, simplify_dp, simplify_geom
from geotrellis_ray.stages.ann import (
    _normalize,
    kmeans_assign,
    kmeans_distributed,
    semantic_dedup,
)


def _brute_dp(coords, tol):
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords) <= 2:
        return coords.copy()
    a, b = coords[0], coords[-1]
    ab = b - a
    L2 = ab @ ab
    rel = coords[1:-1] - a
    if L2 == 0:
        d = np.linalg.norm(rel, axis=1)
    else:
        d = np.abs(ab[0] * rel[:, 1] - ab[1] * rel[:, 0]) / np.sqrt(L2)
    k = int(np.argmax(d))
    if d[k] <= tol:
        return np.array([a, b])
    mid = k + 1
    left = _brute_dp(coords[:mid + 1], tol)
    right = _brute_dp(coords[mid:], tol)
    return np.vstack([left[:-1], right])


@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                min_size=2, max_size=40),
       st.floats(0.01, 10.0))
@settings(max_examples=60, deadline=None)
def test_simplify_dp_matches_recursive_oracle(pts, tol):
    coords = np.array(pts, dtype=np.float64)
    got = simplify_dp(coords, tol)
    want = _brute_dp(coords, tol)
    assert np.array_equal(got, want)


def test_simplify_dp_properties():
    rng = np.random.default_rng(4)
    coords = np.c_[np.arange(200, dtype=float), np.cumsum(rng.uniform(-1, 1, 200))]
    simp = simplify_dp(coords, 0.5)
    # endpoints preserved, output is a subsequence, shorter or equal length
    assert (simp[0] == coords[0]).all() and (simp[-1] == coords[-1]).all()
    assert len(simp) <= len(coords)
    assert line_length(simp) <= line_length(coords) + 1e-9
    idx = 0
    for p in simp:  # subsequence check
        while idx < len(coords) and not (coords[idx] == p).all():
            idx += 1
        assert idx < len(coords)


def test_simplify_geom_ring_floor():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    g = simplify_geom({"type": "Polygon", "coordinates": [sq]}, tolerance=10.0)
    # huge tolerance would degenerate the ring below 4 pts -> original kept
    assert len(g["coordinates"][0]) >= 4


def _blob_table(rng, centers, per, d=16, noise=0.02):
    rowsv, ids = [], []
    for ci, c in enumerate(centers):
        for j in range(per):
            rowsv.append(c + rng.normal(0, noise, d))
            ids.append(ci * per + j)
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in rowsv],
                              pa.list_(pa.float32())),
    })


def test_kmeans_recovers_planted_blobs(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(13)
    centers = _normalize(rng.normal(0, 1, (4, 16)).astype(np.float32))
    t = _blob_table(rng, centers, per=50)
    ds = rd.from_arrow(t)
    cents = kmeans_distributed(ds, n_centroids=4, iters=4)
    assigned = kmeans_assign(ds, cents).to_pandas()
    # every planted blob maps to ONE cluster, bijectively
    blob = assigned["vec_id"].to_numpy() // 50
    m = {}
    pure = True
    for b, c in zip(blob, assigned["cluster"]):
        if b in m and m[b] != c:
            pure = False
        m[b] = c
    assert pure and len(set(m.values())) == 4


def test_semantic_dedup_drops_planted_near_dups(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(29)
    centers = _normalize(rng.normal(0, 1, (3, 16)).astype(np.float32))
    t = _blob_table(rng, centers, per=30, noise=0.1)
    base = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()])
    # plant exact duplicates of ids 0..4 with new ids 1000..1004
    dup = pa.table({
        "vec_id": pa.array([1000 + i for i in range(5)], pa.int64()),
        "embedding": pa.array([base[i].tolist() for i in range(5)],
                              pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(pa.concat_tables([t, dup]))
    out = semantic_dedup(ds, threshold=0.999, n_centroids=3, iters=3).to_pandas()
    assert len(out) == 95
    kept = set(out[out["keep"]]["vec_id"])
    for i in range(5):
        # exactly one of (i, 1000+i) survives, and it is the smaller id
        assert i in kept and (1000 + i) not in kept
    # non-duplicated vectors survive
    assert out["keep"].sum() == 90


def test_semantic_dedup_mega_cluster_split(ray_session):
    """Skew guard (VERDICT r03 #3): one k-means mega-cluster must be
    subdivided by the secondary LSH code — groups stay bounded and planted
    exact duplicates (which share every sign bit) are still dropped."""
    import ray.data as rd

    rng = np.random.default_rng(31)
    # 600 vectors in ONE tight blob -> k-means puts them all in one cluster
    center = _normalize(rng.normal(0, 1, (1, 16)).astype(np.float32))
    pts = _normalize((center + 0.05 * rng.normal(0, 1, (600, 16))).astype(np.float32))
    t = pa.table({
        "vec_id": pa.array(np.arange(600, dtype=np.int64), pa.int64()),
        "embedding": pa.array([p.tolist() for p in pts], pa.list_(pa.float32())),
    })
    dup = pa.table({
        "vec_id": pa.array([2000 + i for i in range(8)], pa.int64()),
        "embedding": pa.array([pts[i].tolist() for i in range(8)],
                              pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(pa.concat_tables([t, dup]))
    # split_above=64 forces the subdivision path on the 608-member cluster
    out = semantic_dedup(ds, threshold=0.9999, n_centroids=2, iters=2,
                         split_above=64, split_bits_max=8).to_pandas()
    assert len(out) == 608
    kept = set(out[out["keep"]]["vec_id"])
    for i in range(8):
        assert i in kept and (2000 + i) not in kept  # exact dups co-bucketed
    # the blob itself is not near-duplicated at this threshold
    assert out["keep"].sum() == 600


def test_semantic_dedup_subsplit_bounds_groups(ray_session):
    """The secondary code actually bounds subcluster sizes: with 2^8 codes
    over 600 spread vectors no (cluster, sub) group should hold a large
    fraction of the cluster."""
    from geotrellis_ray.stages.ann import hyperplanes

    rng = np.random.default_rng(37)
    pts = _normalize(rng.normal(0, 1, (600, 16)).astype(np.float32))
    planes = hyperplanes(16, 8)
    bits = (pts @ planes.T.astype(np.float32)) >= 0
    codes = bits @ (1 << np.arange(8))
    _, counts = np.unique(codes, return_counts=True)
    assert counts.max() < 60  # isotropic vectors spread over 256 codes


def test_weighted_sample_topk_matches_brute(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_ray.stages.sample import mix32, weighted_sample_topk

    rng = np.random.default_rng(12)
    ids = np.arange(1000, dtype=np.int64)
    w = rng.integers(1, 500, 1000).astype(np.float64)
    tab = pa.table({"doc_id": pa.array(ids), "w": pa.array(w)})
    got = weighted_sample_topk(rd.from_arrow(tab).repartition(7),
                               "doc_id", "w", 30).to_pandas()
    u = (mix32(ids).astype(np.float64) + 0.5) / 4294967296.0
    key = np.log(u) / w
    expect = ids[np.lexsort((ids, -key))[:30]]
    assert sorted(got["doc_id"].tolist()) == sorted(expect.tolist())
    # heavier rows are sampled more often: median weight of the sample
    # exceeds the population median (probabilistic but deterministic here)
    assert np.median(w[np.isin(ids, expect)]) > np.median(w)


def test_weighted_sample_block_invariance(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geotrellis_ray.stages.sample import weighted_sample_topk

    ids = np.arange(200, dtype=np.int64)
    w = (ids % 17 + 1).astype(np.float64)
    tab = pa.table({"doc_id": pa.array(ids), "w": pa.array(w)})
    sel = None
    for nblocks in (1, 9):
        got = weighted_sample_topk(rd.from_arrow(tab).repartition(nblocks),
                                   "doc_id", "w", 10).to_pandas()
        cur = sorted(got["doc_id"].tolist())
        assert sel is None or cur == sel
        sel = cur


def test_simplify_dp_sqrtfree_matches_classic():
    """Pin simplify_dp to the classic |cross|/sqrt(L2) > tol evaluation on
    generic float polylines (an r5 sqrt-free cross^2 > tol^2*L2 attempt
    diverged by 1 ulp on near-ties — caught by the hypothesis oracle above
    and reverted; this inline copy keeps the contract pinned)."""
    import numpy as np

    from geotrellis_ray.core.geom import simplify_dp

    def classic(coords, tol):
        coords = np.asarray(coords, dtype=np.float64)
        n = len(coords)
        keep = np.zeros(n, dtype=bool)
        keep[0] = keep[-1] = True
        stack = [(0, n - 1)]
        while stack:
            i, j = stack.pop()
            if j <= i + 1:
                continue
            seg = coords[i + 1:j]
            a, b = coords[i], coords[j]
            ab = b - a
            L2 = ab @ ab
            if L2 == 0.0:
                d = np.linalg.norm(seg - a, axis=1)
            else:
                rel = seg - a
                d = np.abs(ab[0] * rel[:, 1] - ab[1] * rel[:, 0]) / np.sqrt(L2)
            kmax = int(np.argmax(d))
            if d[kmax] > tol:
                mid = i + 1 + kmax
                keep[mid] = True
                stack.append((i, mid))
                stack.append((mid, j))
        return coords[keep]

    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(2, 80))
        coords = np.c_[np.sort(rng.uniform(0, 100, n)), rng.uniform(-20, 20, n)]
        tol = float(rng.uniform(0.1, 8.0))
        got = simplify_dp(coords, tol)
        exp = classic(coords, tol)
        assert got.shape == exp.shape and np.array_equal(got, exp)
    # duplicate-endpoint (L2 == 0) branch
    loop = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -2.0], [0.0, 0.0]])
    assert np.array_equal(simplify_dp(loop, 1.0), classic(loop, 1.0))


def test_simplify_dp_grid_fixture_integer_exact():
    """The q_simplify_dp_grid fixture path: integer zigzag, tol=2 — kept set
    must match a Fraction-exact brute DP (no float anywhere)."""
    from fractions import Fraction

    import numpy as np

    from geotrellis_ray.core.geom import simplify_dp

    def brute_exact(pts, tol_num, tol_den):
        n = len(pts)
        keep = {0, n - 1}
        stack = [(0, n - 1)]
        while stack:
            i, j = stack.pop()
            if j <= i + 1:
                continue
            (xi, yi), (xj, yj) = pts[i], pts[j]
            abx, aby = xj - xi, yj - yi
            L2 = abx * abx + aby * aby
            best_k, best_m2 = None, None
            for k in range(i + 1, j):
                rx, ry = pts[k][0] - xi, pts[k][1] - yi
                if L2 == 0:
                    m2 = Fraction(rx * rx + ry * ry)
                    thr = Fraction(tol_num * tol_num, tol_den * tol_den)
                else:
                    c = abx * ry - aby * rx
                    m2 = Fraction(c * c)
                    thr = Fraction(tol_num * tol_num * L2, tol_den * tol_den)
                if best_m2 is None or m2 > best_m2:
                    best_k, best_m2 = k, m2
            if best_m2 > thr:
                keep.add(best_k)
                stack.append((i, best_k))
                stack.append((best_k, j))
        return sorted(keep)

    k = np.arange(30, dtype=np.int64)
    for eid in (0, 97, 194, 970, 9991 * 97):
        y = (((eid + k) * 2654435761) % 2147483647) % 21 - 10
        coords = np.c_[k, y].astype(np.float64)
        got = simplify_dp(coords, 2.0)[:, 0].astype(int).tolist()
        exp = brute_exact(list(zip(k.tolist(), y.tolist())), 2, 1)
        assert got == exp
