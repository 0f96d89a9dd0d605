"""HyperLogLog distinct-count sketch — the classic fixed-size mergeable
cardinality estimator (Flajolet et al. 2007, with the standard small-range
linear-counting correction). The 100-TB aggregate for COUNT(DISTINCT):
per-block registers are a few KB regardless of data volume, merges are a
vectorized elementwise max, and the estimate error is ~1.04/sqrt(2^p).

No GeoTrellis counterpart (its sketches are value histograms —
core/histogram.py covers those); this is the LLM-data first-class addition
for corpus-scale distinct counts (unique urls / domains / shingles)."""

from __future__ import annotations

import base64

import numpy as np

_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — the standard 64-bit integer mix."""
    z = x.astype(np.uint64) + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_C1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_C2
    return z ^ (z >> np.uint64(31))


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (np.log2 on the full 64 bits
    is NOT exact past 2^53 — split into 32-bit halves, each exact in
    float64)."""
    hi = (w >> np.uint64(32)).astype(np.float64)
    lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)

    def bl32(v):
        out = np.zeros_like(v)
        nz = v > 0
        out[nz] = np.floor(np.log2(v[nz])) + 1.0
        return out

    return np.where(hi > 0, bl32(hi) + 32.0, bl32(lo)).astype(np.int64)


def hash_values(values) -> np.ndarray:
    """Any column -> uint64 hashes: integers through splitmix64, everything
    else through pandas' vectorized C hasher (deterministic, no per-row
    Python)."""
    arr = np.asarray(values)
    if arr.dtype.kind in ("i", "u"):
        return splitmix64(arr.astype(np.uint64))
    import pandas as pd

    return pd.util.hash_array(arr if arr.dtype == object else arr.astype(object))


def hll_registers(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """64-bit hashes -> (register index, rank): the top ``p`` bits pick the
    register; the rank is the leading zeros of the remaining 64-p bits + 1."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    rho = (64 - p) - _bit_length_u64(w >> np.uint64(p)) + 1
    return idx, rho.astype(np.uint8)


def hll_estimate(p: int, inv_sum, zeros):
    """HyperLogLog cardinality of 2^p registers from the sum of 2^-register
    over all of them (``inv_sum``) and the count of zero registers, with the
    small-range linear-counting correction. Scalars or arrays (one estimate
    per sketch)."""
    m = float(1 << p)
    alpha = 0.7213 / (1.0 + 1.079 / m)  # standard large-m constant
    E = alpha * m * m / np.asarray(inv_sum, dtype=np.float64)
    zeros = np.asarray(zeros)
    with np.errstate(divide="ignore"):
        linear = m * np.log(m / np.maximum(zeros, 1))
    return np.where((E <= 2.5 * m) & (zeros > 0), linear, E)


class HyperLogLog:
    """p-bit register index (m = 2^p registers), 64-bit hashes. Default
    p=12: 4096 one-byte registers, ~1.6% standard error."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.reg = (registers if registers is not None
                    else np.zeros(self.m, dtype=np.uint8))

    def update_hashes(self, h: np.ndarray) -> "HyperLogLog":
        if len(h) == 0:
            return self
        idx, rho = hll_registers(h, self.p)
        np.maximum.at(self.reg, idx, rho)
        return self

    def update(self, values) -> "HyperLogLog":
        return self.update_hashes(hash_values(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("precision mismatch")
        np.maximum(self.reg, other.reg, out=self.reg)
        return self

    def estimate(self) -> float:
        return float(hll_estimate(self.p, np.sum(np.ldexp(1.0, -self.reg.astype(np.int64))),
                                  np.count_nonzero(self.reg == 0)))

    def to_dict(self) -> dict:
        return {"p": self.p,
                "reg": base64.b64encode(self.reg.tobytes()).decode("ascii")}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperLogLog":
        reg = np.frombuffer(base64.b64decode(d["reg"]), dtype=np.uint8).copy()
        return cls(p=int(d["p"]), registers=reg)


class TopKSketch:
    """Misra–Gries / "frequent" heavy-hitters sketch with batched decrements
    (Misra & Gries 1982; mergeability per Agarwal et al. 2012): at most
    ``capacity`` tracked keys; every estimate satisfies
    true − N/(capacity+1) <= est <= true. When the stream's distinct count
    never exceeds ``capacity`` no decrement ever fires and counts are EXACT.

    Batch update is fully vectorized: pandas groupby-sum of the incoming
    keys, concat with the tracked table, then one batched decrement (drop
    the overflow by subtracting the (capacity+1)-th largest count)."""

    def __init__(self, capacity: int = 2048, keys=None, counts=None):
        self.capacity = int(capacity)
        self.keys = np.asarray(keys if keys is not None else [], dtype=object)
        self.counts = np.asarray(counts if counts is not None else [], dtype=np.int64)
        self.decremented = 0  # total per-key decrement applied so far

    def _reduce(self, keys, counts):
        import pandas as pd

        s = pd.Series(counts, index=keys).groupby(level=0).sum()
        keys = s.index.to_numpy(dtype=object)
        counts = s.to_numpy(dtype=np.int64)
        if len(keys) > self.capacity:
            # batched Misra-Gries decrement: one subtraction evicts the tail
            d = int(np.partition(counts, -(self.capacity + 1))[-(self.capacity + 1)])
            counts = counts - d
            keep = counts > 0
            keys, counts = keys[keep], counts[keep]
            self.decremented += d
        self.keys, self.counts = keys, counts

    def update(self, values) -> "TopKSketch":
        values = np.asarray(values, dtype=object)
        if len(values) == 0:
            return self
        import pandas as pd

        vc = pd.Series(values).value_counts()
        self._reduce(np.concatenate([self.keys, vc.index.to_numpy(dtype=object)]),
                     np.concatenate([self.counts, vc.to_numpy(dtype=np.int64)]))
        return self

    def merge(self, other: "TopKSketch") -> "TopKSketch":
        self.decremented += other.decremented
        self._reduce(np.concatenate([self.keys, other.keys]),
                     np.concatenate([self.counts, other.counts]))
        return self

    def top(self, k: int) -> list[tuple]:
        order = np.lexsort((self.keys.astype(str), -self.counts))[:k]
        return [(self.keys[i], int(self.counts[i])) for i in order]

    def to_dict(self) -> dict:
        return {"capacity": self.capacity, "decremented": self.decremented,
                "keys": [str(k) for k in self.keys],
                "counts": self.counts.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "TopKSketch":
        out = cls(capacity=int(d["capacity"]), keys=d["keys"], counts=d["counts"])
        out.decremented = int(d.get("decremented", 0))
        return out


class CountMinSketch:
    """Count-min sketch (Cormode & Muthukrishnan 2005): fixed-size
    mergeable frequency estimator — estimate(x) >= true_count(x) always
    (one-sided error), overestimate <= eps * N with probability 1 - delta
    for width = ceil(e / eps), depth = ceil(ln(1 / delta)). The 100-TB
    companion to TopKSketch: Misra-Gries surfaces WHICH keys are heavy,
    CMS answers point frequency queries for ANY key; both merge by simple
    elementwise addition so per-block partials tree-combine losslessly.

    Rows are salted splitmix64 hashes of the caller's 64-bit key hash;
    all update/query paths are vectorized np.add.at / gather."""

    def __init__(self, width: int = 2048, depth: int = 5,
                 table: np.ndarray | None = None):
        self.width = int(width)
        self.depth = int(depth)
        self.table = (np.zeros((depth, width), np.int64)
                      if table is None else table)

    def _cols(self, h: np.ndarray) -> np.ndarray:
        """(depth, n) column indices for key hashes h."""
        salts = (np.arange(1, self.depth + 1, dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15))
        return np.stack([
            (splitmix64(h ^ s) % np.uint64(self.width)).astype(np.int64)
            for s in salts
        ])

    def update_hashes(self, h: np.ndarray,
                      counts: np.ndarray | None = None) -> "CountMinSketch":
        h = h.astype(np.uint64, copy=False)
        c = (np.ones(len(h), np.int64) if counts is None
             else counts.astype(np.int64))
        cols = self._cols(h)
        for d in range(self.depth):
            np.add.at(self.table[d], cols[d], c)
        return self

    def update(self, values) -> "CountMinSketch":
        return self.update_hashes(hash_values(values))

    def query_hashes(self, h: np.ndarray) -> np.ndarray:
        cols = self._cols(h.astype(np.uint64, copy=False))
        est = self.table[0][cols[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self.table[d][cols[d]])
        return est

    def query(self, values) -> np.ndarray:
        return self.query_hashes(hash_values(values))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.table += other.table
        return self

    def to_dict(self) -> dict:
        return {"width": self.width, "depth": self.depth,
                "table": base64.b64encode(
                    self.table.astype("<i8").tobytes()).decode()}

    @classmethod
    def from_dict(cls, d: dict) -> "CountMinSketch":
        t = np.frombuffer(base64.b64decode(d["table"]), "<i8").reshape(
            d["depth"], d["width"]).copy()
        return cls(d["width"], d["depth"], t)
