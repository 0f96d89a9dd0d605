"""URL canonicalization + URL-level dedup for the web-page corpus.

Engine additions (no GeoTrellis counterpart; Common-Crawl pipeline staple:
the first dedup pass at crawl scale is by canonical URL, before any content
hash). The rule set is OUR spec, chosen so every step is a single RE2
kernel that pyarrow.compute and DuckDB evaluate identically:

  1. strip the fragment (``#...``)
  2. lowercase scheme + authority (path/query case is preserved)
  3. drop default ports (http:80, https:443)
  4. drop a leading ``www.``
  5. remove tracking params (``utm_*``, ``fbclid``, ``gclid``), keeping the
     relative order of the survivors
  6. strip trailing slashes off the path (before ``?`` or end of string)

Step 5 avoids lookahead (RE2 has none) with the separator trick: turn the
first ``?`` into ``&`` so every param is ``&``-led, append a sentinel ``&``
so every param is ``&``-terminated, remove ``name=value&`` pairs globally,
strip trailing ``&``s, then turn the first remaining ``&`` back into ``?``.
Assumes raw ``&`` does not occur in paths (true for the corpus; real
crawlers percent-encode it).

Everything is vectorized Arrow — no Python row loop anywhere; url_dedup
ships only (canonical, doc_id) through the shuffle.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["canonicalize_urls", "canonicalize_batch", "url_dedup"]

_HEAD = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*"
_TRACK = r"(utm_[^=&]*|fbclid|gclid)=[^&]*&"


def canonicalize_urls(urls) -> pa.ChunkedArray:
    """Vectorized canonical form of a string array of absolute URLs."""
    u = pc.replace_substring_regex(urls, r"#.*$", "")          # 1. fragment
    head = pc.utf8_lower(pc.struct_field(pc.extract_regex(u, f"(?P<h>{_HEAD})"), "h"))
    rest = pc.replace_substring_regex(u, _HEAD, "", max_replacements=1)
    head = pc.replace_substring_regex(                          # 3. ports
        head, r"^(http://[^:]*):80$", r"\1", max_replacements=1)
    head = pc.replace_substring_regex(
        head, r"^(https://[^:]*):443$", r"\1", max_replacements=1)
    head = pc.replace_substring_regex(                          # 4. www.
        head, r"^(https?://)www\.", r"\1", max_replacements=1)
    u = pc.binary_join_element_wise(head, rest, "")
    u = pc.replace_substring(u, "?", "&", max_replacements=1)   # 5. params
    u = pc.binary_join_element_wise(u, "&", "")
    u = pc.replace_substring_regex(u, _TRACK, "")
    u = pc.replace_substring_regex(u, r"&+$", "")
    u = pc.replace_substring(u, "&", "?", max_replacements=1)
    u = pc.replace_substring_regex(u, r"/+\?", "?", max_replacements=1)
    return pc.replace_substring_regex(u, r"/+$", "")            # 6. slashes


def canonicalize_batch(batch: pa.Table, url_col: str = "url",
                       out_col: str = "canonical_url") -> pa.Table:
    return batch.append_column(out_col, canonicalize_urls(batch[url_col]))


def url_dedup(ds, url_col: str = "url", id_col: str = "doc_id"):
    """Canonical-URL dedup rollup: (canonical_url, n_dups, first_doc) with
    first_doc = min id per canonical key. Scale shape: the map side projects
    to slim (canonical, id) rows before the final merge; canonical
    cardinality is corpus-sized (unbounded), so above
    agg._SINGLE_FINAL_MAX_BYTES of partial rows partial_groupby's merge is the
    sort-based segment reduce — Ray's Aggregate pays ~300x per group in
    this regime (r5 finding, agg.py:sort_group_aggregate)."""
    from ..stages.agg import partial_groupby

    slim = ds.map_batches(
        lambda b: pa.table({"canonical_url": canonicalize_urls(b[url_col]),
                            id_col: b[id_col]}),
        batch_format="pyarrow", zero_copy_batch=True)
    return partial_groupby(
        slim, ["canonical_url"],
        [(id_col, "count", "n_dups"), (id_col, "min", "first_doc")])
