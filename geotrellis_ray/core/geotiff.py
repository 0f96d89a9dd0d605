"""Minimal single-band GeoTiff codec — stdlib struct + zlib only.

The #1 real-world entry point to the reference
(ref:raster/src/main/scala/geotrellis/raster/io/geotiff/, ~8k LoC,
L:unverified — /root/reference empty at survey time; SURVEY.md §7 scoped it
out of v1, VERDICT r01 ranked it the biggest capability gap). This is a
from-spec (TIFF 6.0 + GeoTIFF 1.1) implementation, NOT a port.

Supported (read):
- classic TIFF AND BigTIFF (magic 43, 8-byte offsets, 20-byte IFD entries,
  LONG8/SLONG8/IFD8 field types), little- or big-endian (II / MM)
- single band AND multiband (round 3): chunky (PlanarConfiguration=1,
  pixel-interleaved) and planar (=2) organizations, uniform dtype across
  bands; bits 8/16/32/64, SampleFormat uint / int / float
- strip and tile organization
- Compression: 1 (none), 5 (LZW, TIFF early-change variant — own pure-python
  codec below), 8 (Deflate/zlib); Predictor 1 (none) and 2 (horizontal
  differencing, per-channel for multiband)
- georeferencing from ModelPixelScale + ModelTiepoint, or a full affine
  ModelTransformation — rotated rasters are rectified on decode
  (nearest-neighbor onto the axis-aligned bounding grid, NaN outside the
  footprint); GeoKeyDirectory EPSG code recorded
- GDAL_NODATA ascii tag -> cells mapped to NaN

Supported (write): tiled or stripped, single- or multi-band (chunky),
none/LZW/Deflate with predictor, pixel-scale/tiepoint geo tags, GDAL_NODATA;
classic by default, BigTIFF on request or automatically when the encoded
payload would overflow classic TIFF's 32-bit offsets.

Decoded cells are float64 with NaN as NoData (the engine's tile model,
core/raster.py).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .layout import Extent

# TIFF tag ids
_NEW_SUBFILE_TYPE = 254  # bit 0 = reduced-resolution (COG overview pages)
_IMAGE_WIDTH = 256
_IMAGE_LENGTH = 257
_BITS_PER_SAMPLE = 258
_COMPRESSION = 259
_PHOTOMETRIC = 262
_STRIP_OFFSETS = 273
_SAMPLES_PER_PIXEL = 277
_ROWS_PER_STRIP = 278
_STRIP_BYTE_COUNTS = 279
_PLANAR_CONFIG = 284
_PREDICTOR = 317
_TILE_WIDTH = 322
_TILE_LENGTH = 323
_TILE_OFFSETS = 324
_TILE_BYTE_COUNTS = 325
_SAMPLE_FORMAT = 339
_MODEL_PIXEL_SCALE = 33550
_MODEL_TIEPOINT = 33922
_MODEL_TRANSFORMATION = 34264
_GEO_KEY_DIRECTORY = 34735
_GDAL_NODATA = 42113

# TIFF field types: id -> (struct code, byte size); 16/17/18 are the BigTIFF
# LONG8 / SLONG8 / IFD8 additions (TIFF 6.0 + BigTIFF spec)
_FIELD_TYPES = {
    1: ("B", 1), 2: ("c", 1), 3: ("H", 2), 4: ("I", 4), 5: ("II", 8),
    6: ("b", 1), 7: ("c", 1), 8: ("h", 2), 9: ("i", 4), 10: ("ii", 8),
    11: ("f", 4), 12: ("d", 8), 16: ("Q", 8), 17: ("q", 8), 18: ("Q", 8),
}

# GeoKey ids we record
_GK_GT_MODEL_TYPE = 1024
_GK_GEOGRAPHIC_TYPE = 2048
_GK_PROJECTED_CS_TYPE = 3072


def _dtype_for(bits: int, fmt: int, endian: str) -> np.dtype:
    kind = {1: "u", 2: "i", 3: "f"}.get(fmt)
    if kind is None:
        raise ValueError(f"unsupported SampleFormat {fmt}")
    if kind == "f" and bits not in (32, 64):
        raise ValueError(f"unsupported float width {bits}")
    if kind in ("u", "i") and bits not in (8, 16, 32, 64):
        raise ValueError(f"unsupported integer width {bits}")
    return np.dtype(f"{endian}{kind}{bits // 8}")


def _read_ifd_entries(buf: bytes, off: int, endian: str, big: bool = False) -> dict[int, list]:
    # classic: u16 entry count, 12-byte entries (u32 count, 4-byte inline
    # value); BigTIFF: u64 entry count, 20-byte entries (u64 count, 8-byte
    # inline value)
    if big:
        (n,) = struct.unpack_from(endian + "Q", buf, off)
        off += 8
        entry_sz, inline = 20, 8
    else:
        (n,) = struct.unpack_from(endian + "H", buf, off)
        off += 2
        entry_sz, inline = 12, 4
    tags: dict[int, list] = {}
    for _ in range(int(n)):
        tag, ftype = struct.unpack_from(endian + "HH", buf, off)
        if big:
            (count,) = struct.unpack_from(endian + "Q", buf, off + 4)
        else:
            (count,) = struct.unpack_from(endian + "I", buf, off + 4)
        count = int(count)
        if ftype not in _FIELD_TYPES:
            off += entry_sz
            continue
        code, size = _FIELD_TYPES[ftype]
        nbytes = size * count
        val_off = off + entry_sz - inline
        if nbytes <= inline:
            data_off = val_off
        else:
            (data_off,) = struct.unpack_from(endian + ("Q" if big else "I"), buf, val_off)
        if ftype in (2, 7):  # ascii / undefined: raw bytes
            vals = [buf[data_off : data_off + count]]
        elif ftype in (5, 10):  # rationals
            raw = struct.unpack_from(endian + code[0] * 2 * count, buf, data_off)
            vals = [raw[i] / raw[i + 1] if raw[i + 1] else 0.0 for i in range(0, 2 * count, 2)]
        else:
            vals = list(struct.unpack_from(endian + code * count, buf, data_off))
        tags[tag] = vals
        off += entry_sz
    return tags


# --- LZW (TIFF 6.0 flavor: MSB-first bit packing, early change) -------------

_LZW_CLEAR, _LZW_EOI = 256, 257


def lzw_decode(data: bytes) -> bytes:
    """TIFF-flavor LZW: 8-bit roots, ClearCode 256, EOI 257, MSB-first
    variable-width codes (9..12 bits) with EARLY CHANGE (width bumps when the
    next code WOULD reach 2^width - 1, one entry earlier than classic LZW) —
    TIFF 6.0 §13."""
    out = bytearray()
    table: list[bytes] = []

    def reset():
        nonlocal table, width
        table = [bytes([i]) for i in range(256)] + [b"", b""]
        width = 9

    width = 9
    reset()
    bitbuf = 0
    bits = 0
    prev: bytes | None = None
    pos = 0
    n = len(data)
    while True:
        while bits < width:
            if pos >= n:
                return bytes(out)
            bitbuf = (bitbuf << 8) | data[pos]
            pos += 1
            bits += 8
        code = (bitbuf >> (bits - width)) & ((1 << width) - 1)
        bits -= width
        if code == _LZW_EOI:
            return bytes(out)
        if code == _LZW_CLEAR:
            reset()
            prev = None
            continue
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt LZW stream (code beyond table)")
        out += entry
        prev = entry
        # early change: bump width one entry before the table fills
        if len(table) + 1 >= (1 << width) and width < 12:
            width += 1


def lzw_encode(data: bytes) -> bytes:
    """TIFF-flavor LZW encoder (matching lzw_decode's early-change rule)."""
    out = bytearray()
    bitbuf = 0
    bits = 0

    def emit(code: int, width: int):
        nonlocal bitbuf, bits
        bitbuf = (bitbuf << width) | code
        bits += width
        while bits >= 8:
            out.append((bitbuf >> (bits - 8)) & 0xFF)
            bits -= 8

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    emit(_LZW_CLEAR, width)
    w = b""
    for byte in data:
        c = bytes([byte])
        if w + c in table:
            w = w + c
            continue
        emit(table[w], width)
        table[w + c] = next_code
        next_code += 1
        # early change, libtiff rule: the decoder's table lags next_code by
        # exactly one append (its first code after Clear adds nothing), so
        # the encoder bumps when next_code reaches 2^width — the decoder then
        # bumps at the same code index (len(table)+1 == 2^width)
        if next_code >= (1 << width):
            if width < 12:
                width += 1
            else:
                emit(_LZW_CLEAR, width)
                table = {bytes([i]): i for i in range(256)}
                next_code = 258
                width = 9
        w = c
    if w:
        emit(table[w], width)
    emit(_LZW_EOI, width)
    if bits:
        out.append((bitbuf << (8 - bits)) & 0xFF)
    return bytes(out)


def decode_geotiff(buf: bytes, _page_off: int | None = None) -> tuple[Extent, np.ndarray, dict]:
    """GeoTiff bytes -> (Extent, float64 array with NaN NoData, meta).

    Single band: array shape (rows, cols). Multiband (round 3): shape
    (bands, rows, cols), both chunky (PlanarConfiguration=1) and planar (=2)
    organizations, all bands sharing one dtype. Compression: none, LZW (5),
    Deflate (8); Predictor 1/2. meta: {"epsg", "nodata", "cols", "rows",
    "bands", "dtype", "rectified"} — rectified=True marks a rotated input
    resampled onto an axis-aligned grid."""
    if buf[:2] == b"II":
        endian = "<"
    elif buf[:2] == b"MM":
        endian = ">"
    else:
        raise ValueError("not a TIFF (bad byte-order mark)")
    (magic,) = struct.unpack_from(endian + "H", buf, 2)
    if magic == 43:  # BigTIFF: u16 offset size (must be 8), u16 zero, u64 IFD
        osize, zero = struct.unpack_from(endian + "HH", buf, 4)
        if osize != 8 or zero != 0:
            raise ValueError(f"malformed BigTIFF header (offsetsize={osize})")
        (ifd_off,) = struct.unpack_from(endian + "Q", buf, 8)
        if _page_off is not None:
            ifd_off = _page_off
        tags = _read_ifd_entries(buf, int(ifd_off), endian, big=True)
    elif magic == 42:
        (ifd_off,) = struct.unpack_from(endian + "I", buf, 4)
        if _page_off is not None:
            ifd_off = _page_off
        tags = _read_ifd_entries(buf, ifd_off, endian)
    else:
        raise ValueError(f"not a TIFF (magic {magic})")

    nbands = int(tags.get(_SAMPLES_PER_PIXEL, [1])[0])
    planar = int(tags.get(_PLANAR_CONFIG, [1])[0])
    if planar not in (1, 2):
        raise ValueError("unsupported PlanarConfiguration")
    comp = tags.get(_COMPRESSION, [1])[0]
    if comp not in (1, 5, 8):
        raise ValueError(f"unsupported Compression {comp} (only none/LZW/Deflate)")
    predictor = tags.get(_PREDICTOR, [1])[0]
    if predictor not in (1, 2):
        raise ValueError(f"unsupported Predictor {predictor}")

    cols = int(tags[_IMAGE_WIDTH][0])
    rows = int(tags[_IMAGE_LENGTH][0])
    bits_list = [int(b) for b in tags.get(_BITS_PER_SAMPLE, [8])] or [8]
    fmt_list = [int(f) for f in tags.get(_SAMPLE_FORMAT, [1])] or [1]
    # pad short tag lists (writers may collapse uniform per-band values)
    bits_list += [bits_list[-1]] * (nbands - len(bits_list))
    fmt_list += [fmt_list[-1]] * (nbands - len(fmt_list))
    dts = [_dtype_for(b, f, endian) for b, f in zip(bits_list, fmt_list)]
    mixed = len({d.str for d in dts}) > 1
    if mixed and planar != 2:
        # chunky interleaves samples of different widths in one segment —
        # only the planar organization keeps bands decodable independently
        raise ValueError("mixed per-band dtypes need PlanarConfiguration=2")
    dt = dts[0]
    if predictor == 2 and any(d.kind == "f" for d in dts):
        raise ValueError("floating-point predictor is not supported")

    def _decompress(raw: bytes) -> bytes:
        if comp == 8:
            return zlib.decompress(raw)
        if comp == 5:
            return lzw_decode(raw)
        return raw

    # chunky: a segment holds seg_rows x seg_cols x nbands interleaved
    # samples; planar: the segment list repeats once per band.
    chans = nbands if planar == 1 else 1

    def segments(offsets, counts, seg_cols, seg_rows, tiled):
        out_dt = np.dtype(np.float64) if mixed else dt.newbyteorder("=")
        out = np.empty((nbands, rows, cols), dtype=out_dt)
        per_row = -(-cols // seg_cols)  # tiles per row of tiles (1 for strips)
        per_band = per_row * (-(-rows // seg_rows)) if tiled else -(-rows // seg_rows)
        for idx, (o, c) in enumerate(zip(offsets, counts)):
            raw = _decompress(buf[int(o) : int(o) + int(c)])
            band, sidx = (divmod(idx, per_band) if planar == 2 else (0, idx))
            bdt = dts[band]
            if tiled:
                tr, tc = divmod(sidx, per_row)
                r0, c0 = tr * seg_rows, tc * seg_cols
                sr = seg_rows  # tiles are always padded to full size
            else:
                r0, c0 = sidx * seg_rows, 0
                sr = min(seg_rows, rows - r0)  # last strip may be short
            seg = np.frombuffer(raw, dtype=bdt, count=sr * seg_cols * chans)
            # horizontal differencing (predictor 2) runs per CHANNEL: axis 1
            # is the column axis with channels separated on axis 2
            seg = seg.reshape(sr, seg_cols, chans)
            if predictor == 2:
                seg = np.cumsum(seg, axis=1, dtype=seg.dtype)
            nr = min(sr, rows - r0)
            nc = min(seg_cols, cols - c0)
            block = np.moveaxis(seg[:nr, :nc, :], 2, 0)  # (chans, nr, nc)
            if planar == 2:
                out[band, r0 : r0 + nr, c0 : c0 + nc] = block[0]
            else:
                out[:, r0 : r0 + nr, c0 : c0 + nc] = block
        return out

    if _TILE_OFFSETS in tags:
        tw = int(tags[_TILE_WIDTH][0])
        th = int(tags[_TILE_LENGTH][0])
        arr = segments(tags[_TILE_OFFSETS], tags[_TILE_BYTE_COUNTS], tw, th, tiled=True)
    else:
        rps = int(tags.get(_ROWS_PER_STRIP, [rows])[0])
        arr = segments(tags[_STRIP_OFFSETS], tags[_STRIP_BYTE_COUNTS], cols, rps, tiled=False)
    if nbands == 1:
        arr = arr[0]

    # georeferencing: raster-space (0,0) tiepoint + pixel scale, OR a full
    # affine ModelTransformation (rotated rasters rectified on decode)
    rectified = False
    if _MODEL_TRANSFORMATION in tags:
        m = [float(v) for v in tags[_MODEL_TRANSFORMATION]]
        if len(m) != 16:
            raise ValueError("ModelTransformation must hold 16 doubles")
        # x = a*i + b*j + tx ; y = d*i + e*j + ty  (i = col, j = row)
        a, b, tx = m[0], m[1], m[3]
        d, e, ty = m[4], m[5], m[7]
        if b == 0.0 and d == 0.0:
            if a <= 0 or e >= 0:
                raise ValueError("unsupported axis flip in ModelTransformation")
            extent = Extent(tx, ty + e * rows, tx + a * cols, ty)
        else:
            arr, extent = _rectify_affine(arr, (a, b, tx, d, e, ty))
            rectified = True
            if arr.ndim == 3:
                rows, cols = arr.shape[1], arr.shape[2]
            else:
                rows, cols = arr.shape
    else:
        if _MODEL_PIXEL_SCALE not in tags or _MODEL_TIEPOINT not in tags:
            raise ValueError("missing ModelPixelScale/ModelTiepoint geo tags")
        sx, sy = float(tags[_MODEL_PIXEL_SCALE][0]), float(tags[_MODEL_PIXEL_SCALE][1])
        tp = tags[_MODEL_TIEPOINT]
        i, j, _k, x, y = float(tp[0]), float(tp[1]), tp[2], float(tp[3]), float(tp[4])
        xmin = x - i * sx
        ymax = y + j * sy
        extent = Extent(xmin, ymax - rows * sy, xmin + cols * sx, ymax)

    epsg = None
    if _GEO_KEY_DIRECTORY in tags:
        gk = tags[_GEO_KEY_DIRECTORY]
        nkeys = int(gk[3])
        for k in range(nkeys):
            kid, loc, _cnt, val = gk[4 + 4 * k : 8 + 4 * k]
            if loc == 0 and kid in (_GK_GEOGRAPHIC_TYPE, _GK_PROJECTED_CS_TYPE):
                epsg = int(val)

    nodata = None
    out = arr.astype(np.float64)
    if _GDAL_NODATA in tags:
        try:
            nodata = float(tags[_GDAL_NODATA][0].rstrip(b"\x00").decode("ascii").strip())
        except (ValueError, UnicodeDecodeError):
            nodata = None
    if nodata is not None:
        if np.isnan(nodata):
            pass  # float NaN nodata already maps
        else:
            out[arr == dt.type(nodata)] = np.nan
    dtype_name = ("mixed:" + ",".join(str(d.newbyteorder("=")) for d in dts)
                  if mixed else str(np.dtype(dt).newbyteorder("=")))
    meta = {"epsg": epsg, "nodata": nodata, "cols": cols, "rows": rows,
            "bands": nbands, "dtype": dtype_name, "rectified": rectified}
    if _NEW_SUBFILE_TYPE in tags:
        meta["reduced_resolution"] = bool(int(tags[_NEW_SUBFILE_TYPE][0]) & 1)
    return extent, out, meta


def _ifd_chain(buf: bytes) -> tuple[str, bool, list[int]]:
    """(endian, bigtiff, [ifd offsets]) — every page in the file."""
    if buf[:2] == b"II":
        endian = "<"
    elif buf[:2] == b"MM":
        endian = ">"
    else:
        raise ValueError("not a TIFF (bad byte-order mark)")
    (magic,) = struct.unpack_from(endian + "H", buf, 2)
    if magic == 43:
        big = True
        (off,) = struct.unpack_from(endian + "Q", buf, 8)
    elif magic == 42:
        big = False
        (off,) = struct.unpack_from(endian + "I", buf, 4)
    else:
        raise ValueError(f"not a TIFF (magic {magic})")
    offs: list[int] = []
    while off:
        offs.append(int(off))
        if big:
            (n,) = struct.unpack_from(endian + "Q", buf, int(off))
            nxt_at = int(off) + 8 + 20 * int(n)
            (off,) = struct.unpack_from(endian + "Q", buf, nxt_at)
        else:
            (n,) = struct.unpack_from(endian + "H", buf, int(off))
            nxt_at = int(off) + 2 + 12 * int(n)
            (off,) = struct.unpack_from(endian + "I", buf, nxt_at)
        if len(offs) > 64:
            raise ValueError("IFD chain too long (cycle?)")
    return endian, big, offs


def decode_geotiff_pages(buf: bytes) -> list[tuple[Extent, np.ndarray, dict]]:
    """Every page of a multi-IFD (Big)TIFF — the COG overview chain
    (encode_cog): page 0 is the full-resolution image (what decode_geotiff
    returns), later pages carry meta['reduced_resolution'] = True when the
    writer marked them NewSubfileType = 1."""
    _endian, _big, offs = _ifd_chain(buf)
    out = []
    for off in offs:
        extent, arr, meta = decode_geotiff(buf, _page_off=off)
        out.append((extent, arr, meta))
    return out


def _rectify_affine(arr: np.ndarray, affine: tuple) -> tuple[np.ndarray, Extent]:
    """Nearest-neighbor rectification of a rotated raster onto its
    axis-aligned bounding grid (what gdalwarp does before tiling; the tile
    model — like the reference's — is axis-aligned, so rotation is resolved
    at decode). Output pixel sizes are the source axis step lengths; cells
    outside the rotated footprint become NaN."""
    a, b, tx, d, e, ty = affine
    det = a * e - b * d
    if det == 0.0:
        raise ValueError("singular ModelTransformation")
    src = np.asarray(arr, dtype=np.float64)
    multi = src.ndim == 3
    rows, cols = (src.shape[1], src.shape[2]) if multi else src.shape
    # world corners of the pixel grid
    ij = np.array([[0, 0], [cols, 0], [0, rows], [cols, rows]], dtype=np.float64)
    wx = a * ij[:, 0] + b * ij[:, 1] + tx
    wy = d * ij[:, 0] + e * ij[:, 1] + ty
    xmin, xmax = float(wx.min()), float(wx.max())
    ymin, ymax = float(wy.min()), float(wy.max())
    px = float(np.hypot(a, d))  # length of one column step
    py = float(np.hypot(b, e))  # length of one row step
    out_cols = max(1, int(round((xmax - xmin) / px)))
    out_rows = max(1, int(round((ymax - ymin) / py)))
    sx = (xmax - xmin) / out_cols
    sy = (ymax - ymin) / out_rows
    # output cell centers -> inverse affine -> source pixel indices
    xc = xmin + (np.arange(out_cols) + 0.5) * sx
    yc = ymax - (np.arange(out_rows) + 0.5) * sy
    gx, gy = np.meshgrid(xc - tx, yc - ty)
    si = (e * gx - b * gy) / det
    sj = (a * gy - d * gx) / det
    col = np.floor(si).astype(np.int64)
    row = np.floor(sj).astype(np.int64)
    inside = (col >= 0) & (col < cols) & (row >= 0) & (row < rows)
    colc = np.clip(col, 0, cols - 1)
    rowc = np.clip(row, 0, rows - 1)
    if multi:
        out = src[:, rowc, colc]
        out[:, ~inside] = np.nan
    else:
        out = src[rowc, colc]
        out[~inside] = np.nan
    return out, Extent(xmin, ymin, xmax, ymax)


# --- writer -----------------------------------------------------------------

def _apply_predictor2(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[:, 1:] = arr[:, 1:] - arr[:, :-1]
    return out


def _build_page(
    extent: Extent,
    arr: np.ndarray,
    epsg: int = 4326,
    nodata: float | None = None,
    compression: str = "deflate",
    tile_size: int | None = 256,
    dtype: str | np.dtype | None = None,
    predictor: int = 1,
    extra_entries: tuple = (),
) -> dict:
    """One TIFF page (IFD entries + compressed segments) for _encode_pages."""
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr3 = arr[None, :, :]
    elif arr.ndim == 3:
        arr3 = arr
    else:
        raise ValueError("encode_geotiff takes a 2-D or 3-D array")
    nbands, rows, cols = arr3.shape
    dt = np.dtype(dtype) if dtype is not None else np.dtype(arr3.dtype)
    dt = dt.newbyteorder("<")
    data = np.asarray(arr3, dtype=np.float64)
    nanmask = np.isnan(data)
    if nanmask.any():
        if nodata is None and dt.kind != "f":
            raise ValueError("integer GeoTiff with NaN cells needs an explicit nodata")
        data = np.where(nanmask, np.nan if (nodata is None) else nodata, data)
    # chunky pixel interleave: (rows, cols, bands)
    store = np.moveaxis(data.astype(dt), 0, 2)
    if predictor == 2 and dt.kind == "f":
        raise ValueError("floating-point predictor is not supported")

    fmt = {"u": 1, "i": 2, "f": 3}[dt.kind]
    bits = dt.itemsize * 8
    comp_code = {"none": 1, "deflate": 8, "lzw": 5}[compression]

    def _compress(raw: bytes) -> bytes:
        if comp_code == 8:
            return zlib.compress(raw)
        if comp_code == 5:
            return lzw_encode(raw)
        return raw

    fill = dt.type(nodata) if nodata is not None else (
        dt.type(np.nan) if dt.kind == "f" else dt.type(0))

    segs: list[bytes] = []
    if tile_size:
        tw = th = int(tile_size)
        for r0 in range(0, rows, th):
            for c0 in range(0, cols, tw):
                block = np.full((th, tw, nbands), fill, dtype=dt)
                sub = store[r0 : r0 + th, c0 : c0 + tw, :]
                block[: sub.shape[0], : sub.shape[1], :] = sub
                if predictor == 2:
                    block = _apply_predictor2(block)
                segs.append(_compress(block.tobytes()))
        seg_tags = [(_TILE_WIDTH, 3, [tw]), (_TILE_LENGTH, 3, [th])]
        off_tag, cnt_tag = _TILE_OFFSETS, _TILE_BYTE_COUNTS
    else:
        rps = 8
        for r0 in range(0, rows, rps):
            block = store[r0 : r0 + rps]
            if predictor == 2:
                block = _apply_predictor2(block)
            segs.append(_compress(block.tobytes()))
        seg_tags = [(_ROWS_PER_STRIP, 3, [rps])]
        off_tag, cnt_tag = _STRIP_OFFSETS, _STRIP_BYTE_COUNTS

    sx = extent.width / cols
    sy = extent.height / rows
    geo_dir = [1, 1, 0, 2,
               _GK_GT_MODEL_TYPE, 0, 1, 2 if epsg == 4326 else 1,
               (_GK_GEOGRAPHIC_TYPE if epsg == 4326 else _GK_PROJECTED_CS_TYPE), 0, 1, epsg]

    entries: list[tuple[int, int, list]] = [
        *extra_entries,
        (_IMAGE_WIDTH, 4, [cols]),
        (_IMAGE_LENGTH, 4, [rows]),
        (_BITS_PER_SAMPLE, 3, [bits] * nbands),
        (_COMPRESSION, 3, [comp_code]),
        (_PHOTOMETRIC, 3, [1]),
        (_SAMPLES_PER_PIXEL, 3, [nbands]),
        *seg_tags,
        (_PLANAR_CONFIG, 3, [1]),
        (_PREDICTOR, 3, [predictor]),
        (_SAMPLE_FORMAT, 3, [fmt] * nbands),
        (_MODEL_PIXEL_SCALE, 12, [sx, sy, 0.0]),
        (_MODEL_TIEPOINT, 12, [0.0, 0.0, 0.0, extent.xmin, extent.ymax, 0.0]),
        (_GEO_KEY_DIRECTORY, 3, geo_dir),
    ]
    if nodata is not None:
        nd_txt = (f"{int(nodata)}" if float(nodata).is_integer() and dt.kind != "f"
                  else f"{nodata:.10g}").encode("ascii") + b"\x00"
        entries.append((_GDAL_NODATA, 2, [nd_txt]))
    return {"entries": entries, "segs": segs,
            "off_tag": off_tag, "cnt_tag": cnt_tag}


def _encode_pages(pages: list[dict], bigtiff: bool | None) -> bytes:
    """Pages -> one little-endian (Big)TIFF: header, then every page's
    IFD + out-of-line tag data (chained via next-IFD pointers), then all
    segment data — the COG-style headers-first layout. A single page is
    the ordinary encode_geotiff output."""
    seg_counts_all = [[len(s) for s in p["segs"]] for p in pages]
    total_seg = sum(c + (c % 2) for counts in seg_counts_all for c in counts)
    if bigtiff is None:
        # conservative: payload + generous header/tag slack near the u32 edge
        big = total_seg + 1_048_576 > 0xFFFFFFFF
    else:
        big = bool(bigtiff)
        if not big and total_seg + 1_048_576 > 0xFFFFFFFF:
            raise ValueError("payload overflows classic TIFF 32-bit offsets; use bigtiff=True/None")

    inline = 8 if big else 4
    entry_sz = 20 if big else 12
    hdr_sz = 16 if big else 8
    off_ftype = 16 if big else 4
    ptr_fmt = "<Q" if big else "<I"

    def pack_page(page: dict, ifd_at: int, seg_offsets: list[int] | None,
                  next_ifd: int) -> bytes:
        """Pack one page's IFD + overflow. With seg_offsets=None the
        offsets are placeholders (sizing pass — layout is offset-free)."""
        segs = page["segs"]
        counts = [len(s) for s in segs]
        all_entries = page["entries"] + [
            (page["off_tag"], off_ftype,
             seg_offsets if seg_offsets is not None else [0] * len(segs)),
            (page["cnt_tag"], off_ftype, counts),
        ]
        n_entries = len(all_entries)
        ifd_size = (8 + entry_sz * n_entries + 8) if big else (2 + entry_sz * n_entries + 4)
        data_off = ifd_at + ifd_size
        overflow: list[bytes] = []
        packed: list[bytes] = []
        for tag, ftype, vals in sorted(all_entries):
            if ftype == 2:
                raw = vals[0]
                count = len(raw)
            else:
                code, _sz = _FIELD_TYPES[ftype]
                raw = struct.pack("<" + code * len(vals), *vals)
                count = len(vals)
            if len(raw) <= inline:
                data = raw.ljust(inline, b"\x00")
            else:
                data = struct.pack(ptr_fmt, data_off)
                overflow.append(raw)
                data_off += len(raw)
                if data_off % 2:  # keep word alignment
                    overflow.append(b"\x00")
                    data_off += 1
            head = struct.pack("<HHQ" if big else "<HHI", tag, ftype, count)
            packed.append(head + data)
        out = [struct.pack("<Q" if big else "<H", n_entries)]
        out.extend(packed)
        out.append(struct.pack(ptr_fmt, next_ifd))
        out.extend(overflow)
        return b"".join(out)

    # sizing pass: page extents depend only on entry/raw sizes, not offsets
    page_sizes = []
    pos = hdr_sz
    for p in pages:
        sz = len(pack_page(p, pos, None, 0))
        page_sizes.append(sz)
        pos += sz
    seg_base = pos

    # absolute segment offsets, pages in order, word-aligned
    seg_offsets_all: list[list[int]] = []
    o = seg_base
    for counts in seg_counts_all:
        offs = []
        for c in counts:
            offs.append(o)
            o += c + (c % 2)
        seg_offsets_all.append(offs)

    if big:
        out = [b"II", struct.pack("<HHH", 43, 8, 0), struct.pack("<Q", 16)]
    else:
        out = [b"II", struct.pack("<H", 42), struct.pack("<I", 8)]
    pos = hdr_sz
    for k, p in enumerate(pages):
        next_ifd = pos + page_sizes[k] if k + 1 < len(pages) else 0
        body = pack_page(p, pos, seg_offsets_all[k], next_ifd)
        assert len(body) == page_sizes[k]
        out.append(body)
        pos += page_sizes[k]
    for p in pages:
        for s in p["segs"]:
            out.append(s)
            if len(s) % 2:
                out.append(b"\x00")
    return b"".join(out)


def encode_geotiff(
    extent: Extent,
    arr: np.ndarray,
    epsg: int = 4326,
    nodata: float | None = None,
    compression: str = "deflate",
    tile_size: int | None = 256,
    dtype: str | np.dtype | None = None,
    predictor: int = 1,
    bigtiff: bool | None = None,
) -> bytes:
    """(Extent, 2-D (rows, cols) or 3-D (bands, rows, cols) array) ->
    little-endian GeoTiff bytes. Multiband writes chunky
    (PlanarConfiguration=1, pixel-interleaved). NaN cells become ``nodata``
    (required for integer dtypes). ``tile_size=None`` writes strips (8 rows
    each). compression: "none" | "deflate" | "lzw". ``bigtiff``: True forces
    the BigTIFF container, False forces classic (raises if the payload
    overflows 32-bit offsets), None (default) auto-promotes when needed."""
    page = _build_page(extent, arr, epsg, nodata, compression, tile_size,
                       dtype, predictor)
    return _encode_pages([page], bigtiff)


def _downsample_2x_any(a: np.ndarray) -> np.ndarray:
    """NoData-aware 2x average for 2-D or 3-D (bands first) arrays of any
    parity (odd edges NaN-padded so the last cell averages what exists)."""
    from .raster import downsample_average_2x

    if a.ndim == 3:
        return np.stack([_downsample_2x_any(b) for b in a])
    rows, cols = a.shape
    pr, pc = rows % 2, cols % 2
    if pr or pc:
        a = np.pad(a.astype(np.float64), ((0, pr), (0, pc)),
                   constant_values=np.nan)
    return downsample_average_2x(a)


def encode_cog(
    extent: Extent,
    arr: np.ndarray,
    epsg: int = 4326,
    nodata: float | None = None,
    compression: str = "deflate",
    tile_size: int = 256,
    dtype: str | np.dtype | None = None,
    overviews: int | None = None,
    min_size: int = 256,
    bigtiff: bool | None = None,
) -> bytes:
    """Cloud-Optimized GeoTiff: the full-resolution page plus a chain of
    2x average-downsampled overview pages (NewSubfileType = 1, tag 254 —
    the reduced-resolution marker), ALL IFDs at the front of the file
    before any segment data (the COG layout; GeoTrellis COGLayer keeps
    per-zoom overview GeoTiffs the same way —
    ref:spark/src/main/scala/geotrellis/spark/store/cog/COGLayer.scala,
    L:unverified, dir empty). ``overviews=None`` keeps halving until
    max(rows, cols) <= min_size; NaN NoData propagates weight-aware
    through every level. Readable page-by-page via decode_geotiff_pages
    (decode_geotiff sees the full-res page, unchanged)."""
    arr = np.asarray(arr, dtype=np.float64)
    levels = [arr]
    while (overviews is None or len(levels) <= overviews):
        cur = levels[-1]
        rows, cols = cur.shape[-2], cur.shape[-1]
        if max(rows, cols) <= min_size or min(rows, cols) < 2:
            break
        levels.append(_downsample_2x_any(cur))
        if overviews is None and len(levels) > 32:
            break
    pages = []
    for k, lv in enumerate(levels):
        extra = () if k == 0 else ((_NEW_SUBFILE_TYPE, 4, [1]),)
        pages.append(_build_page(extent, lv, epsg, nodata, compression,
                                 tile_size, dtype if k == 0 else None, 1,
                                 extra_entries=extra))
    return _encode_pages(pages, bigtiff)
